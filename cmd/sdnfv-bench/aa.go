package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// The A/A check runs the same tree over and over and asks whether two
// sets of runs agree within the bounds BENCHMARK.json promises. It is
// the test a later change's before/after comparison has to trust, so it
// judges the way the pipeline does: per workload and end-to-end metric,
// the quartile spread of a set as a share of its median, and the gap
// between set medians, each against the metric's bound.

// contract is the part of BENCHMARK.json the harness reads.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

// loadContract finds BENCHMARK.json in the working directory or the
// nearest directory above it.
func loadContract() (*contract, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var c contract
			if err := json.Unmarshal(data, &c); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &c, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("BENCHMARK.json not found in this directory or above it")
		}
		dir = parent
	}
}

// invoke runs this binary once on one workload, as the pipeline would,
// and returns the verdict on its last output line.
func invoke(self string, o options, name string, seed uint64) (*verdict, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds), "-trace", "0", "-out", o.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var v verdict
	if err := json.Unmarshal(lines[len(lines)-1], &v); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a verdict: %w", name, seed, err)
	}
	if !v.Correct {
		return nil, fmt.Errorf("%s seed %d: run reported incorrect output", name, seed)
	}
	return &v, nil
}

func runAA(o options, sets, runs int) error {
	if sets < 2 || runs < 2 {
		return errors.New("-aa needs at least 2 sets of at least 2 runs")
	}
	c, err := loadContract()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var names []string
	for _, w := range workloads {
		if o.workload == "" || o.workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	// values[workload][metric][set] holds one value per run. Every run
	// gets its own seed, and workloads alternate inside a set, so a set
	// samples each workload across its whole duration.
	values := map[string]map[string][][]float64{}
	seed := o.seed
	for s := 0; s < sets; s++ {
		for r := 0; r < runs; r++ {
			for _, name := range names {
				v, err := invoke(self, o, name, seed)
				if err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "set %d run %d %s seed %d done\n", s+1, r+1, name, seed)
				if values[name] == nil {
					values[name] = map[string][][]float64{}
				}
				for metric, mv := range v.Metrics {
					if values[name][metric] == nil {
						values[name][metric] = make([][]float64, sets)
					}
					values[name][metric][s] = append(values[name][metric][s], mv.Value)
				}
			}
			seed++
		}
	}

	fmt.Printf("# A/A check: %d sets x %d runs, %d s per run\n\n", sets, runs, o.seconds)
	fmt.Println("`spread` is the widest quartile distance of a set as a share of its median, `gap` the distance between the")
	fmt.Println("lowest and highest set median as a share of the lowest, `range` the furthest single run from its set median.")
	fmt.Println("A row passes when gap and spread are within the bound (set-up time is held to the gap only).")
	failed := 0
	for _, name := range names {
		fmt.Printf("\n## %s\n\n| metric | unit | set medians | gap | spread | range | bound | |\n|---|---|---|---|---|---|---|---|\n", name)
		for _, e := range c.EndToEnd {
			row := judge(values[name][e.Name], e.Bound, e.Name == "setup_s")
			if !row.pass {
				failed++
			}
			fmt.Printf("| %s | %s | %s | %.4f | %.4f | %.4f | %.3f | %s |\n",
				e.Name, e.Unit, strings.Join(row.medians, " / "), row.gap, row.spread, row.reach, e.Bound, row.verdict())
		}
	}
	if failed > 0 {
		return fmt.Errorf("A/A check: %d workload x metric rows outside their bound", failed)
	}
	return nil
}

type aaRow struct {
	medians            []string
	gap, spread, reach float64
	pass               bool
}

func (r aaRow) verdict() string {
	if r.pass {
		return "PASS"
	}
	return "FAIL"
}

// judge compares the sets of one workload x metric with its bound.
func judge(sets [][]float64, bound float64, gapOnly bool) aaRow {
	var row aaRow
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, runs := range sets {
		med := median(runs)
		row.medians = append(row.medians, fmt.Sprintf("%.5g", med))
		lo, hi = min(lo, med), max(hi, med)
		row.spread = max(row.spread, spread(runs))
		for _, v := range runs {
			row.reach = max(row.reach, math.Abs(ratio(v-med, med)))
		}
	}
	row.gap = ratio(hi-lo, math.Abs(lo))
	row.pass = row.gap <= bound && (gapOnly || row.spread <= bound)
	return row
}
