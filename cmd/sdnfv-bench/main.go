// Command sdnfv-bench is the repository's benchmark: four seeded
// workloads driven through the real engine, each measured as three
// passes of one-second closed-loop rounds plus an open-loop phase, with
// the books checked after every pass. README.md in this directory says
// what is measured and why; BENCHMARK.json at the repository root is the
// contract the pipeline runs it under.
//
//	go run -C cmd/sdnfv-bench . [-workload W] [-seed N] [-seconds S] [-trace 0|1]
//	go run -C cmd/sdnfv-bench . -aa [-sets 3] [-runs 5]
//
// The program under test receives only generated frames; all timing is
// done here, around calls into the layers' public functions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	outDir   string
}

func main() {
	var o options
	var trace int
	var aa bool
	var sets, runs int
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all four, passes interleaved)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.IntVar(&o.seconds, "seconds", 39, "measuring time per workload; 39 is 3 passes x (8 x 1 s closed loop + 5 s open loop)")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced pass and the probes, and reports the per-layer metrics")
	flag.StringVar(&o.outDir, "out", "out", "directory for result and span files")
	flag.BoolVar(&aa, "aa", false, "A/A check: run the same tree -sets x -runs times per workload and compare the sets")
	flag.IntVar(&sets, "sets", 3, "with -aa: number of sets")
	flag.IntVar(&runs, "runs", 5, "with -aa: invocations per set and workload")
	flag.Parse()
	o.trace = trace != 0

	var err error
	if aa {
		err = runAA(o, sets, runs)
	} else {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdnfv-bench:", err)
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the one-line JSON a single-workload run ends with.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one workload's result file: the verdict plus everything
// needed to tell whether two files are like for like.
type record struct {
	Workload      string    `json:"workload"`
	Why           string    `json:"why"`
	Seed          uint64    `json:"seed"`
	Traced        bool      `json:"traced"`
	NProc         int       `json:"nproc"`
	GOMAXPROCS    int       `json:"gomaxprocs"`
	GoVersion     string    `json:"go_version"`
	Commit        string    `json:"commit"`
	Passes        int       `json:"passes"`
	RoundsPerPass int       `json:"rounds_per_pass"`
	RoundSeconds  float64   `json:"round_seconds"`
	OpenSeconds   float64   `json:"open_seconds"`
	OpenPPS       int       `json:"open_pps"`
	Window        int       `json:"window"`
	RoundRates    []float64 `json:"round_rates_pps"`
	OpenP50s      []float64 `json:"open_p50_us"`
	verdict
}

// line is what the run tells the pipeline: the verdict with only the
// metrics this kind of run answers for — end-to-end for an untraced run,
// per-layer for a traced one. The result file keeps them all.
func (r record) line() verdict {
	gated := endToEnd
	if r.Traced {
		gated = perLayer
	}
	v := r.verdict
	v.Metrics = map[string]metricValue{}
	for _, d := range gated {
		v.Metrics[d.name] = metricValue{Value: r.Metrics[d.name].Value, Unit: d.unit}
	}
	return v
}

func run(o options) error {
	ws := workloads
	if o.workload != "" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		ws = []*workload{w}
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	sh := shapeFor(o.seconds)
	if o.trace {
		sh.passes = 1 // one untraced pass to compare the traced one with
	}

	// Passes are interleaved across workloads (A B C D, A B C D, ...) so
	// each workload samples separate windows of the machine.
	untraced := map[*workload][]*pass{}
	for i := 0; i < sh.passes; i++ {
		for _, w := range ws {
			p, err := runPass(w, o.seed, sh, false)
			if err != nil {
				return fmt.Errorf("%s pass %d: %w", w.name, i+1, err)
			}
			untraced[w] = append(untraced[w], p)
		}
	}

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	var last verdict
	for _, w := range ws {
		var traced *pass
		var pr *probeResults
		if o.trace {
			var err error
			if traced, err = runPass(w, o.seed, sh, true); err != nil {
				return fmt.Errorf("%s traced pass: %w", w.name, err)
			}
			if pr, err = runProbes(w, o.seed, traced); err != nil {
				return fmt.Errorf("%s probes: %w", w.name, err)
			}
			if err := traced.tr.write(filepath.Join(o.outDir, "trace_"+w.name+".json")); err != nil {
				return err
			}
		}
		rec := report(w, o, sh, untraced[w], traced, pr)
		if err := writeJSON(filepath.Join(o.outDir, resultName(w, o)), rec); err != nil {
			return err
		}
		last = rec.line()
	}
	if len(ws) == 1 {
		line, err := json.Marshal(last)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

func resultName(w *workload, o options) string {
	kind := "result"
	if o.trace {
		kind = "traced"
	}
	return fmt.Sprintf("%s_%s_seed%d.json", kind, w.name, o.seed)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runProbes times the layers directly on what the traced pass left.
func runProbes(w *workload, seed uint64, traced *pass) (*probeResults, error) {
	src, err := newSource(w, seed)
	if err != nil {
		return nil, err
	}
	frames := src.resident
	if len(frames) == 0 {
		frames = src.tmpl
	}
	pr := &probeResults{
		parseNs:   probeParse(frames),
		mempoolNs: probeMempool(w.frameBytes),
		ringNs:    probeRing(),
	}
	if pr.codecNs, err = probeCodec(frames[0], freshKey(seed, 0)); err != nil {
		return nil, err
	}
	tp, err := newTableProbe(w, seed, traced.app, traced.table, traced.rules, traced.fresh)
	if err != nil {
		return nil, err
	}
	if pr.lookupNs, err = tp.lookup(); err != nil {
		return nil, err
	}
	if pr.addNs, pr.sweepNsPerRule, err = tp.writes(); err != nil {
		return nil, err
	}
	return pr, nil
}

// report prints every measured metric as "workload/metric value unit"
// and builds the result record. End-to-end numbers never come from a
// traced pass.
func report(w *workload, o options, sh shape, untraced []*pass, traced *pass, pr *probeResults) record {
	m := summarise(w, untraced, traced, pr)
	rec := record{
		Workload: w.name, Why: w.why, Seed: o.seed, Traced: o.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(),
		Passes: len(untraced), RoundsPerPass: sh.rounds, RoundSeconds: sh.round.Seconds(), OpenSeconds: sh.open.Seconds(),
		OpenPPS: w.openPPS, Window: w.window,
	}
	rec.Correct = true // a failed check never gets here: runPass returns it as an error
	rec.Metrics = map[string]metricValue{}
	for _, p := range untraced {
		rec.RoundRates = append(rec.RoundRates, p.rates...)
		rec.OpenP50s = append(rec.OpenP50s, p.p50us...)
		rec.Attempted += p.offered
		rec.Failed += p.offered - p.delivered
	}
	if traced != nil {
		rec.Attempted += traced.offered
		rec.Failed += traced.offered - traced.delivered
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := m[d.name]; ok {
				rec.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
				fmt.Printf("%s/%s %.6g %s\n", w.name, d.name, v, d.unit)
			}
		}
	}
	if s := m["env.canary_spread"]; s > canaryWarn {
		fmt.Fprintf(os.Stderr, "sdnfv-bench: warning: %s: env.canary_spread %.3f > %.2f - the machine was not steady during this run; "+
			"compare env.canary_ns with the baseline before blaming the code\n", w.name, s, canaryWarn)
	}
	return rec
}

// commit names the tree the numbers belong to: the git revision when
// the benchmark runs inside a work tree, else "unknown".
func commit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
