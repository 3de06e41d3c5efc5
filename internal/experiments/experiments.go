// Package experiments contains one runner per table and figure of the
// paper's evaluation (§5), plus the §5.1 micro-cost measurements and the
// ablation studies called out in DESIGN.md. Each returns a Result whose
// Render() prints the same rows/series the paper reports.
//
// The saturation and time-series experiments run on the discrete-event
// simulator with service times calibrated from the real engine's
// micro-benchmarks, and are deterministic under a fixed seed. Figs. 8
// and 9 run the real §5.2 NFs (nfs.AntDetector, nfs.DDoSDetector,
// nfs.Scrubber) on the simulator's virtual time through simNF; only
// their links and the VM boot delay are modelled. The chain
// latency and throughput experiments (table2, fig6, fig7) and the
// wall-clock ones (scale, cluster, reconcile, churn, wire) drive the
// engine itself, so only their shape repeats. EXPERIMENTS.md records
// paper-vs-measured values and the calibration notes.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Result is a rendered experiment outcome.
type Result interface {
	// Name returns the experiment identifier (e.g. "fig1").
	Name() string
	// Render prints the paper-comparable rows/series.
	Render() string
}

// Runner produces a Result.
type Runner func(seed int64) Result

var registry = map[string]Runner{}
var registryOrder []string

func register(name string, r Runner) {
	if _, dup := registry[name]; dup {
		panic("experiments: duplicate runner " + name)
	}
	registry[name] = r
	registryOrder = append(registryOrder, name)
}

// Names lists registered experiments in registration order.
func Names() []string {
	out := make([]string, len(registryOrder))
	copy(out, registryOrder)
	return out
}

// Run executes the named experiment with the given seed.
func Run(name string, seed int64) (Result, error) {
	r, ok := registry[name]
	if !ok {
		var known []string
		for n := range registry {
			known = append(known, n)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("experiments: unknown %q (have %s)", name, strings.Join(known, ", "))
	}
	return r(seed), nil
}

// table renders rows of columns with a header, aligned.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// f2 formats a float with 2 decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f0 formats a float with no decimals.
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }

// must panics on a set-up error: runners build fixed, known-good
// scenarios, so a failure there is a bug, not an outcome to report.
func must(err error) {
	if err != nil {
		panic(err)
	}
}
