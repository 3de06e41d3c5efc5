package experiments

import (
	"strings"

	"sdnfv/internal/metrics"
	"sdnfv/internal/nf"
	"sdnfv/internal/nfs"
)

// Each configuration runs 3 times (as in the paper) with one 1000-byte
// frame in flight: latencyPackets frames a run for Table 2, a third as
// many for Fig. 6, whose NFs burn computeIterations (≈100 µs) a packet.
const (
	latencyPackets    = 3_000
	computeIterations = 20_000
)

// measureLatency returns each configuration's latencies (ns). The
// configurations take turns run by run, after one unrecorded warm-up run.
// A slow spell of the machine (the first second of load in a fresh
// process, or other work on the box) serialises parallel members: on
// 2 vCPUs 2VM (parallel) then read up to 121 µs p50 against 82–85 µs
// later, and 194 µs when it failed against 166 µs sequential. With each
// configuration's runs back to back, such a spell lands on the first
// configurations measured; taking turns spreads it over all of them.
func measureLatency(seed int64, cfgs []chainConfig, newNF func() nf.BatchFunction, packets int, tally *chainTally) []*metrics.Histogram {
	if raceEnabled {
		packets /= 10
	}
	hists := make([]*metrics.Histogram, len(cfgs))
	for i := range hists {
		hists[i] = metrics.NewHistogram()
	}
	runChain(seed, cfgs[0], newNF, 1000, packets, 1, nil, tally)
	for run := int64(0); run < 3; run++ {
		for i, cfg := range cfgs {
			runChain(seed+run, cfg, newNF, 1000, packets, 1, hists[i], tally)
		}
	}
	return hists
}

// Table2Result reproduces Table 2: round-trip latency of no-op NF chains,
// measured on the engine.
type Table2Result struct {
	Rows  []Table2Row
	tally chainTally
}

// Table2Row is one configuration's latency (µs).
type Table2Row struct {
	Label    string
	P50, P99 float64
}

// Name implements Result.
func (*Table2Result) Name() string { return "table2" }

// Render implements Result.
func (r *Table2Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 2: roundtrip latency for no-op NFs (µs, engine, 1000 B frames, one in flight)\n")
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Label, f2(row.P50), f2(row.P99), f2(row.P50 - r.Rows[0].P50), table2PaperDelta[i]}
	}
	b.WriteString(table([]string{"#VM", "p50", "p99", "Δp50", "paper Δavg"}, rows))
	b.WriteString("paper: 26.66 µs avg at 0VM through NIC, wire and generator; ≈1.1 µs per sequential VM, ≈0.3 µs per extra parallel VM\n")
	b.WriteString(r.tally.String())
	return b.String()
}

// table2PaperDelta is the paper's Avg over 0VM (µs), row by row.
var table2PaperDelta = []string{"0", "≈1.1", "≈1.4", "≈1.7", "≈2.2", "≈3.3"}

// Table2 measures the no-op chains of chainConfigs.
func Table2(seed int64) *Table2Result {
	res := &Table2Result{}
	for i, h := range measureLatency(seed, chainConfigs, newNoOp, latencyPackets, &res.tally) {
		res.Rows = append(res.Rows, Table2Row{
			Label: chainConfigs[i].label, P50: h.Quantile(0.5) / 1e3, P99: h.Quantile(0.99) / 1e3,
		})
	}
	return res
}

// Fig6Result is the latency CDF with compute-intensive NFs.
type Fig6Result struct {
	// Labels index the five measured configurations; CDFs[i] holds
	// latency (µs) at each of the shared Fractions.
	Labels    []string
	Fractions []float64
	CDFs      [][]float64
	tally     chainTally
}

// Name implements Result.
func (*Fig6Result) Name() string { return "fig6" }

// Render implements Result.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6: latency CDF with compute-intensive NFs (µs at CDF fraction, engine)\n")
	header := append([]string{"CDF"}, r.Labels...)
	rows := make([][]string, len(r.Fractions))
	for i, f := range r.Fractions {
		row := []string{f2(f)}
		for c := range r.CDFs {
			row = append(row, f2(r.CDFs[c][i]))
		}
		rows[i] = row
	}
	b.WriteString(table(header, rows))
	b.WriteString("paper: parallel chains stay near 1VM; each sequential VM adds its compute time (needs a core per parallel NF)\n")
	b.WriteString(r.tally.String())
	return b.String()
}

// Fig6 measures the chains of chainConfigs past 0VM with every NF
// burning computeIterations per packet.
func Fig6(seed int64) *Fig6Result {
	res := &Fig6Result{Fractions: []float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}}
	cfgs := chainConfigs[1:]
	compute := func() nf.BatchFunction { return &nfs.ComputeIntensive{Iterations: computeIterations} }
	for i, h := range measureLatency(seed, cfgs, compute, latencyPackets/3, &res.tally) {
		cdf := make([]float64, len(res.Fractions))
		for j, f := range res.Fractions {
			cdf[j] = h.Quantile(f) / 1e3
		}
		res.Labels = append(res.Labels, cfgs[i].label)
		res.CDFs = append(res.CDFs, cdf)
	}
	return res
}

func init() {
	register("table2", func(seed int64) Result { return Table2(seed) })
	register("fig6", func(seed int64) Result { return Fig6(seed) })
}
