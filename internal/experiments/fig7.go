package experiments

import (
	"slices"
	"strings"
)

const (
	// fig7Runs runs of fig7Packets frames per point, at most fig7Window
	// in flight: deep enough to keep every thread busy, far below the
	// 1024-slot rings so none overflows.
	fig7Runs    = 3
	fig7Packets = 20_000
	fig7Window  = 128
)

// Fig7Result is the throughput-vs-packet-size experiment (Fig. 7): chains
// of no-op NFs composed sequentially or in parallel, compared with a
// plain port-to-port forward, measured on the engine.
type Fig7Result struct {
	Sizes []int
	// Mbps per configuration, indexed like Sizes.
	DPDK, OneVM, TwoPar, TwoSeq []float64
	tally                       chainTally
}

// Name implements Result.
func (*Fig7Result) Name() string { return "fig7" }

// Render implements Result.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 7: throughput vs packet size (Mbps, engine, median of runs)\n")
	rows := make([][]string, len(r.Sizes))
	for i := range r.Sizes {
		rows[i] = []string{
			f0(float64(r.Sizes[i])),
			f0(r.DPDK[i]), f0(r.OneVM[i]), f0(r.TwoPar[i]), f0(r.TwoSeq[i]),
		}
	}
	b.WriteString(table([]string{"pkt size", "0VM(dpdk)", "1VM", "2VMs(parallel)", "2VMs(sequential)"}, rows))
	b.WriteString("paper (10 GbE, one socket): 1VM ≈5 Gbps at 64 B, every chain at line rate from 256 B; no NIC caps the engine here\n")
	b.WriteString(r.tally.String())
	return b.String()
}

// Fig7 measures the sweep: each point is the median delivered rate of
// fig7Runs runs.
func Fig7(seed int64) *Fig7Result {
	packets := fig7Packets
	if raceEnabled {
		packets /= 10
	}
	res := &Fig7Result{Sizes: []int{64, 128, 256, 512, 1024, 1500}}
	cols := []*[]float64{&res.DPDK, &res.OneVM, &res.TwoPar, &res.TwoSeq}
	for c, cfg := range []chainConfig{chainConfigs[0], chainConfigs[1], chainConfigs[2], chainConfigs[4]} {
		for _, size := range res.Sizes {
			pps := make([]float64, fig7Runs)
			for run := range pps {
				pps[run] = runChain(seed+int64(run), cfg, newNoOp, size, packets, fig7Window, nil, &res.tally)
			}
			slices.Sort(pps)
			*cols[c] = append(*cols[c], pps[fig7Runs/2]*float64(size*8)/1e6)
		}
	}
	return res
}

func init() {
	register("fig7", func(seed int64) Result { return Fig7(seed) })
}
