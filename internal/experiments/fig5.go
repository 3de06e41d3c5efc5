package experiments

import (
	"math"
	"math/rand"
	"strings"
	"time"

	"sdnfv/internal/placement"
)

// Fig5Result is the placement comparison (§3.5, Fig. 5): maximum link and
// core utilization versus number of flows for the greedy heuristic and the
// ILP-based division heuristic on the Rocketfuel-scale topology, plus the
// right-hand capacity-scaling sweep (flows accommodated at 1–100× link and
// CPU capacity).
type Fig5Result struct {
	Flows []int
	// Utilizations per flow count (NaN = flow set not fully placeable).
	GreedyLink, GreedyCore []float64
	ILPLink, ILPCore       []float64
	// Capacity sweep: flows accommodated (U ≤ 1, all flows accepted) at
	// each capacity multiplier.
	CapScales   []float64
	GreedyFlows []int
	ILPFlows    []int
}

// Name implements Result.
func (*Fig5Result) Name() string { return "fig5" }

// Render implements Result.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5 (left): max utilization vs number of flows (AS-16631-scale topology)\n")
	rows := make([][]string, len(r.Flows))
	fmtU := func(v float64) string {
		if math.IsNaN(v) {
			return "-"
		}
		return f2(v)
	}
	for i := range r.Flows {
		rows[i] = []string{
			f0(float64(r.Flows[i])),
			fmtU(r.GreedyLink[i]), fmtU(r.GreedyCore[i]),
			fmtU(r.ILPLink[i]), fmtU(r.ILPCore[i]),
		}
	}
	b.WriteString(table(
		[]string{"flows", "Greedy-Link", "Greedy-Core", "ILP-Link", "ILP-Core"}, rows))
	b.WriteString("\nFigure 5 (right): flows accommodated vs capacity multiplier\n")
	rows = rows[:0]
	for i := range r.CapScales {
		rows = append(rows, []string{
			f0(r.CapScales[i]),
			f0(float64(r.GreedyFlows[i])),
			f0(float64(r.ILPFlows[i])),
		})
	}
	b.WriteString(table([]string{"capacity x", "Greedy flows", "Division flows"}, rows))
	return b.String()
}

// fig5Spec reproduces the paper's parameters: chains J1–J5, each core
// supports 10 flows for J1–J4 and 4 flows for J5, 2 cores per node.
func fig5Spec() placement.Spec {
	return placement.Spec{FlowsPerCore: map[placement.Service]int{
		1: 10, 2: 10, 3: 10, 4: 10, 5: 4,
	}}
}

// fig5Flows draws n random ingress/egress demands with the J1–J5 chain.
func fig5Flows(rng *rand.Rand, t *placement.Topology, n int, bwBps float64) []placement.Flow {
	flows := make([]placement.Flow, n)
	for i := range flows {
		in := placement.NodeID(rng.Intn(t.N()))
		out := placement.NodeID(rng.Intn(t.N()))
		for out == in {
			out = placement.NodeID(rng.Intn(t.N()))
		}
		flows[i] = placement.Flow{
			Ingress: in, Egress: out,
			Chain:        []placement.Service{1, 2, 3, 4, 5},
			BandwidthBps: bwBps,
		}
	}
	return flows
}

// divisionOpts bounds each subproblem so the heuristic stays "less than a
// minute of computation" (§3.5) even in this pure-Go solver: each batch
// solves one LP relaxation of Eqs. (1)–(9) and rounds it (RoundLP); the
// exact branch-and-bound solver is exercised on small instances by the
// placement package's tests.
func divisionOpts() placement.DivisionOptions {
	return placement.DivisionOptions{
		BatchSize: 5,
		MILP: placement.MILPOptions{
			RoundLP:       true,
			SkipRouting:   true,
			TimeLimit:     5 * time.Second,
			SlackHops:     1,
			MaxCandidates: 8,
		},
	}
}

// Fig5 runs both sweeps.
func Fig5(seed int64) *Fig5Result {
	rng := rand.New(rand.NewSource(seed))
	t := placement.Rocketfuel22(seed, 1e9, 1e-3)
	spec := fig5Spec()
	const bw = 5e7 // 50 Mbps per flow on 1 Gbps links (core-constrained regime)

	res := &Fig5Result{Flows: []int{5, 10, 15, 20, 25, 30}}
	allFlows := fig5Flows(rng, t, 30, bw)
	for _, n := range res.Flows {
		flows := allFlows[:n]
		g, err := placement.SolveGreedy(t, flows, spec)
		if err == nil && g.NumAccepted() == n {
			res.GreedyLink = append(res.GreedyLink, g.LinkUtil)
			res.GreedyCore = append(res.GreedyCore, g.CoreUtil)
		} else {
			res.GreedyLink = append(res.GreedyLink, math.NaN())
			res.GreedyCore = append(res.GreedyCore, math.NaN())
		}
		d, err := placement.SolveDivision(t, flows, spec, divisionOpts())
		if err == nil && d.NumAccepted() == n {
			res.ILPLink = append(res.ILPLink, d.LinkUtil)
			res.ILPCore = append(res.ILPCore, d.CoreUtil)
		} else {
			res.ILPLink = append(res.ILPLink, math.NaN())
			res.ILPCore = append(res.ILPCore, math.NaN())
		}
	}

	// Right-hand sweep: at each capacity multiplier, count how many flows
	// of a fixed random demand sequence fit (all accepted, U ≤ 1), read
	// from the solvers' incremental progression.
	res.CapScales = []float64{1, 2, 5, 10}
	maxDemand := 120
	demand := fig5Flows(rng, t, maxDemand, bw)
	// "Flows accommodated" = the largest accepted count reached while
	// total utilization stayed within capacity.
	lastFit := func(a *placement.Assignment) int {
		best := 0
		for _, pt := range a.Progress {
			if pt.U <= 1+1e-9 && pt.Accepted > best {
				best = pt.Accepted
			}
		}
		return best
	}
	for _, scale := range res.CapScales {
		st := placement.Rocketfuel22(seed, 1e9*scale, 1e-3)
		for i := 0; i < st.N(); i++ {
			st.SetCores(placement.NodeID(i), int(2*scale))
		}
		gfit := 0
		if a, err := placement.SolveGreedy(st, demand, spec); err == nil {
			gfit = lastFit(a)
		}
		ifit := 0
		if a, err := placement.SolveDivision(st, demand, spec, divisionOpts()); err == nil {
			ifit = lastFit(a)
		}
		res.GreedyFlows = append(res.GreedyFlows, gfit)
		res.ILPFlows = append(res.ILPFlows, ifit)
	}
	return res
}

func init() {
	register("fig5", func(seed int64) Result { return Fig5(seed) })
}
