package placement

import (
	"math"
	"testing"
	"time"
)

var testSpec = Spec{FlowsPerCore: map[Service]int{1: 10, 2: 10, 3: 4}}

func lineFlows(n int, chain []Service, bw float64) []Flow {
	flows := make([]Flow, n)
	for i := range flows {
		flows[i] = Flow{Ingress: 0, Egress: 3, Chain: chain, BandwidthBps: bw}
	}
	return flows
}

// u is the assignment's objective: the larger of link and core
// utilisation.
func u(a *Assignment) float64 { return math.Max(a.LinkUtil, a.CoreUtil) }

func TestGreedySimpleChain(t *testing.T) {
	top := Line(4, 2, 1e9, 0.001)
	flows := lineFlows(2, []Service{1, 2}, 1e8)
	asg, err := SolveGreedy(top, flows, testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if asg.NumAccepted() != 2 {
		t.Fatalf("accepted %d of 2", asg.NumAccepted())
	}
	for k := range flows {
		if len(asg.Nodes[k]) != 2 {
			t.Fatalf("flow %d placed on %v", k, asg.Nodes[k])
		}
	}
	if u(asg) <= 0 || u(asg) > 1 {
		t.Fatalf("U = %v", u(asg))
	}
}

func TestGreedyRejectsWhenOutOfCores(t *testing.T) {
	top := Line(2, 1, 1e9, 0.001) // 2 nodes, 1 core each
	spec := Spec{FlowsPerCore: map[Service]int{1: 1}}
	flows := []Flow{
		{Ingress: 0, Egress: 1, Chain: []Service{1, 1, 1}, BandwidthBps: 1e6},
	}
	asg, err := SolveGreedy(top, flows, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Chain needs 3 instances but only 2 cores exist.
	if asg.NumAccepted() != 0 {
		t.Fatalf("accepted %d, want 0", asg.NumAccepted())
	}
}

func TestMILPSimpleChain(t *testing.T) {
	top := Line(4, 2, 1e9, 0.001)
	flows := lineFlows(2, []Service{1, 2}, 1e8)
	asg, err := SolveMILP(top, flows, testSpec, MILPOptions{TimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if asg.NumAccepted() != 2 {
		t.Fatalf("accepted %d of 2", asg.NumAccepted())
	}
	// Routes must start at ingress and end at egress.
	for k := range flows {
		first := asg.Routes[k][0]
		last := asg.Routes[k][len(asg.Routes[k])-1]
		if first[0] != 0 {
			t.Fatalf("flow %d route starts at %v", k, first[0])
		}
		if last[len(last)-1] != 3 {
			t.Fatalf("flow %d route ends at %v", k, last[len(last)-1])
		}
	}
	if u(asg) > 1+1e-9 {
		t.Fatalf("MILP violated utilization: U=%v", u(asg))
	}
}

func TestMILPBeatsOrMatchesGreedy(t *testing.T) {
	// On a 5-node line with limited cores, the MILP should spread load at
	// least as well as the greedy (lower or equal max utilization).
	top := Line(5, 2, 1e9, 0.001)
	flows := make([]Flow, 4)
	for i := range flows {
		flows[i] = Flow{Ingress: 0, Egress: 4, Chain: []Service{1, 3}, BandwidthBps: 2e8}
	}
	g, err := SolveGreedy(top, flows, testSpec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := SolveMILP(top, flows, testSpec, MILPOptions{TimeLimit: 60 * time.Second, SlackHops: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumAccepted() < g.NumAccepted() {
		t.Fatalf("MILP accepted %d < greedy %d", m.NumAccepted(), g.NumAccepted())
	}
	if m.NumAccepted() == g.NumAccepted() && u(m) > u(g)+1e-6 {
		t.Fatalf("MILP U=%v worse than greedy U=%v", u(m), u(g))
	}
}

func TestMILPRespectsCoreCapacity(t *testing.T) {
	// 1 core per node, service needs 1 core per flow: 2 flows through a
	// 3-node line need 2 service placements each -> must use distinct
	// nodes; a third flow is infeasible.
	top := Line(3, 1, 1e9, 0.001)
	spec := Spec{FlowsPerCore: map[Service]int{1: 1}}
	flows := []Flow{
		{Ingress: 0, Egress: 2, Chain: []Service{1}, BandwidthBps: 1e6},
		{Ingress: 0, Egress: 2, Chain: []Service{1}, BandwidthBps: 1e6},
		{Ingress: 0, Egress: 2, Chain: []Service{1}, BandwidthBps: 1e6},
		{Ingress: 0, Egress: 2, Chain: []Service{1}, BandwidthBps: 1e6},
	}
	_, err := SolveMILP(top, flows, spec, MILPOptions{TimeLimit: 30 * time.Second})
	if err == nil {
		t.Fatal("4 single-core flows on 3 cores should be infeasible")
	}
	// 3 flows fit exactly.
	asg, err := SolveMILP(top, flows[:3], spec, MILPOptions{TimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if asg.NumAccepted() != 3 {
		t.Fatalf("accepted %d of 3", asg.NumAccepted())
	}
	// All three nodes must host exactly one instance.
	total := 0
	for _, m := range asg.Instances {
		for _, c := range m {
			total += c
		}
	}
	if total != 3 {
		t.Fatalf("instances = %d, want 3", total)
	}
}

func TestDivisionHeuristic(t *testing.T) {
	top := Line(4, 2, 1e9, 0.001)
	flows := lineFlows(4, []Service{1, 2}, 1e8)
	asg, err := SolveDivision(top, flows, testSpec, DivisionOptions{
		BatchSize: 2,
		MILP:      MILPOptions{TimeLimit: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if asg.NumAccepted() != 4 {
		t.Fatalf("accepted %d of 4", asg.NumAccepted())
	}
	if u(asg) > 1+1e-9 {
		t.Fatalf("U = %v", u(asg))
	}
}

func TestDelayBound(t *testing.T) {
	// A flow whose delay budget cannot be met must be infeasible.
	top := Line(4, 2, 1e9, 0.010) // 10 ms per hop, 3 hops minimum
	flows := []Flow{{
		Ingress: 0, Egress: 3, Chain: []Service{1},
		BandwidthBps: 1e6, MaxDelaySec: 0.015, // < 30 ms needed
	}}
	if _, err := SolveMILP(top, flows, testSpec, MILPOptions{TimeLimit: 15 * time.Second}); err == nil {
		t.Fatal("delay-infeasible flow accepted")
	}
	flows[0].MaxDelaySec = 0.050
	if _, err := SolveMILP(top, flows, testSpec, MILPOptions{TimeLimit: 15 * time.Second}); err != nil {
		t.Fatalf("feasible delay rejected: %v", err)
	}
}

func TestValidateFlows(t *testing.T) {
	top := Line(2, 1, 1e9, 0.001)
	flows := []Flow{{Ingress: 0, Egress: 1, Chain: []Service{99}}}
	if _, err := SolveGreedy(top, flows, testSpec); err == nil {
		t.Fatal("unknown service should error")
	}
	if _, err := SolveMILP(top, flows, testSpec, MILPOptions{}); err == nil {
		t.Fatal("unknown service should error")
	}
}
