package placement

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestLineShortestPath(t *testing.T) {
	l := Line(5, 2, 1e9, 0.001)
	path, d, ok := l.ShortestPath(0, 4)
	if !ok {
		t.Fatal("unreachable")
	}
	if len(path) != 5 || path[0] != 0 || path[4] != 4 {
		t.Fatalf("path = %v", path)
	}
	if math.Abs(d-0.004) > 1e-12 {
		t.Fatalf("delay = %v, want 0.004", d)
	}
}

func TestStarShortestPath(t *testing.T) {
	// Hub-and-spoke: node 0 is the hub.
	s := NewTopology(6, 2)
	for i := 1; i < 6; i++ {
		s.AddLink(0, NodeID(i), 1e9, 0.002)
	}
	path, d, ok := s.ShortestPath(1, 5)
	if !ok || len(path) != 3 || path[1] != 0 {
		t.Fatalf("path=%v ok=%v", path, ok)
	}
	if math.Abs(d-0.004) > 1e-12 {
		t.Fatalf("delay = %v", d)
	}
}

func TestShortestPathSameNode(t *testing.T) {
	l := Line(3, 1, 1e9, 0.001)
	path, d, ok := l.ShortestPath(1, 1)
	if !ok || len(path) != 1 || path[0] != 1 || d != 0 {
		t.Fatalf("path=%v d=%v ok=%v", path, d, ok)
	}
}

func TestUnreachable(t *testing.T) {
	tt := NewTopology(3, 1)
	tt.AddLink(0, 1, 1e9, 0.001)
	if _, _, ok := tt.ShortestPath(0, 2); ok {
		t.Fatal("node 2 should be unreachable")
	}
	d := tt.HopDistances(0)
	if d[2] != -1 || d[1] != 1 || d[0] != 0 {
		t.Fatalf("hop distances = %v", d)
	}
}

func TestRocketfuel22Shape(t *testing.T) {
	r := Rocketfuel22(1, 1e9, 0.001)
	if r.N() != 22 {
		t.Fatalf("N = %d, want 22", r.N())
	}
	if r.NumEdges() != 64 {
		t.Fatalf("edges = %d, want 64", r.NumEdges())
	}
	// Connected: all reachable from 0.
	d := r.HopDistances(0)
	for i, h := range d {
		if h < 0 {
			t.Fatalf("node %d unreachable", i)
		}
	}
	// Deterministic for a fixed seed.
	r2 := Rocketfuel22(1, 1e9, 0.001)
	for i := 0; i < r.N(); i++ {
		if len(r.Neighbors(NodeID(i))) != len(r2.Neighbors(NodeID(i))) {
			t.Fatal("topology not deterministic under fixed seed")
		}
	}
	// Every node has 2 cores per the paper's setup.
	for i := 0; i < r.N(); i++ {
		if r.Cores(NodeID(i)) != 2 {
			t.Fatalf("node %d cores = %d", i, r.Cores(NodeID(i)))
		}
	}
}

// TestRocketfuel22Deterministic requires full structural identity under
// a fixed seed — node count, cores, and the exact edge set with
// capacities and delays — not merely matching degree counts.
func TestRocketfuel22Deterministic(t *testing.T) {
	a := Rocketfuel22(7, 1e9, 0.001)
	b := Rocketfuel22(7, 1e9, 0.001)
	if a.N() != b.N() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", a.N(), a.NumEdges(), b.N(), b.NumEdges())
	}
	if edgeSig(a) != edgeSig(b) {
		t.Fatal("same seed produced different topologies")
	}
	for i := 0; i < a.N(); i++ {
		if a.Cores(NodeID(i)) != b.Cores(NodeID(i)) {
			t.Fatalf("node %d cores differ", i)
		}
	}
	// A different seed rewires the preferential-attachment tail.
	c := Rocketfuel22(8, 1e9, 0.001)
	if edgeSig(a) == edgeSig(c) {
		t.Fatal("different seeds produced identical topologies")
	}
}

// edgeSig renders the full adjacency (ordered neighbor lists with
// capacity and delay) as a comparable string.
func edgeSig(t *Topology) string {
	var b strings.Builder
	for i := 0; i < t.N(); i++ {
		fmt.Fprintf(&b, "%d:", i)
		for _, e := range t.Neighbors(NodeID(i)) {
			fmt.Fprintf(&b, " %d/%g/%g", e.To, e.CapBps, e.DelaySec)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
