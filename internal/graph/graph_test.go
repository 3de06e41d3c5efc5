package graph

import (
	"errors"
	"slices"
	"testing"

	"sdnfv/internal/flowtable"
)

const (
	sA flowtable.ServiceID = 1
	sB flowtable.ServiceID = 2
	sC flowtable.ServiceID = 3
	sD flowtable.ServiceID = 4
)

func chainOf(t *testing.T, ro ...bool) *Graph {
	t.Helper()
	vs := make([]Vertex, len(ro))
	for i, r := range ro {
		vs[i] = Vertex{Service: flowtable.ServiceID(i + 1), ReadOnly: r}
	}
	g, err := Chain("chain", vs...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestChainValidates(t *testing.T) {
	g := chainOf(t, false, false, false)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	var path []flowtable.ServiceID
	for s, ok := g.DefaultNext(Source); ok && s != Sink; s, ok = g.DefaultNext(s) {
		path = append(path, s)
	}
	if len(path) != 3 || path[0] != sA || path[2] != sC {
		t.Fatalf("default path = %v", path)
	}
}

func TestValidationErrors(t *testing.T) {
	g := New("bad")
	_ = g.AddVertex(Vertex{Service: sA})
	_ = g.AddEdge(Source, sA, true)
	// sA has no default edge to sink.
	if err := g.Validate(); !errors.Is(err, ErrNoDefault) {
		t.Fatalf("want ErrNoDefault, got %v", err)
	}
	_ = g.AddEdge(sA, Sink, true)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Unreachable vertex.
	_ = g.AddVertex(Vertex{Service: sB})
	_ = g.AddEdge(sB, Sink, true)
	if err := g.Validate(); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
}

func TestCycleDetection(t *testing.T) {
	g := New("cyclic")
	_ = g.AddVertex(Vertex{Service: sA})
	_ = g.AddVertex(Vertex{Service: sB})
	_ = g.AddEdge(Source, sA, true)
	_ = g.AddEdge(sA, sB, true)
	_ = g.AddEdge(sB, sA, true)
	if err := g.Validate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("want ErrCycle, got %v", err)
	}
}

func TestMultipleDefaults(t *testing.T) {
	g := New("multi")
	_ = g.AddVertex(Vertex{Service: sA})
	_ = g.AddEdge(Source, sA, true)
	_ = g.AddEdge(sA, Sink, true)
	_ = g.AddVertex(Vertex{Service: sB})
	_ = g.AddEdge(sA, sB, true) // second default from sA
	_ = g.AddEdge(sB, Sink, true)
	if err := g.Validate(); !errors.Is(err, ErrMultipleDefault) {
		t.Fatalf("want ErrMultipleDefault, got %v", err)
	}
}

func TestDuplicates(t *testing.T) {
	g := New("dup")
	if err := g.AddVertex(Vertex{Service: sA}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddVertex(Vertex{Service: sA}); !errors.Is(err, ErrDuplicateVertex) {
		t.Fatalf("want ErrDuplicateVertex, got %v", err)
	}
	if err := g.AddVertex(Vertex{Service: Source}); !errors.Is(err, ErrDuplicateVertex) {
		t.Fatal("reserved id accepted")
	}
	_ = g.AddEdge(Source, sA, true)
	if err := g.AddEdge(Source, sA, false); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("want ErrDuplicateEdge, got %v", err)
	}
	if err := g.AddEdge(sA, 99, true); !errors.Is(err, ErrUnknownVertex) {
		t.Fatalf("want ErrUnknownVertex, got %v", err)
	}
}

func TestParallelSegmentDetection(t *testing.T) {
	// fw(ro) -> ids(ro) -> ddos(ro) -> scrub(rw): the read-only run
	// [fw ids ddos]… fw is head only if the whole run qualifies; the
	// paper's example pairs DDoS and IDS.
	g := chainOf(t, true, true, true, false)
	segs := g.ParallelSegments()
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	if len(segs[0].Members) != 3 || segs[0].Next != sD {
		t.Fatalf("segment = %+v", segs[0])
	}
}

func TestParallelSegmentsRespectWriters(t *testing.T) {
	g := chainOf(t, true, false, true, true)
	segs := g.ParallelSegments()
	// sA alone can't parallelize (run length 1); sC+sD can.
	if len(segs) != 1 || len(segs[0].Members) != 2 || segs[0].Members[0] != sC {
		t.Fatalf("segments = %+v", segs)
	}
	if segs[0].Next != Sink {
		t.Fatalf("next = %v", segs[0].Next)
	}
}

func TestParallelSegmentsBranchingBlocks(t *testing.T) {
	// A read-only vertex with two out-edges cannot join a segment.
	g := New("branch")
	_ = g.AddVertex(Vertex{Service: sA, ReadOnly: true})
	_ = g.AddVertex(Vertex{Service: sB, ReadOnly: true})
	_ = g.AddEdge(Source, sA, true)
	_ = g.AddEdge(sA, sB, true)
	_ = g.AddEdge(sA, Sink, false) // alternative edge
	_ = g.AddEdge(sB, Sink, true)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if segs := g.ParallelSegments(); len(segs) != 0 {
		t.Fatalf("branching vertex joined a segment: %v", segs)
	}
}

func TestRulesSequential(t *testing.T) {
	g := chainOf(t, false, false)
	rules, err := g.Rules(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	byScope := map[flowtable.ServiceID]flowtable.Rule{}
	for _, r := range rules {
		byScope[r.Scope] = r
	}
	if d, _ := byScope[flowtable.Port(0)].Default(); d != flowtable.Forward(sA) {
		t.Fatalf("ingress rule: %v", d)
	}
	if d, _ := byScope[sA].Default(); d != flowtable.Forward(sB) {
		t.Fatalf("sA rule: %v", d)
	}
	if d, _ := byScope[sB].Default(); d != flowtable.Out(1) {
		t.Fatalf("sB rule: %v", d)
	}
}

func TestRulesParallel(t *testing.T) {
	g := chainOf(t, true, true)
	rules, err := g.Rules(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var entry *flowtable.Rule
	exits := 0
	for i := range rules {
		r := rules[i]
		if r.Scope == flowtable.Port(0) {
			entry = &rules[i]
		}
		if r.Scope == sA || r.Scope == sB {
			if d, _ := r.Default(); d != flowtable.Out(1) {
				t.Fatalf("member exit rule: %v", d)
			}
			exits++
		}
	}
	if entry == nil || !entry.Parallel || len(entry.Actions) != 2 {
		t.Fatalf("entry rule = %+v", entry)
	}
	if exits != 2 {
		t.Fatalf("exits = %d", exits)
	}
}

func TestRulesAlternativesListed(t *testing.T) {
	// sA has default to sB and an alternative straight to sink.
	g := New("alt")
	_ = g.AddVertex(Vertex{Service: sA})
	_ = g.AddVertex(Vertex{Service: sB})
	_ = g.AddEdge(Source, sA, true)
	_ = g.AddEdge(sA, sB, true)
	_ = g.AddEdge(sA, Sink, false)
	_ = g.AddEdge(sB, Sink, true)
	rules, err := g.Rules(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if r.Scope == sA {
			if len(r.Actions) != 2 {
				t.Fatalf("sA actions = %v", r.Actions)
			}
			if d, _ := r.Default(); d != flowtable.Forward(sB) {
				t.Fatalf("default must be first: %v", r.Actions)
			}
			if !r.Allows(flowtable.Out(1)) {
				t.Fatal("alternative missing")
			}
		}
	}
}

// TestOutDefaultFirst pins Out's order for a vertex whose default edge
// is added after its alternatives: the default leads, the alternatives
// follow in insertion order, and Out hands out the stored edges without
// copying them. Every edit bumps the generation; a refused one does not.
func TestOutDefaultFirst(t *testing.T) {
	g := New("late-default")
	gen := g.Generation()
	for _, v := range []flowtable.ServiceID{sA, sB, sC, sD} {
		if err := g.AddVertex(Vertex{Service: v}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []Edge{{Source, sA, true}, {sA, sC, false}, {sA, Sink, false}, {sA, sD, false}, {sA, sB, true}} {
		if err := g.AddEdge(e.From, e.To, e.Default); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.Generation() - gen; got != 9 {
		t.Fatalf("generation advanced by %d over 9 edits", got)
	}
	if g.AddEdge(sA, sB, false) == nil || g.AddVertex(Vertex{Service: sA}) == nil || g.Generation()-gen != 9 {
		t.Fatal("refused edits must be refused and leave the generation alone")
	}
	want := []Edge{{sA, sB, true}, {sA, sC, false}, {sA, Sink, false}, {sA, sD, false}}
	out := g.Out(sA)
	if !slices.Equal(out, want) {
		t.Fatalf("Out = %v, want %v", out, want)
	}
	if allocs := testing.AllocsPerRun(10, func() { out = g.Out(sA) }); allocs != 0 {
		t.Fatalf("Out allocates %v per call", allocs)
	}
}

func TestRulesDeterministic(t *testing.T) {
	g := chainOf(t, true, true, false)
	a, _ := g.Rules(0, 1)
	for i := 0; i < 10; i++ {
		b, _ := g.Rules(0, 1)
		if len(a) != len(b) {
			t.Fatal("rule count varies")
		}
		for j := range a {
			if a[j].Scope != b[j].Scope || a[j].Parallel != b[j].Parallel ||
				len(a[j].Actions) != len(b[j].Actions) {
				t.Fatalf("rules vary across compilations: %v vs %v", a[j], b[j])
			}
		}
	}
}

func TestStringRendering(t *testing.T) {
	g := chainOf(t, false)
	if s := g.String(); s == "" {
		t.Fatal("empty String()")
	}
	if _, ok := g.Vertex(sA); !ok {
		t.Fatal("vertex lookup failed")
	}
	if vs := g.Vertices(); len(vs) != 1 {
		t.Fatalf("vertices = %v", vs)
	}
	if es := g.in[Sink]; len(es) != 1 {
		t.Fatalf("edges into Sink = %v", es)
	}
}
