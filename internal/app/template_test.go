package app

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sdnfv/internal/control"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/packet"
)

// refStamp is the reference for stamp: a copy of rules, each matching
// key's exact 5-tuple when exact is set.
func refStamp(rules []flowtable.Rule, key packet.FlowKey, exact bool) []flowtable.Rule {
	out := make([]flowtable.Rule, len(rules))
	for i, r := range rules {
		if exact {
			r.Match = flowtable.ExactMatch(key)
		}
		out[i] = r
	}
	return out
}

func randKey(rng *rand.Rand) packet.FlowKey {
	return packet.FlowKey{
		SrcIP: packet.IP(rng.Uint32()), DstIP: packet.IP(rng.Uint32()),
		SrcPort: uint16(rng.Intn(1 << 16)), DstPort: uint16(rng.Intn(1 << 16)), Proto: uint8(rng.Intn(256)),
	}
}

// editGraph applies one random edit to g and returns the vertex it
// added, if any. Most edits splice a new vertex in after a random one,
// on a non-default edge to it and the old default successor as its own
// default, which keeps g valid; the rest add an arbitrary edge, which
// may leave g invalid (a second default, a cycle).
func editGraph(rng *rand.Rand, g *graph.Graph, next *flowtable.ServiceID) (flowtable.ServiceID, bool) {
	ids := []flowtable.ServiceID{graph.Source}
	for _, v := range g.Vertices() {
		ids = append(ids, v.Service)
	}
	u := ids[rng.Intn(len(ids))]
	if rng.Intn(8) == 0 {
		_ = g.AddEdge(u, append(ids, graph.Sink)[rng.Intn(len(ids)+1)], rng.Intn(2) == 0)
		return 0, false
	}
	succ, ok := g.DefaultNext(u)
	if !ok {
		return 0, false
	}
	v := *next
	*next++
	if g.AddVertex(graph.Vertex{Service: v, ReadOnly: rng.Intn(2) == 0}) != nil ||
		g.AddEdge(u, v, false) != nil || g.AddEdge(v, succ, true) != nil {
		panic("splice edit failed")
	}
	return v, true
}

// TestCompileCacheMatchesFreshCompile is a seeded differential test of
// the rule templates: after every random graph edit, and across
// repeated compiles with no edit between them, CompileFlow answers
// exactly what a fresh compile of the graph, stamped by the reference,
// answers, in exact and wildcard mode. A graph an edit made invalid
// fails in both. Single-host compiles go through graph.Rules;
// deployment compiles through Deployment.Compile, with the deployment
// reinstalled after each edit.
func TestCompileCacheMatchesFreshCompile(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 25; seed++ {
		for _, wildcard := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			next := flowtable.ServiceID(20)
			t.Run(fmt.Sprintf("single/seed%d/wildcard=%v", seed, wildcard), func(t *testing.T) {
				g := testGraph(t, "g")
				a := New(Config{IngressPort: 3, EgressPort: 4, WildcardRules: wildcard})
				if err := a.RegisterGraph(g); err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 30; step++ {
					key := randKey(rng)
					got, err := a.CompileFlow(ctx, 0, flowtable.Port(3), key)
					fresh, freshErr := g.Rules(3, 4)
					if (err != nil) != (freshErr != nil) {
						t.Fatalf("step %d: cached err %v, fresh err %v", step, err, freshErr)
					}
					if want := refStamp(fresh, key, !wildcard); err == nil && !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: cached %v\nfresh %v", step, got, want)
					}
					if len(got) > 0 {
						// The answer is the caller's: scribbling on it
						// must not reach the next compile.
						got[0].Match, got[0].Priority = flowtable.MatchSrcIP(1), 99
					}
					if rng.Intn(2) == 0 {
						editGraph(rng, g, &next)
					}
				}
			})

			rng = rand.New(rand.NewSource(seed))
			next = 20
			t.Run(fmt.Sprintf("deployment/seed%d/wildcard=%v", seed, wildcard), func(t *testing.T) {
				a := New(Config{WildcardRules: wildcard})
				chans := map[HostPair][]Channel{}
				for _, pair := range []HostPair{{dpA, dpB}, {dpB, dpA}} {
					for i := 0; i < 64; i++ {
						chans[pair] = append(chans[pair], Channel{Out: 10 + 2*i, In: 11 + 2*i})
					}
				}
				copyOf := func(d *Deployment) *Deployment {
					c := *d
					c.Assign = make(map[flowtable.ServiceID]control.DatapathID)
					for s, dp := range d.Assign {
						c.Assign[s] = dp
					}
					c.Channels = chans
					return &c
				}
				d := copyOf(testDeployment(t))
				if _, err := a.SetDeployment(d); err != nil {
					t.Fatal(err)
				}
				ref, err := copyOf(d).Compile()
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 30; step++ {
					key := randKey(rng)
					for _, dp := range []control.DatapathID{dpA, dpB} {
						got, err := a.CompileFlow(ctx, dp, flowtable.Port(0), key)
						if err != nil {
							t.Fatalf("step %d %s: %v", step, dp, err)
						}
						if want := refStamp(ref[dp], key, !wildcard); !reflect.DeepEqual(got, want) {
							t.Fatalf("step %d %s: cached %v\nfresh %v", step, dp, got, want)
						}
						got[0].Match, got[0].Priority = flowtable.MatchSrcIP(1), 99
					}
					if rng.Intn(2) == 0 {
						continue
					}
					nd := copyOf(d)
					if v, ok := editGraph(rng, d.Graph, &next); ok {
						nd.Assign[v] = []control.DatapathID{dpA, dpB}[rng.Intn(2)]
					}
					if _, err := a.SetDeployment(nd); err != nil {
						continue // the installed deployment and ref stand
					}
					d = nd
					if ref, err = copyOf(d).Compile(); err != nil {
						t.Fatalf("step %d: accepted deployment fails a fresh compile: %v", step, err)
					}
				}
			})
		}
	}
}

// TestCompileFlowConcurrent has several goroutines compile flows across
// three graphs at once, as controller workers do, each answer checked
// against a fresh compile; run under -race it covers the template
// cache's locking.
func TestCompileFlowConcurrent(t *testing.T) {
	names := []string{"g0", "g1", "g2"}
	a := New(Config{
		IngressPort: 0, EgressPort: 1,
		Selector: func(_ flowtable.ServiceID, k packet.FlowKey) string { return names[int(k.SrcPort)%len(names)] },
	})
	want := map[string][]flowtable.Rule{}
	for i, name := range names {
		vs := []graph.Vertex{{Service: 10, ReadOnly: true}, {Service: 11, ReadOnly: i > 0}, {Service: 12}}
		g, err := graph.Chain(name, vs[:i+1]...)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.RegisterGraph(g); err != nil {
			t.Fatal(err)
		}
		if want[name], err = g.Rules(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				key := randKey(rng)
				got, err := a.CompileFlow(context.Background(), 0, flowtable.Port(0), key)
				if exp := refStamp(want[names[int(key.SrcPort)%len(names)]], key, true); err != nil || !reflect.DeepEqual(got, exp) {
					t.Errorf("worker %d: got %v, %v; want %v", w, got, err, exp)
					return
				}
			}
		}()
	}
	wg.Wait()
}
