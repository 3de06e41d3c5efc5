package app

import (
	"context"
	"errors"
	"testing"

	"sdnfv/internal/control"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
)

func testGraph(t *testing.T, name string) *graph.Graph {
	t.Helper()
	g, err := graph.Chain(name,
		graph.Vertex{Service: 10, Name: "fw", ReadOnly: true},
		graph.Vertex{Service: 11, Name: "mon", ReadOnly: false},
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testKey() packet.FlowKey {
	return packet.FlowKey{
		SrcIP: packet.IPv4(10, 0, 0, 1), DstIP: packet.IPv4(10, 0, 0, 2),
		SrcPort: 1000, DstPort: 80, Proto: packet.ProtoUDP,
	}
}

func TestRegisterAndDefaultGraph(t *testing.T) {
	a := New(Config{IngressPort: 0, EgressPort: 1})
	if err := a.RegisterGraph(testGraph(t, "g1")); err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterGraph(testGraph(t, "g1")); !errors.Is(err, ErrDuplicateGraph) {
		t.Fatalf("dup: %v", err)
	}
	g, err := a.Graph("")
	if err != nil || g.Name != "g1" {
		t.Fatalf("default graph = %v err=%v", g, err)
	}
	if _, err := a.Graph("nope"); !errors.Is(err, ErrNoGraph) {
		t.Fatalf("unknown: %v", err)
	}
}

func TestRegisterRejectsInvalidGraph(t *testing.T) {
	a := New(Config{})
	bad := graph.New("bad")
	_ = bad.AddVertex(graph.Vertex{Service: 5})
	_ = bad.AddEdge(graph.Source, 5, true)
	// 5 has no default to sink -> invalid.
	if err := a.RegisterGraph(bad); !errors.Is(err, ErrGraphInvalid) {
		t.Fatalf("err = %v", err)
	}
}

func TestCompileRulesWildcardAndExact(t *testing.T) {
	a := New(Config{IngressPort: 0, EgressPort: 1})
	_ = a.RegisterGraph(testGraph(t, "g1"))
	rules, err := a.CompileRules(flowtable.Port(0), testKey(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if r.Match.Specificity() != 0 {
			t.Fatalf("wildcard mode produced specific match: %v", r.Match)
		}
	}
	rules, err = a.CompileRules(flowtable.Port(0), testKey(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if !r.Match.IsExact() {
			t.Fatalf("exact mode produced wildcard: %v", r.Match)
		}
	}
	// CompileFlow (the control.Northbound surface) honours the
	// configured specialization mode.
	exactApp := New(Config{IngressPort: 0, EgressPort: 1})
	_ = exactApp.RegisterGraph(testGraph(t, "g1"))
	rules, err = exactApp.CompileFlow(context.Background(), 0, flowtable.Port(0), testKey())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if !r.Match.IsExact() {
			t.Fatalf("default mode should compile exact rules: %v", r.Match)
		}
	}
}

func TestSelectorPicksGraph(t *testing.T) {
	sel := func(scope flowtable.ServiceID, key packet.FlowKey) string {
		if key.DstPort == 80 {
			return "web"
		}
		return "other"
	}
	a := New(Config{Selector: sel})
	web, _ := graph.Chain("web", graph.Vertex{Service: 20})
	other, _ := graph.Chain("other", graph.Vertex{Service: 30})
	_ = a.RegisterGraph(web)
	_ = a.RegisterGraph(other)
	rules, err := a.CompileRules(flowtable.Port(0), testKey(), false)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rules {
		for _, act := range r.Actions {
			if act == flowtable.Forward(20) {
				found = true
			}
			if act == flowtable.Forward(30) {
				t.Fatal("selector picked the wrong graph")
			}
		}
	}
	if !found {
		t.Fatal("web graph not compiled")
	}
}

func TestMessageValidation(t *testing.T) {
	a := New(Config{})
	_ = a.RegisterGraph(testGraph(t, "g1")) // edges: src->10->11->sink
	ctx := context.Background()

	// ChangeDefault along an existing edge: accepted.
	if err := a.HandleNFMessage(ctx, 0, 10, nf.Message{Kind: nf.MsgChangeDefault, S: 10, T: 11}); err != nil {
		t.Fatalf("valid ChangeDefault rejected: %v", err)
	}
	// ChangeDefault along a non-edge: rejected with the typed sentinel.
	if err := a.HandleNFMessage(ctx, 0, 10, nf.Message{Kind: nf.MsgChangeDefault, S: 11, T: 10}); !errors.Is(err, control.ErrRejected) {
		t.Fatalf("reverse edge: %v", err)
	}
	// ChangeDefault to an egress port: legal iff the service may exit
	// the graph (11 -> sink exists; 10 -> sink does not).
	if err := a.HandleNFMessage(ctx, 0, 11, nf.Message{Kind: nf.MsgChangeDefault, S: 11, T: flowtable.Port(1)}); err != nil {
		t.Fatalf("egress reroute rejected: %v", err)
	}
	if err := a.HandleNFMessage(ctx, 0, 10, nf.Message{Kind: nf.MsgChangeDefault, S: 10, T: flowtable.Port(1)}); !errors.Is(err, control.ErrRejected) {
		t.Fatalf("non-egress service rerouted to port: %v", err)
	}
	// SkipMe for a known service: accepted.
	if err := a.HandleNFMessage(ctx, 0, 11, nf.Message{Kind: nf.MsgSkipMe, S: 11}); err != nil {
		t.Fatalf("valid SkipMe rejected: %v", err)
	}
	// RequestMe for an unknown service: rejected.
	if err := a.HandleNFMessage(ctx, 0, 99, nf.Message{Kind: nf.MsgRequestMe, S: 99}); !errors.Is(err, control.ErrRejected) {
		t.Fatalf("unknown service: %v", err)
	}
	// Data messages always pass and update the policy store.
	if err := a.HandleNFMessage(ctx, 0, 10, nf.Message{Kind: nf.MsgData, Key: "alarm", Value: "on"}); err != nil {
		t.Fatalf("data message rejected: %v", err)
	}
	if v, ok := a.Policy("alarm"); !ok || v != "on" {
		t.Fatalf("policy = %v %v", v, ok)
	}
	log := a.Messages()
	if len(log) != 7 {
		t.Fatalf("log = %d entries", len(log))
	}
	accepted := 0
	for _, e := range log {
		if e.Accepted {
			accepted++
		}
	}
	if accepted != 4 {
		t.Fatalf("accepted = %d", accepted)
	}
}

func TestTrustedNFsSkipValidation(t *testing.T) {
	a := New(Config{TrustNFs: true})
	if err := a.HandleNFMessage(context.Background(), 0, 99, nf.Message{Kind: nf.MsgChangeDefault, S: 1, T: 2}); err != nil {
		t.Fatalf("trusted message rejected: %v", err)
	}
}

func TestStructurallyInvalidMessageRejected(t *testing.T) {
	// Even with trusted NFs, per-variant validation still applies: an
	// AppData with no key is malformed, not merely unauthorized.
	a := New(Config{TrustNFs: true})
	if err := a.HandleNFMessage(context.Background(), 0, 1, nf.Message{Kind: nf.MsgData}); !errors.Is(err, control.ErrRejected) {
		t.Fatalf("invalid message: %v", err)
	}
}

func TestSubscribe(t *testing.T) {
	a := New(Config{TrustNFs: true})
	var got []nf.Message
	a.Subscribe(func(_ control.DatapathID, _ flowtable.ServiceID, m nf.Message) { got = append(got, m) })
	_ = a.HandleNFMessage(context.Background(), 0, 1, nf.Message{Kind: nf.MsgData, Key: "k"})
	if len(got) != 1 {
		t.Fatal("listener not invoked")
	}
}
