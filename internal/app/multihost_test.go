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

const (
	dpA control.DatapathID  = 1
	dpB control.DatapathID  = 2
	s1  flowtable.ServiceID = 10
	s2  flowtable.ServiceID = 11
	s3  flowtable.ServiceID = 12
)

// deployGraph: src -> s1 -> s2 -> sink, with the alternative edge
// s1 -> s3 -> sink. s1,s3 on host A; s2 on host B.
func deployGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("dep")
	for _, v := range []graph.Vertex{{Service: s1}, {Service: s2}, {Service: s3}} {
		if err := g.AddVertex(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []struct {
		from, to flowtable.ServiceID
		def      bool
	}{
		{graph.Source, s1, true},
		{s1, s2, true},
		{s1, s3, false},
		{s2, graph.Sink, true},
		{s3, graph.Sink, true},
	} {
		if err := g.AddEdge(e.from, e.to, e.def); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func testDeployment(t *testing.T) *Deployment {
	t.Helper()
	return &Deployment{
		Graph:   deployGraph(t),
		Assign:  map[flowtable.ServiceID]control.DatapathID{s1: dpA, s2: dpB, s3: dpA},
		Ingress: dpA, IngressPort: 0, EgressPort: 1,
		Channels: map[HostPair][]Channel{
			{Src: dpA, Dst: dpB}: {{Out: 2, In: 2}},
		},
	}
}

// findRule returns the rule at scope in rules, failing on absence.
func findRule(t *testing.T, rules []flowtable.Rule, scope flowtable.ServiceID) flowtable.Rule {
	t.Helper()
	for _, r := range rules {
		if r.Scope == scope {
			return r
		}
	}
	t.Fatalf("no rule at scope %s in %v", scope, rules)
	return flowtable.Rule{}
}

func TestDeploymentCompile(t *testing.T) {
	d := testDeployment(t)
	tables, err := d.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables for %d hosts", len(tables))
	}
	a, b := tables[dpA], tables[dpB]

	// Host A: ingress rule forwards to the local s1.
	ing := findRule(t, a, flowtable.Port(0))
	if def, _ := ing.Default(); def != flowtable.Forward(s1) {
		t.Fatalf("ingress default = %v", def)
	}
	// s1's rule: default crosses to host B via the channel's out port;
	// the alternative stays local.
	r1 := findRule(t, a, s1)
	if def, _ := r1.Default(); def != flowtable.Out(2) {
		t.Fatalf("s1 default = %v (want link egress)", def)
	}
	if !r1.Allows(flowtable.Forward(s3)) {
		t.Fatalf("s1 lost its local alternative: %v", r1.Actions)
	}
	// s3 exits locally.
	r3 := findRule(t, a, s3)
	if def, _ := r3.Default(); def != flowtable.Out(1) {
		t.Fatalf("s3 default = %v", def)
	}

	// Host B: the channel's ingress rule resumes the chain at s2's
	// scope; s2 then exits on B's egress port.
	ingB := findRule(t, b, flowtable.Port(2))
	if def, _ := ingB.Default(); def != flowtable.Forward(s2) {
		t.Fatalf("B ingress default = %v", def)
	}
	r2 := findRule(t, b, s2)
	if def, _ := r2.Default(); def != flowtable.Out(1) {
		t.Fatalf("s2 default = %v", def)
	}
	// No host sees another host's service scopes.
	for _, r := range a {
		if r.Scope == s2 {
			t.Fatal("host A received host B's rule")
		}
	}
	for _, r := range b {
		if r.Scope == s1 || r.Scope == s3 || r.Scope == flowtable.Port(0) {
			t.Fatalf("host B received host A's rule at %s", r.Scope)
		}
	}
}

func TestDeploymentCompileErrors(t *testing.T) {
	// Unassigned service.
	d := testDeployment(t)
	delete(d.Assign, s2)
	if _, err := d.Compile(); !errors.Is(err, ErrUnassigned) {
		t.Fatalf("unassigned: %v", err)
	}
	// Not enough channels for the crossing edges.
	d = testDeployment(t)
	d.Channels = nil
	if _, err := d.Compile(); !errors.Is(err, ErrNoChannel) {
		t.Fatalf("no channels: %v", err)
	}
}

func TestCompileFlowScopedPerDatapath(t *testing.T) {
	a := New(Config{WildcardRules: true})
	if err := a.RegisterGraph(deployGraph(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SetDeployment(testDeployment(t)); err != nil {
		t.Fatal(err)
	}
	key := packet.FlowKey{SrcIP: packet.IPv4(10, 0, 0, 1), DstIP: packet.IPv4(10, 0, 0, 2),
		SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP}

	rulesA, err := a.CompileFlow(context.Background(), dpA, flowtable.Port(0), key)
	if err != nil {
		t.Fatal(err)
	}
	rulesB, err := a.CompileFlow(context.Background(), dpB, flowtable.Port(2), key)
	if err != nil {
		t.Fatal(err)
	}
	findRule(t, rulesA, s1)
	findRule(t, rulesB, s2)
	for _, r := range rulesB {
		if r.Scope == s1 {
			t.Fatal("host B compiled host A's scope")
		}
	}
	// Unknown datapath is refused.
	if _, err := a.CompileFlow(context.Background(), 99, flowtable.Port(0), key); !errors.Is(err, ErrUnknownDatapath) {
		t.Fatalf("unknown dp: %v", err)
	}

	// Per-flow mode specializes the deployed rules to the 5-tuple.
	ex := New(Config{})
	if err := ex.RegisterGraph(deployGraph(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.SetDeployment(testDeployment(t)); err != nil {
		t.Fatal(err)
	}
	exact, err := ex.CompileFlow(context.Background(), dpA, flowtable.Port(0), key)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range exact {
		if !r.Match.IsExact() {
			t.Fatalf("deployment per-flow mode produced wildcard: %v", r.Match)
		}
	}
}

// recordingDownstream captures translated updates.
type recordingDownstream struct {
	dp    control.DatapathID
	scope flowtable.ServiceID
	def   flowtable.Action
	n     int
	fail  error
}

func (r *recordingDownstream) UpdateDefault(dp control.DatapathID, scope flowtable.ServiceID, _ flowtable.Match, def flowtable.Action) error {
	if r.fail != nil {
		return r.fail
	}
	r.dp, r.scope, r.def = dp, scope, def
	r.n++
	return nil
}

func TestChangeDefaultSteersDeployment(t *testing.T) {
	a := New(Config{WildcardRules: true})
	if err := a.RegisterGraph(deployGraph(t)); err != nil {
		t.Fatal(err)
	}
	d := testDeployment(t)
	if _, err := a.SetDeployment(d); err != nil {
		t.Fatal(err)
	}
	ds := &recordingDownstream{}
	a.SetDownstream(ds)
	ctx := context.Background()

	// Reroute s1's default from the remote s2 to the local s3: the
	// translated action is a plain Forward on host A.
	if err := a.HandleNFMessage(ctx, dpA, s1, nf.Message{Kind: nf.MsgChangeDefault, Flows: flowtable.MatchAll, S: s1, T: s3}); err != nil {
		t.Fatal(err)
	}
	if ds.n != 1 || ds.dp != dpA || ds.scope != s1 || ds.def != flowtable.Forward(s3) {
		t.Fatalf("translated update = %+v", ds)
	}
	// Back to the remote default: translated to the channel egress.
	if err := a.HandleNFMessage(ctx, dpA, s1, nf.Message{Kind: nf.MsgChangeDefault, Flows: flowtable.MatchAll, S: s1, T: s2}); err != nil {
		t.Fatal(err)
	}
	if ds.n != 2 || ds.dp != dpA || ds.def != flowtable.Out(2) {
		t.Fatalf("translated update = %+v", ds)
	}

	// Host attribution: a message claiming to come from a service the
	// placement put elsewhere is rejected before any effect.
	if err := a.HandleNFMessage(ctx, dpB, s1, nf.Message{Kind: nf.MsgChangeDefault, Flows: flowtable.MatchAll, S: s1, T: s3}); !errors.Is(err, control.ErrRejected) {
		t.Fatalf("spoofed host accepted: %v", err)
	}
	if ds.n != 2 {
		t.Fatal("rejected message reached downstream")
	}

	// A reroute the data plane refuses must not be recorded as accepted:
	// the caller sees ErrRejected and the audit log tells the truth.
	ds.fail = errors.New("no rule allows that action")
	if err := a.HandleNFMessage(ctx, dpA, s1, nf.Message{Kind: nf.MsgChangeDefault, Flows: flowtable.MatchAll, S: s1, T: s3}); !errors.Is(err, control.ErrRejected) {
		t.Fatalf("failed steering not surfaced as rejection: %v", err)
	}
	log := a.Messages()
	last := log[len(log)-1]
	if last.Accepted || last.Reason == "" {
		t.Fatalf("failed steering logged as accepted: %+v", last)
	}
}

// chainGraph: src -> s1 -> s2 -> s3 -> sink, all default edges.
func chainGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("chain")
	for _, v := range []graph.Vertex{{Service: s1}, {Service: s2}, {Service: s3}} {
		if err := g.AddVertex(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]flowtable.ServiceID{
		{graph.Source, s1}, {s1, s2}, {s2, s3}, {s3, graph.Sink},
	} {
		if err := g.AddEdge(e[0], e[1], true); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestSetDeploymentReplaces swaps the installed deployment for one
// that moves a service: the returned tables are the new generation's,
// a host left with no service has none, and steering answers track the
// new placement.
func TestSetDeploymentReplaces(t *testing.T) {
	const dpC control.DatapathID = 3
	g := chainGraph(t)
	channels := map[HostPair][]Channel{
		{Src: dpA, Dst: dpB}: {{Out: 2, In: 2}},
		{Src: dpB, Dst: dpC}: {{Out: 3, In: 2}},
	}
	a := New(Config{})
	prev := &Deployment{
		Graph: g, Assign: map[flowtable.ServiceID]control.DatapathID{s1: dpA, s2: dpB, s3: dpC},
		Ingress: dpA, IngressPort: 0, EgressPort: 1, Channels: channels,
	}
	if _, err := a.SetDeployment(prev); err != nil {
		t.Fatal(err)
	}
	next := &Deployment{
		Graph: g, Assign: map[flowtable.ServiceID]control.DatapathID{s1: dpA, s2: dpB, s3: dpB},
		Ingress: dpA, IngressPort: 0, EgressPort: 1, Channels: channels,
	}
	tables, err := a.SetDeployment(next)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tables[dpC]; ok {
		t.Fatal("host C still tabled after losing its only service")
	}
	if len(tables) != 2 || len(tables[dpA]) == 0 || len(tables[dpB]) == 0 {
		t.Fatalf("tables = %v, want rules on A and B only", tables)
	}
	if a.deployment != next {
		t.Fatal("deployment not swapped")
	}
	// Steering answers now track the new generation: s2 -> s3 is local.
	act, err := next.EdgeAction(s2, s3)
	if err != nil {
		t.Fatal(err)
	}
	if act != flowtable.Forward(s3) {
		t.Fatalf("s2->s3 action after move = %v, want local forward", act)
	}

	// A deployment that fails to compile leaves the installed one.
	bad := &Deployment{Graph: g, Assign: map[flowtable.ServiceID]control.DatapathID{s1: dpA},
		Ingress: dpA, Channels: channels}
	if _, err := a.SetDeployment(bad); !errors.Is(err, ErrUnassigned) {
		t.Fatalf("incomplete assignment: %v", err)
	}
	if a.deployment != next {
		t.Fatal("failed compile replaced the installed deployment")
	}
}

// TestSetDeploymentSameAssignmentSteers reinstalls a deployment with the
// same graph and the same assignment: the new generation must still be
// compiled, so a cross-host ChangeDefault finds its channel and reaches
// the source host as Out onto that channel.
func TestSetDeploymentSameAssignmentSteers(t *testing.T) {
	a := New(Config{WildcardRules: true})
	first := testDeployment(t)
	if err := a.RegisterGraph(first.Graph); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SetDeployment(first); err != nil {
		t.Fatal(err)
	}
	again := &Deployment{
		Graph: first.Graph, Assign: first.Assign,
		Ingress: first.Ingress, IngressPort: first.IngressPort, EgressPort: first.EgressPort,
		Channels: first.Channels,
	}
	if _, err := a.SetDeployment(again); err != nil {
		t.Fatal(err)
	}
	ds := &recordingDownstream{}
	a.SetDownstream(ds)
	msg := nf.Message{Kind: nf.MsgChangeDefault, Flows: flowtable.MatchAll, S: s1, T: s2}
	if err := a.HandleNFMessage(context.Background(), dpA, s1, msg); err != nil {
		t.Fatalf("cross-host ChangeDefault after reinstall: %v", err)
	}
	ch := first.Channels[HostPair{Src: dpA, Dst: dpB}][0]
	if ds.n != 1 || ds.dp != dpA || ds.scope != s1 || ds.def != flowtable.Out(ch.Out) {
		t.Fatalf("translated update = %+v, want Out(%d) at %s on %s", ds, ch.Out, s1, dpA)
	}
}
