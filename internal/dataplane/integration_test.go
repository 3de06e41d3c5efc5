package dataplane_test

// Integration tests wiring the full SDNFV control hierarchy in-process:
// SDNFV Application (service graphs, validation) → SDN Controller (rule
// compilation on PACKET_IN) → NF Manager (flow table, Flow Controller
// thread) → NFs (cross-layer messages back up). This is Fig. 2 of the
// paper end to end.

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"sdnfv/internal/app"
	"sdnfv/internal/control"
	"sdnfv/internal/controller"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/nf"
	"sdnfv/internal/nfs"
	"sdnfv/internal/packet"
	"sdnfv/internal/traffic"
)

func waitCond(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestFullHierarchyMissToFlow exercises: empty host table → first packet
// misses → Flow Controller asks the controller → controller compiles the
// app's service graph → rules installed → traffic flows; an NF's
// cross-layer message is validated by the app.
func TestFullHierarchyMissToFlow(t *testing.T) {
	const (
		svcFW  flowtable.ServiceID = 1
		svcMon flowtable.ServiceID = 2
	)
	g, err := graph.Chain("it",
		graph.Vertex{Service: svcFW, Name: "fw", ReadOnly: true},
		graph.Vertex{Service: svcMon, Name: "mon", ReadOnly: false},
	)
	if err != nil {
		t.Fatal(err)
	}
	a := app.New(app.Config{IngressPort: 0, EgressPort: 1})
	if err := a.RegisterGraph(g); err != nil {
		t.Fatal(err)
	}

	ctl := controller.New(controller.Config{})
	ctl.SetNorthbound(a) // App compiles per-flow exact rules by default
	var appMsgs atomic.Int64
	a.Subscribe(func(control.DatapathID, flowtable.ServiceID, nf.Message) { appMsgs.Add(1) })
	ctl.Start()
	defer ctl.Stop()

	cfg := dataplane.Config{
		PoolSize:  512,
		TXThreads: 1,
		// The Flow Controller thread resolves misses through the real
		// controller (in-process southbound backend of the control API).
		Control: ctl.Session(0),
	}
	h := dataplane.NewHost(cfg)
	fw := &nfs.Firewall{DefaultAllow: true}
	counter := &nfs.Counter{}
	if _, err := h.AddNF(svcFW, fw, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddNF(svcMon, counter, 0); err != nil {
		t.Fatal(err)
	}
	var out atomic.Int64
	h.BindDefault(func(int, []byte, *dataplane.Desc) { out.Add(1) })
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	factory := traffic.NewFactory()
	spec := traffic.Flow(1, 256, 0)
	frame, err := factory.Frame(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		for h.Inject(0, frame) != nil {
			time.Sleep(5 * time.Microsecond)
		}
	}
	waitCond(t, func() bool { return out.Load() == n }, "all packets delivered")

	st := h.Stats()
	if st.Misses == 0 {
		t.Fatal("no miss ever reached the controller")
	}
	if counter.Packets() != n {
		t.Fatalf("monitor saw %d, want %d", counter.Packets(), n)
	}
	// Rules are per-flow exact: a second flow misses again.
	spec2 := traffic.Flow(2, 256, 0)
	frame2, _ := factory.Frame(spec2, 0)
	missesBefore := h.Stats().Misses
	for h.Inject(0, frame2) != nil {
		time.Sleep(5 * time.Microsecond)
	}
	waitCond(t, func() bool { return out.Load() == n+1 }, "second flow delivered")
	if h.Stats().Misses <= missesBefore {
		t.Fatal("second flow should have missed (exact rules)")
	}
	cst, _ := ctl.Stats(context.Background())
	if cst.Requests == 0 || cst.FlowMods == 0 {
		t.Fatalf("controller stats = %+v", cst)
	}
}

// TestCrossLayerMessageReachesApp verifies Fig. 2 step 5: an NF emits a
// cross-layer message; the NF Manager applies it locally and forwards it
// via the controller to the SDNFV Application, which validates it against
// the registered graph.
func TestCrossLayerMessageReachesApp(t *testing.T) {
	const (
		svcA flowtable.ServiceID = 1
		svcB flowtable.ServiceID = 2
	)
	g := graph.New("msg")
	_ = g.AddVertex(graph.Vertex{Service: svcA, ReadOnly: true})
	_ = g.AddVertex(graph.Vertex{Service: svcB, ReadOnly: true})
	_ = g.AddEdge(graph.Source, svcA, true)
	_ = g.AddEdge(svcA, graph.Sink, true)
	_ = g.AddEdge(svcA, svcB, false)
	_ = g.AddEdge(svcB, graph.Sink, true)

	a := app.New(app.Config{IngressPort: 0, EgressPort: 1})
	if err := a.RegisterGraph(g); err != nil {
		t.Fatal(err)
	}
	ctl := controller.New(controller.Config{})
	var accepted, rejected atomic.Int64
	ctl.SetNorthbound(control.NorthboundFuncs{
		CompileFlowFunc: func(ctx context.Context, _ control.DatapathID, scope flowtable.ServiceID, key packet.FlowKey) ([]flowtable.Rule, error) {
			return a.CompileRules(scope, key, false) // wildcard pre-population
		},
		HandleNFMessageFunc: func(ctx context.Context, _ control.DatapathID, src flowtable.ServiceID, m nf.Message) error {
			err := a.HandleNFMessage(ctx, 0, src, m)
			if err != nil {
				rejected.Add(1)
			} else {
				accepted.Add(1)
			}
			return err
		},
	})
	ctl.Start()
	defer ctl.Stop()

	h := dataplane.NewHost(dataplane.Config{
		PoolSize: 256, TXThreads: 1,
		Control: ctl.Session(0),
	})
	sent := false
	nfA := &nf.BatchAdapter{FnName: "a", RO: true,
		ProcessBatchF: func(ctx *nf.Context, batch []nf.Packet, _ []nf.Decision) {
			if !sent && len(batch) > 0 {
				sent = true
				// Legal: A->B is a graph edge.
				ctx.Send(nf.Message{Kind: nf.MsgChangeDefault,
					Flows: flowtable.ExactMatch(batch[0].Key), S: svcA, T: svcB})
				// Illegal: B->A is not a graph edge; the app must log a
				// rejection (the manager is constrained anyway).
				ctx.Send(nf.Message{Kind: nf.MsgChangeDefault,
					Flows: flowtable.ExactMatch(batch[0].Key), S: svcB, T: svcA})
			}
		}}
	nfB := &nf.BatchAdapter{FnName: "b", RO: true}
	if _, err := h.AddNF(svcA, nfA, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddNF(svcB, nfB, 0); err != nil {
		t.Fatal(err)
	}
	var out atomic.Int64
	h.BindDefault(func(int, []byte, *dataplane.Desc) { out.Add(1) })
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	b := packet.Builder{
		SrcIP: packet.IPv4(10, 0, 0, 1), DstIP: packet.IPv4(10, 0, 0, 2),
		SrcPort: 999, DstPort: 80, Proto: packet.ProtoUDP,
	}
	buf := make([]byte, 256)
	n, _ := b.Build(buf, []byte("x"))
	for h.Inject(0, buf[:n]) != nil {
		time.Sleep(5 * time.Microsecond)
	}
	waitCond(t, func() bool { return out.Load() >= 1 }, "packet delivered")
	waitCond(t, func() bool { return accepted.Load() >= 1 && rejected.Load() >= 1 },
		"app validated both messages")

	// The app's log carries the rejection reason.
	var sawReject bool
	for _, lm := range a.Messages() {
		if !lm.Accepted && lm.Reason != "" {
			sawReject = true
		}
	}
	if !sawReject {
		t.Fatal("rejection not recorded with a reason")
	}
}

// TestParallelPriorityConflict verifies §4.2 conflict resolution by
// instance priority: two parallel read-only NFs request different forward
// targets; the higher-priority instance wins.
func TestParallelPriorityConflict(t *testing.T) {
	const (
		svcL flowtable.ServiceID = 1
		svcR flowtable.ServiceID = 2
		svcX flowtable.ServiceID = 3
		svcY flowtable.ServiceID = 4
	)
	h := dataplane.NewHost(dataplane.Config{PoolSize: 256, TXThreads: 1})
	var xGot, yGot atomic.Int64
	mk := func(dest flowtable.ServiceID) nf.BatchFunction {
		return &nf.BatchAdapter{FnName: "par", RO: true,
			ProcessBatchF: func(_ *nf.Context, batch []nf.Packet, out []nf.Decision) {
				for i := range batch {
					out[i] = nf.SendTo(dest)
				}
			}}
	}
	sink := func(c *atomic.Int64) nf.BatchFunction {
		return &nf.BatchAdapter{FnName: "sink", RO: true,
			ProcessBatchF: func(_ *nf.Context, batch []nf.Packet, _ []nf.Decision) {
				c.Add(int64(len(batch)))
			}}
	}
	if _, err := h.AddNF(svcL, mk(svcX), 1); err != nil { // low priority
		t.Fatal(err)
	}
	if _, err := h.AddNF(svcR, mk(svcY), 9); err != nil { // high priority
		t.Fatal(err)
	}
	if _, err := h.AddNF(svcX, sink(&xGot), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddNF(svcY, sink(&yGot), 0); err != nil {
		t.Fatal(err)
	}
	add := func(r flowtable.Rule) {
		if _, err := h.Table().Add(r); err != nil {
			t.Fatal(err)
		}
	}
	add(flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
		Actions:  []flowtable.Action{flowtable.Forward(svcL), flowtable.Forward(svcR)},
		Parallel: true})
	for _, s := range []flowtable.ServiceID{svcL, svcR, svcX, svcY} {
		add(flowtable.Rule{Scope: s, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(1)}})
	}
	var out atomic.Int64
	h.BindDefault(func(int, []byte, *dataplane.Desc) { out.Add(1) })
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	factory := traffic.NewFactory()
	frame, _ := factory.Frame(traffic.Flow(5, 256, 0), 0)
	const n = 20
	for i := 0; i < n; i++ {
		for h.Inject(0, frame) != nil {
			time.Sleep(5 * time.Microsecond)
		}
	}
	waitCond(t, func() bool { return out.Load() == n }, "joined packets delivered")
	if yGot.Load() != n {
		t.Fatalf("high-priority target saw %d, want %d", yGot.Load(), n)
	}
	if xGot.Load() != 0 {
		t.Fatalf("low-priority target saw %d, want 0", xGot.Load())
	}
}

// TestSkipMeAndRequestMe verifies the remaining §3.4 cross-layer messages
// against the live engine, sent the way NFs send them: A emits the armed
// message through ctx.Send on its next burst, and the manager validates
// and applies it from the control ring.
func TestSkipMeAndRequestMe(t *testing.T) {
	const (
		svcA flowtable.ServiceID = 1
		svcB flowtable.ServiceID = 2
		svcC flowtable.ServiceID = 3
	)
	h := dataplane.NewHost(dataplane.Config{PoolSize: 256, TXThreads: 1})
	var bGot, cGot atomic.Int64
	pass := func(c *atomic.Int64) nf.BatchFunction {
		return &nf.BatchAdapter{FnName: "p", RO: true,
			ProcessBatchF: func(_ *nf.Context, batch []nf.Packet, _ []nf.Decision) {
				c.Add(int64(len(batch)))
			}}
	}
	var armed atomic.Pointer[nf.Message]
	nfA := &nf.BatchAdapter{FnName: "a", RO: true,
		ProcessBatchF: func(ctx *nf.Context, _ []nf.Packet, _ []nf.Decision) {
			if m := armed.Swap(nil); m != nil {
				ctx.Send(*m)
			}
		}}
	if _, err := h.AddNF(svcA, nfA, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddNF(svcB, pass(&bGot), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddNF(svcC, pass(&cGot), 0); err != nil {
		t.Fatal(err)
	}
	add := func(r flowtable.Rule) {
		if _, err := h.Table().Add(r); err != nil {
			t.Fatal(err)
		}
	}
	// A -> B -> C -> out.
	add(flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
		Actions: []flowtable.Action{flowtable.Forward(svcA)}})
	add(flowtable.Rule{Scope: svcA, Match: flowtable.MatchAll,
		Actions: []flowtable.Action{flowtable.Forward(svcB)}})
	add(flowtable.Rule{Scope: svcB, Match: flowtable.MatchAll,
		Actions: []flowtable.Action{flowtable.Forward(svcC)}})
	add(flowtable.Rule{Scope: svcC, Match: flowtable.MatchAll,
		Actions: []flowtable.Action{flowtable.Out(1)}})
	var out atomic.Int64
	h.BindDefault(func(int, []byte, *dataplane.Desc) { out.Add(1) })
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	factory := traffic.NewFactory()
	frame, _ := factory.Frame(traffic.Flow(6, 256, 0), 0)
	sent := int64(0)
	send := func(k int, what string) {
		for i := 0; i < k; i++ {
			for h.Inject(0, frame) != nil {
				time.Sleep(5 * time.Microsecond)
			}
		}
		sent += int64(k)
		waitCond(t, func() bool { return out.Load() == sent }, what)
	}
	defaultAtA := func() flowtable.Action {
		e, err := h.Table().Lookup(svcA, packet.FlowKey{})
		if err != nil {
			return flowtable.Action{}
		}
		def, _ := e.Default()
		return def
	}
	// emit arms m, carries it up with one packet, and waits for A's
	// default to become want.
	emit := func(m nf.Message, want flowtable.Action) {
		armed.Store(&m)
		send(1, m.String()+" carrier")
		waitCond(t, func() bool { return defaultAtA() == want }, m.String()+" applied")
	}
	send(5, "baseline")
	if bGot.Load() != 5 || cGot.Load() != 5 {
		t.Fatalf("baseline counts %d/%d", bGot.Load(), cGot.Load())
	}

	// SkipMe(B): A's default forwards straight to C.
	emit(nf.Message{Kind: nf.MsgSkipMe, Flows: flowtable.MatchAll, S: svcB}, flowtable.Forward(svcC))
	b0, c0 := bGot.Load(), cGot.Load()
	send(5, "after SkipMe")
	if bGot.Load() != b0 {
		t.Fatalf("B still on path after SkipMe: %d -> %d", b0, bGot.Load())
	}
	if cGot.Load() != c0+5 {
		t.Fatalf("C missed traffic after SkipMe: %d -> %d", c0, cGot.Load())
	}

	// RequestMe(B): every scope with an edge to B makes it the default
	// again.
	emit(nf.Message{Kind: nf.MsgRequestMe, Flows: flowtable.MatchAll, S: svcB}, flowtable.Forward(svcB))
	b0 = bGot.Load()
	send(5, "after RequestMe")
	if bGot.Load() != b0+5 {
		t.Fatalf("B not restored by RequestMe: %d -> %d", b0, bGot.Load())
	}
	if st := h.Stats(); st.CtrlMessages != 2 || st.MsgsRejected != 0 {
		t.Fatalf("messages: %+v", st)
	}
}
