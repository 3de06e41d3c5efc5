package control_test

// End-to-end tests of the wire Southbound backend: control.Client
// dialing a served controller.Controller over TCP loopback, with an
// app.App northbound on top — the full Fig. 2 hierarchy across a real
// socket.

import (
	"context"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"sdnfv/internal/app"
	"sdnfv/internal/control"
	"sdnfv/internal/controller"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
)

func testKey(srcPort uint16) packet.FlowKey {
	return packet.FlowKey{
		SrcIP: packet.IPv4(10, 0, 0, 1), DstIP: packet.IPv4(10, 0, 0, 2),
		SrcPort: srcPort, DstPort: 80, Proto: packet.ProtoUDP,
	}
}

// startWire serves ctl on loopback and dials a Client to it.
func startWire(t *testing.T, ctl *controller.Controller) *control.Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	ctl.Start()
	t.Cleanup(ctl.Stop)
	go func() { _ = ctl.Serve(ln) }()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	client, err := control.DialAs(ctx, ln.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return client
}

// resolveOne resolves one flow first seen at port 0 as a one-request
// batch.
func resolveOne(ctx context.Context, sb control.Southbound, key packet.FlowKey) ([]flowtable.Rule, error) {
	out := make([]control.ResolveResult, 1)
	sb.ResolveBatch(ctx, []control.ResolveRequest{{Scope: flowtable.Port(0), Key: key}}, out)
	return out[0].Rules, out[0].Err
}

func testApp(t *testing.T) *app.App {
	t.Helper()
	g, err := graph.Chain("wire",
		graph.Vertex{Service: 1, Name: "fw", ReadOnly: true},
		graph.Vertex{Service: 2, Name: "mon", ReadOnly: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	a := app.New(app.Config{IngressPort: 0, EgressPort: 1})
	if err := a.RegisterGraph(g); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestClientResolve(t *testing.T) {
	ctl := controller.New(controller.Config{})
	ctl.SetNorthbound(testApp(t))
	client := startWire(t, ctl)

	rules, err := resolveOne(context.Background(), client, testKey(1000))
	if err != nil {
		t.Fatal(err)
	}
	// The chain compiles to ingress + 2 services + egress scopes.
	if len(rules) < 3 {
		t.Fatalf("rules = %v", rules)
	}
	for _, r := range rules {
		if !r.Match.IsExact() {
			t.Fatalf("expected per-flow exact rules, got %v", r.Match)
		}
	}
}

func TestClientResolveBatchPipelined(t *testing.T) {
	// 8 workers, real service time: a pipelined batch of 8 should
	// complete in roughly one service time, not eight.
	const svc = 20 * time.Millisecond
	ctl := controller.New(controller.Config{ServiceTime: svc, Workers: 8})
	ctl.SetNorthbound(testApp(t))
	client := startWire(t, ctl)

	const n = 8
	reqs := make([]control.ResolveRequest, n)
	out := make([]control.ResolveResult, n)
	for i := range reqs {
		reqs[i] = control.ResolveRequest{Scope: flowtable.Port(0), Key: testKey(uint16(2000 + i))}
	}
	start := time.Now()
	client.ResolveBatch(context.Background(), reqs, out)
	elapsed := time.Since(start)
	for i, r := range out {
		if r.Err != nil || len(r.Rules) == 0 {
			t.Fatalf("slot %d: %+v", i, r)
		}
	}
	if elapsed > 4*svc {
		t.Fatalf("batch took %v; pipelining should overlap the %v serial cost", elapsed, n*svc)
	}
}

// TestClientConcurrentBatches drives one Client from several goroutines
// at once — batches sharing its encode buffer and pending map, NF
// messages interleaved — and checks every slot gets the rules compiled
// for its own flow, never a neighbour's.
func TestClientConcurrentBatches(t *testing.T) {
	ctl := controller.New(controller.Config{Workers: 4})
	ctl.SetNorthbound(testApp(t))
	client := startWire(t, ctl)

	const callers, rounds, n = 4, 20, 8
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqs := make([]control.ResolveRequest, n)
			out := make([]control.ResolveResult, n)
			for r := 0; r < rounds; r++ {
				for i := range reqs {
					reqs[i] = control.ResolveRequest{Scope: flowtable.Port(0), Key: testKey(uint16(g<<12 | r<<4 | i))}
				}
				client.ResolveBatch(context.Background(), reqs, out)
				if err := client.SendNFMessage(context.Background(), 1, nf.Message{Kind: nf.MsgData, Key: "k", Value: r}); err != nil {
					t.Errorf("caller %d: SendNFMessage: %v", g, err)
					return
				}
				for i, res := range out {
					if res.Err != nil || len(res.Rules) == 0 {
						t.Errorf("caller %d round %d slot %d: %+v", g, r, i, res)
						return
					}
					want := flowtable.ExactMatch(reqs[i].Key)
					for _, rule := range res.Rules {
						if rule.Match.Key.SrcPort != want.Key.SrcPort {
							t.Errorf("caller %d round %d slot %d: rule for port %d, want %d", g, r, i, rule.Match.Key.SrcPort, want.Key.SrcPort)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestClientErrorMapping(t *testing.T) {
	// No northbound attached: every resolve must surface ErrNoCompiler
	// across the wire.
	ctl := controller.New(controller.Config{})
	client := startWire(t, ctl)

	if _, err := resolveOne(context.Background(), client, testKey(1)); !errors.Is(err, control.ErrNoCompiler) {
		t.Fatalf("err = %v", err)
	}
}

func TestClientNFMessages(t *testing.T) {
	a := testApp(t)
	ctl := controller.New(controller.Config{})
	ctl.SetNorthbound(a)
	client := startWire(t, ctl)

	// Legal: 1->2 is a graph edge. Delivery is async; poll the app log.
	if err := client.SendNFMessage(context.Background(), 1, nf.Message{
		Kind: nf.MsgChangeDefault, Flows: flowtable.MatchAll, S: 1, T: 2,
	}); err != nil {
		t.Fatal(err)
	}
	// Illegal: 2->1 is not an edge; the refusal comes back as a counted
	// ErrorMsg.
	if err := client.SendNFMessage(context.Background(), 2, nf.Message{
		Kind: nf.MsgChangeDefault, Flows: flowtable.MatchAll, S: 2, T: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// Structurally invalid messages never leave the host.
	if err := client.SendNFMessage(context.Background(), 1, nf.Message{Kind: nf.MsgData}); !errors.Is(err, control.ErrInvalidMessage) {
		t.Fatalf("invalid message: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(a.Messages()) >= 2 && client.Rejected() >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	log := a.Messages()
	if len(log) != 2 {
		t.Fatalf("app log = %+v", log)
	}
	if !log[0].Accepted || log[1].Accepted {
		t.Fatalf("verdicts = %+v", log)
	}
	if client.Rejected() != 1 {
		t.Fatalf("rejected counter = %d", client.Rejected())
	}
}

// TestConstructorsValidate checks the Southbound entry points that take
// a hand-built message — the wire Client and an in-process controller
// Session — report the same verdicts as control.Validate.
func TestConstructorsValidate(t *testing.T) {
	ctl := controller.New(controller.Config{})
	client := startWire(t, ctl)
	entries := map[string]control.Southbound{"client": client, "session": ctl.Session(1)}
	msgs := []nf.Message{
		{Kind: nf.MsgSkipMe, Flows: flowtable.MatchAll, S: 3},
		{Kind: nf.MsgSkipMe, Flows: flowtable.MatchAll, S: flowtable.Port(0)},
		{Kind: nf.MsgRequestMe, Flows: flowtable.MatchAll, S: 3},
		{Kind: nf.MsgChangeDefault, Flows: flowtable.MatchAll, S: 3, T: 4},
		{Kind: nf.MsgChangeDefault, Flows: flowtable.MatchAll, S: 3, T: 3},
		{Kind: nf.MsgData, Key: "k", Value: 42},
		{Kind: nf.MsgData},
	}
	for name, sb := range entries {
		for _, m := range msgs {
			want := control.Validate(m)
			err := sb.SendNFMessage(context.Background(), m.S, m)
			if (want == nil) != (err == nil) || (err != nil && !errors.Is(err, control.ErrInvalidMessage)) {
				t.Fatalf("%s %v: err = %v, Validate = %v", name, m, err, want)
			}
		}
	}
}

func TestClientFlowRemovedWire(t *testing.T) {
	// Full eviction-notice path across a real socket: Client
	// NotifyFlowRemoved → controller serveConn → Session →
	// app.HandleFlowRemoved, with the payload intact.
	a := testApp(t)
	ctl := controller.New(controller.Config{})
	type seen struct {
		dp       control.DatapathID
		removals []control.FlowRemoved
	}
	got := make(chan seen, 1)
	ctl.SetNorthbound(control.NorthboundFuncs{
		HandleFlowRemovedFunc: func(ctx context.Context, dp control.DatapathID, removals []control.FlowRemoved) error {
			// The app counts the notices before the test is told, so
			// the FlowsRemoved check below cannot outrun it.
			err := a.HandleFlowRemoved(ctx, dp, removals)
			got <- seen{dp, slices.Clone(removals)} // the caller reuses removals
			return err
		},
	})
	client := startWire(t, ctl)

	sent := []control.FlowRemoved{
		{Scope: 1, Match: flowtable.ExactMatch(testKey(4000)), RuleID: 77, Reason: control.RemovedIdleTimeout},
		{Scope: 2, Match: flowtable.ExactMatch(testKey(4001)), RuleID: 78, Reason: control.RemovedHardTimeout},
	}
	if err := client.NotifyFlowRemoved(context.Background(), sent); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s.dp != 0 {
			t.Fatalf("datapath = %v", s.dp)
		}
		if len(s.removals) != 2 {
			t.Fatalf("removals = %+v", s.removals)
		}
		for i, r := range s.removals {
			if r.Scope != sent[i].Scope || r.RuleID != sent[i].RuleID || r.Reason != sent[i].Reason {
				t.Fatalf("removal %d = %+v want %+v", i, r, sent[i])
			}
			if !r.Match.IsExact() {
				t.Fatalf("removal %d lost its match: %+v", i, r.Match)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flow-removed notice never reached the app")
	}
	if n := a.FlowsRemoved(); n != 2 {
		t.Fatalf("app FlowsRemoved = %d", n)
	}
	// Empty batches are a no-op, not a frame.
	if err := client.NotifyFlowRemoved(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if n := a.FlowsRemoved(); n != 2 {
		t.Fatalf("empty batch changed the counter: %d", n)
	}
}

// TestClientFlowRemovedLargeBatch sends one eviction batch far past what a
// single 64 KiB frame holds: the client must split it, and every notice
// must reach the app exactly once, in order.
func TestClientFlowRemovedLargeBatch(t *testing.T) {
	a := testApp(t)
	ctl := controller.New(controller.Config{})
	var (
		mu  sync.Mutex
		ids []uint64
	)
	ctl.SetNorthbound(control.NorthboundFuncs{
		HandleFlowRemovedFunc: func(ctx context.Context, dp control.DatapathID, removals []control.FlowRemoved) error {
			// The app counts the notices before the wait below can see
			// them, so its FlowsRemoved check cannot outrun the app.
			err := a.HandleFlowRemoved(ctx, dp, removals)
			mu.Lock()
			for _, r := range removals {
				ids = append(ids, r.RuleID)
			}
			mu.Unlock()
			return err
		},
	})
	client := startWire(t, ctl)

	const n = 10_000
	sent := make([]control.FlowRemoved, n)
	for i := range sent {
		sent[i] = control.FlowRemoved{
			Scope: 1, Match: flowtable.ExactMatch(testKey(uint16(i))), RuleID: uint64(i), Reason: control.RemovedIdleTimeout,
		}
	}
	if err := client.NotifyFlowRemoved(context.Background(), sent); err != nil {
		t.Fatal(err)
	}
	received := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(ids)
	}
	deadline := time.Now().Add(10 * time.Second)
	for received() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := a.FlowsRemoved(); got != n {
		t.Fatalf("app FlowsRemoved = %d, want %d", got, n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ids) != n {
		t.Fatalf("subscriber saw %d notices, want %d", len(ids), n)
	}
	for i, id := range ids {
		if id != uint64(i) {
			t.Fatalf("notice %d carries rule %d", i, id)
		}
	}
}

func TestClientCloseUnblocks(t *testing.T) {
	ctl := controller.New(controller.Config{ServiceTime: time.Second})
	ctl.SetNorthbound(testApp(t))
	client := startWire(t, ctl)

	errs := make(chan error, 1)
	go func() {
		_, err := resolveOne(context.Background(), client, testKey(9))
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_ = client.Close()
	select {
	case err := <-errs:
		if !errors.Is(err, control.ErrStopped) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ResolveBatch still blocked after Close")
	}
	// New requests refuse immediately.
	if _, err := resolveOne(context.Background(), client, testKey(10)); !errors.Is(err, control.ErrStopped) {
		t.Fatalf("post-close err = %v", err)
	}
}

func TestClientContextCancel(t *testing.T) {
	ctl := controller.New(controller.Config{ServiceTime: time.Second})
	ctl.SetNorthbound(testApp(t))
	client := startWire(t, ctl)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := resolveOne(ctx, client, testKey(11))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("ResolveBatch ignored the deadline")
	}
}
