package controller

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"sdnfv/internal/control"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/openflow"
	"sdnfv/internal/packet"
)

func testKey() packet.FlowKey {
	return packet.FlowKey{
		SrcIP: packet.IPv4(10, 0, 0, 1), DstIP: packet.IPv4(10, 0, 0, 2),
		SrcPort: 1000, DstPort: 80, Proto: packet.ProtoUDP,
	}
}

// chainNB is a minimal northbound compiling every flow to a one-rule
// chain at the requesting scope.
func chainNB() control.Northbound {
	return control.NorthboundFuncs{
		CompileFlowFunc: func(_ context.Context, _ control.DatapathID, scope flowtable.ServiceID, key packet.FlowKey) ([]flowtable.Rule, error) {
			return []flowtable.Rule{{
				Scope:   scope,
				Match:   flowtable.ExactMatch(key),
				Actions: []flowtable.Action{flowtable.Forward(10)},
			}}, nil
		},
	}
}

func TestResolveInProcess(t *testing.T) {
	c := New(Config{})
	c.SetNorthbound(chainNB())
	c.Start()
	defer c.Stop()
	rules, err := c.Resolve(context.Background(), flowtable.Port(0), testKey())
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || rules[0].Scope != flowtable.Port(0) {
		t.Fatalf("rules = %v", rules)
	}
	st, _ := c.Stats(context.Background())
	if st.Requests != 1 || st.FlowMods != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestResolveNoCompiler(t *testing.T) {
	c := New(Config{})
	c.Start()
	defer c.Stop()
	if _, err := c.Resolve(context.Background(), flowtable.Port(0), testKey()); !errors.Is(err, control.ErrNoCompiler) {
		t.Fatalf("resolve without northbound: %v", err)
	}
}

func TestResolveContextDeadline(t *testing.T) {
	c := New(Config{ServiceTime: time.Second})
	c.SetNorthbound(chainNB())
	c.Start()
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Resolve(ctx, flowtable.Port(0), testKey())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("Resolve ignored the deadline")
	}
}

// TestResolveUnblocksOnStop pins the shutdown bug where a Resolve caller
// (the host's Flow Controller thread) whose request was still queued when
// the event loop exited blocked forever, wedging host.Stop.
func TestResolveUnblocksOnStop(t *testing.T) {
	c := New(Config{ServiceTime: time.Second, QueueDepth: 4})
	c.SetNorthbound(chainNB())
	c.Start()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := c.Resolve(context.Background(), flowtable.Port(0), testKey())
			errs <- err
		}()
	}
	time.Sleep(20 * time.Millisecond) // let both requests enqueue
	go c.Stop()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("resolve after stop should fail")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Resolve still blocked after Stop")
		}
	}
}

func TestQueueOverflowRejected(t *testing.T) {
	c := New(Config{ServiceTime: 50 * time.Millisecond, QueueDepth: 1})
	c.SetNorthbound(chainNB())
	c.Start()
	defer c.Stop()
	// Fire several concurrent requests; with depth 1 and slow service,
	// some must be rejected with the typed sentinel.
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := c.Resolve(context.Background(), flowtable.Port(0), testKey())
			errs <- err
		}()
	}
	rejected := 0
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			if !errors.Is(err, control.ErrQueueFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no requests rejected under overload")
	}
	st, _ := c.Stats(context.Background())
	if st.Rejected == 0 {
		t.Fatal("rejection counter not incremented")
	}
	// Rejected requests are not admitted: offered = Requests + Rejected.
	if st.Requests+st.Rejected != 8 {
		t.Fatalf("requests=%d rejected=%d, want them to partition 8 offered", st.Requests, st.Rejected)
	}
}

func TestResolveBatchOverlapsServiceTimes(t *testing.T) {
	const svc = 20 * time.Millisecond
	c := New(Config{ServiceTime: svc, Workers: 8})
	c.SetNorthbound(chainNB())
	c.Start()
	defer c.Stop()
	reqs := make([]control.ResolveRequest, 8)
	out := make([]control.ResolveResult, 8)
	for i := range reqs {
		k := testKey()
		k.SrcPort = uint16(3000 + i)
		reqs[i] = control.ResolveRequest{Scope: flowtable.Port(0), Key: k}
	}
	start := time.Now()
	c.ResolveBatch(context.Background(), reqs, out)
	elapsed := time.Since(start)
	for i, r := range out {
		if r.Err != nil || len(r.Rules) != 1 {
			t.Fatalf("slot %d: %+v", i, r)
		}
	}
	// Serially this would take 8×20 ms; pipelined across 8 workers it
	// should land near one service time.
	if elapsed > 4*svc {
		t.Fatalf("batch took %v, not overlapped (serial would be %v)", elapsed, 8*svc)
	}
}

func TestSendNFMessageRoutesNorthbound(t *testing.T) {
	c := New(Config{})
	got := make(chan nf.Message, 1)
	c.SetNorthbound(control.NorthboundFuncs{
		HandleNFMessageFunc: func(_ context.Context, _ control.DatapathID, src flowtable.ServiceID, m nf.Message) error {
			got <- m
			return nil
		},
	})
	if err := c.SendNFMessage(context.Background(), 50, nf.Message{Kind: nf.MsgRequestMe, S: 50}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Kind != nf.MsgRequestMe {
			t.Fatalf("message = %v", m)
		}
	default:
		t.Fatal("northbound not invoked")
	}
	if err := c.SendNFMessage(context.Background(), 50, nf.Message{Kind: nf.MsgData}); !errors.Is(err, control.ErrInvalidMessage) {
		t.Fatalf("invalid message: %v", err)
	}
	st, _ := c.Stats(context.Background())
	if st.NFMsgs != 1 {
		t.Fatalf("nfMsgs = %d", st.NFMsgs)
	}
}

// dialTest connects a raw openflow.Conn to a served controller and
// completes the HELLO exchange.
func dialTest(t *testing.T, c *Controller) *openflow.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() { _ = c.Serve(ln) }()

	conn, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	oc := openflow.NewConn(conn)

	// Controller greets first.
	msg, _, err := oc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(openflow.Hello); !ok {
		t.Fatalf("greeting = %T", msg)
	}
	if _, err := oc.Send(openflow.Hello{}); err != nil {
		t.Fatal(err)
	}
	return oc
}

// TestServeOverTCP exercises the full southbound wire path: HELLO,
// PACKET_IN → FLOW_MODs + barrier, ECHO, and NF_MESSAGE.
func TestServeOverTCP(t *testing.T) {
	c := New(Config{})
	nfMsgs := make(chan nf.Message, 1)
	c.SetNorthbound(control.NorthboundFuncs{
		CompileFlowFunc: func(_ context.Context, _ control.DatapathID, scope flowtable.ServiceID, key packet.FlowKey) ([]flowtable.Rule, error) {
			return []flowtable.Rule{
				{Scope: scope, Match: flowtable.ExactMatch(key),
					Actions: []flowtable.Action{flowtable.Forward(10)}},
				{Scope: flowtable.ServiceID(10), Match: flowtable.ExactMatch(key),
					Actions: []flowtable.Action{flowtable.Out(1)}},
			}, nil
		},
		HandleNFMessageFunc: func(_ context.Context, _ control.DatapathID, _ flowtable.ServiceID, m nf.Message) error {
			nfMsgs <- m
			return nil
		},
	})
	c.Start()
	defer c.Stop()
	oc := dialTest(t, c)

	// Echo.
	if _, err := oc.Send(openflow.Echo{Data: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	msg, _, err := oc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := msg.(openflow.Echo); !ok || !e.Reply || string(e.Data) != "hi" {
		t.Fatalf("echo reply = %+v", msg)
	}

	// PacketIn → two FlowMods then a barrier.
	if _, err := oc.Send(openflow.PacketIn{Scope: flowtable.Port(0), Key: testKey()}); err != nil {
		t.Fatal(err)
	}
	var mods int
	for {
		msg, _, err = oc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := msg.(openflow.FlowMod); ok {
			mods++
			continue
		}
		if b, ok := msg.(openflow.Barrier); ok && b.Reply {
			break
		}
		t.Fatalf("unexpected %T", msg)
	}
	if mods != 2 {
		t.Fatalf("flow mods = %d", mods)
	}

	// NF message propagates to the northbound handler.
	if _, err := oc.Send(openflow.NFMessage{Src: 50, Msg: nf.Message{Kind: nf.MsgSkipMe, S: 50}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-nfMsgs:
		if m.Kind != nf.MsgSkipMe || m.S != 50 {
			t.Fatalf("nf msg = %v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NF message never reached the northbound handler")
	}
}

// TestServeFeaturesAndStats covers the request/reply pairs serveConn
// used to bounce as "unexpected message".
func TestServeFeaturesAndStats(t *testing.T) {
	c := New(Config{DatapathID: 0xfeed})
	c.SetNorthbound(chainNB())
	c.Start()
	defer c.Stop()
	oc := dialTest(t, c)

	if _, err := oc.Send(openflow.FeaturesRequest{}); err != nil {
		t.Fatal(err)
	}
	msg, _, err := oc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	fr, ok := msg.(openflow.FeaturesReply)
	if !ok || fr.DatapathID != 0xfeed {
		t.Fatalf("features reply = %+v", msg)
	}

	// Drive one resolve so the stats are non-trivial.
	if _, err := oc.Send(openflow.PacketIn{Scope: flowtable.Port(0), Key: testKey()}); err != nil {
		t.Fatal(err)
	}
	for {
		msg, _, err = oc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if b, ok := msg.(openflow.Barrier); ok && b.Reply {
			break
		}
	}
	if _, err := oc.Send(openflow.StatsRequest{}); err != nil {
		t.Fatal(err)
	}
	msg, _, err = oc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	sr, ok := msg.(openflow.StatsReply)
	if !ok {
		t.Fatalf("stats reply = %+v", msg)
	}
	// serveConn maps Requests→RxPackets and FlowMods→TxPackets.
	if sr.RxPackets != 1 || sr.TxPackets != 1 {
		t.Fatalf("mapped stats = %+v", sr)
	}
}

// TestServeRefusesFeaturesAndStatsAfterStop serves a channel on a
// stopped controller: FEATURES and STATS requests are answered with the
// stopped error code, not with a zero-valued reply.
func TestServeRefusesFeaturesAndStatsAfterStop(t *testing.T) {
	c := New(Config{DatapathID: 0xfeed})
	c.Start()
	c.Stop()
	srv, cli := net.Pipe()
	defer cli.Close()
	go func() { _ = c.serveConn(srv) }()
	oc := openflow.NewConn(cli)
	if msg, _, err := oc.Recv(); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(openflow.Hello); !ok {
		t.Fatalf("greeting = %T", msg)
	}
	for _, req := range []openflow.Message{openflow.FeaturesRequest{}, openflow.StatsRequest{}} {
		if _, err := oc.Send(req); err != nil {
			t.Fatal(err)
		}
		msg, _, err := oc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if em, ok := msg.(openflow.ErrorMsg); !ok || em.Code != openflow.ErrCodeStopped {
			t.Fatalf("%T on a stopped controller answered %+v, want ErrorMsg code %d", req, msg, openflow.ErrCodeStopped)
		}
	}
}

// TestServeCountsFailedFlowRemoved sends a flow-removed notice the
// northbound tier refuses. The wire has no reply for it, so the failure
// must show in both the controller's and the session's NoticesFailed.
func TestServeCountsFailedFlowRemoved(t *testing.T) {
	c := New(Config{})
	c.SetNorthbound(control.NorthboundFuncs{
		HandleFlowRemovedFunc: func(context.Context, control.DatapathID, []control.FlowRemoved) error {
			return errors.New("flow store unavailable")
		},
	})
	c.Start()
	defer c.Stop()
	oc := dialTest(t, c)
	notice := openflow.FlowRemoved{Removals: []openflow.FlowRemovedEntry{{Scope: flowtable.Port(0), Match: flowtable.ExactMatch(testKey()), RuleID: 7}}}
	if _, err := oc.Send(notice); err != nil {
		t.Fatal(err)
	}
	// serveConn handles a channel's frames in order, so once the barrier
	// is answered the notice has been handled.
	if _, err := oc.Send(openflow.Barrier{}); err != nil {
		t.Fatal(err)
	}
	if msg, _, err := oc.Recv(); err != nil {
		t.Fatal(err)
	} else if b, ok := msg.(openflow.Barrier); !ok || !b.Reply {
		t.Fatalf("barrier reply = %+v", msg)
	}
	agg, _ := c.Stats(context.Background())
	sess, _ := c.Session(0).Stats(context.Background())
	if agg.NoticesFailed != 1 || sess.NoticesFailed != 1 {
		t.Fatalf("NoticesFailed: controller %d, session %d, want 1 and 1", agg.NoticesFailed, sess.NoticesFailed)
	}
}

// failConn is a control channel whose writes start failing on demand,
// as a peer that vanishes between admission and reply.
type failConn struct {
	net.Conn
	fail atomic.Bool
}

func (f *failConn) Write(b []byte) (int, error) {
	if f.fail.Load() {
		return 0, errors.New("channel gone")
	}
	return f.Conn.Write(b)
}

// TestServeCountsFailedReplies admits a PacketIn, then breaks the
// channel's writes before the worker answers it. The lost FlowMod
// reply must show in RepliesFailed on the controller and the session.
func TestServeCountsFailedReplies(t *testing.T) {
	release := make(chan struct{})
	c := New(Config{})
	c.SetNorthbound(control.NorthboundFuncs{
		CompileFlowFunc: func(ctx context.Context, dp control.DatapathID, scope flowtable.ServiceID, key packet.FlowKey) ([]flowtable.Rule, error) {
			<-release
			return chainNB().CompileFlow(ctx, dp, scope, key)
		},
	})
	c.Start()
	defer c.Stop()
	srv, cli := net.Pipe()
	defer cli.Close()
	fc := &failConn{Conn: srv}
	served := make(chan error, 1)
	go func() { served <- c.serveConn(fc) }()
	oc := openflow.NewConn(cli)
	if msg, _, err := oc.Recv(); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(openflow.Hello); !ok {
		t.Fatalf("greeting = %T", msg)
	}
	if _, err := oc.Send(openflow.PacketIn{Scope: flowtable.Port(0), Key: testKey()}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, _ := c.Stats(context.Background()); st.Requests == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("PacketIn never admitted")
		}
	}
	fc.fail.Store(true)
	close(release)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		agg, _ := c.Stats(context.Background())
		sess, _ := c.Session(0).Stats(context.Background())
		if agg.RepliesFailed == 1 && sess.RepliesFailed == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("RepliesFailed: controller %d, session %d, want 1 and 1", agg.RepliesFailed, sess.RepliesFailed)
		}
	}
	cli.Close()
	<-served
}

// TestServePipelinedPacketIns sends a burst of PacketIns without waiting
// and checks every one is answered with its own XID-correlated
// FlowMod+Barrier pair.
func TestServePipelinedPacketIns(t *testing.T) {
	c := New(Config{ServiceTime: 5 * time.Millisecond, Workers: 8})
	c.SetNorthbound(chainNB())
	c.Start()
	defer c.Stop()
	oc := dialTest(t, c)

	const n = 8
	sent := make(map[uint32]bool, n)
	for i := 0; i < n; i++ {
		k := testKey()
		k.SrcPort = uint16(4000 + i)
		xid, err := oc.Send(openflow.PacketIn{Scope: flowtable.Port(0), Key: k})
		if err != nil {
			t.Fatal(err)
		}
		sent[xid] = true
	}
	mods := make(map[uint32]int, n)
	done := make(map[uint32]bool, n)
	for len(done) < n {
		msg, hdr, err := oc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		switch m := msg.(type) {
		case openflow.FlowMod:
			if !sent[hdr.XID] {
				t.Fatalf("FlowMod for unknown xid %d", hdr.XID)
			}
			mods[hdr.XID]++
		case openflow.Barrier:
			if m.Reply {
				done[hdr.XID] = true
			}
		default:
			t.Fatalf("unexpected %T", msg)
		}
	}
	for xid := range sent {
		if mods[xid] != 1 || !done[xid] {
			t.Fatalf("xid %d: mods=%d done=%v", xid, mods[xid], done[xid])
		}
	}
}

// dpNB is a northbound that compiles a rule tagged with the requesting
// datapath (Dest = dp), so tests can see which host a compilation was
// scoped to.
func dpNB() control.Northbound {
	return control.NorthboundFuncs{
		CompileFlowFunc: func(_ context.Context, dp control.DatapathID, scope flowtable.ServiceID, key packet.FlowKey) ([]flowtable.Rule, error) {
			return []flowtable.Rule{{
				Scope:   scope,
				Match:   flowtable.ExactMatch(key),
				Actions: []flowtable.Action{flowtable.Forward(flowtable.ServiceID(dp))},
			}}, nil
		},
	}
}

// TestSessionsScopeResolutionsPerDatapath registers two datapath
// sessions and checks each resolution carries its host's identity to
// the northbound tier, with per-session counters kept apart.
func TestSessionsScopeResolutionsPerDatapath(t *testing.T) {
	c := New(Config{Workers: 2})
	c.SetNorthbound(dpNB())
	c.Start()
	defer c.Stop()

	s7, s9 := c.Session(7), c.Session(9)
	if s7 != c.Session(7) {
		t.Fatal("session registry returned a fresh session for a registered id")
	}
	rules7, err := s7.Resolve(context.Background(), flowtable.Port(0), testKey())
	if err != nil {
		t.Fatal(err)
	}
	if got := rules7[0].Actions[0].Dest; got != 7 {
		t.Fatalf("dp7 compilation scoped to %v", got)
	}
	reqs := []control.ResolveRequest{{Scope: flowtable.Port(0), Key: testKey()}}
	out := make([]control.ResolveResult, 1)
	s9.ResolveBatch(context.Background(), reqs, out)
	if out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	if got := out[0].Rules[0].Actions[0].Dest; got != 9 {
		t.Fatalf("dp9 compilation scoped to %v", got)
	}

	st7, _ := s7.Stats(context.Background())
	st9, _ := s9.Stats(context.Background())
	if st7.Requests != 1 || st9.Requests != 1 {
		t.Fatalf("per-session requests: dp7=%d dp9=%d", st7.Requests, st9.Requests)
	}
	if st7.FlowMods != 1 || st9.FlowMods != 1 {
		t.Fatalf("per-session flowmods: dp7=%d dp9=%d", st7.FlowMods, st9.FlowMods)
	}
	agg, _ := c.Stats(context.Background())
	if agg.Requests != 2 || agg.FlowMods != 2 {
		t.Fatalf("aggregate stats: %+v", agg)
	}
	dps := c.Datapaths()
	if len(dps) != 2 || dps[0] != 7 || dps[1] != 9 {
		t.Fatalf("datapaths = %v", dps)
	}
}

// TestWireSessionFromHello connects a wire client that announces its
// datapath in the HELLO and checks the server scopes its PacketIns to
// that session.
func TestWireSessionFromHello(t *testing.T) {
	c := New(Config{})
	c.SetNorthbound(dpNB())
	c.Start()
	defer c.Stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() { _ = c.Serve(ln) }()

	cl, err := control.DialAs(context.Background(), ln.Addr().String(), 0x2a)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rules, err := cl.Resolve(context.Background(), flowtable.Port(0), testKey())
	if err != nil {
		t.Fatal(err)
	}
	if got := rules[0].Actions[0].Dest; got != 0x2a {
		t.Fatalf("wire compilation scoped to %v, want dp 0x2a", got)
	}
	found := false
	for _, dp := range c.Datapaths() {
		if dp == 0x2a {
			found = true
		}
	}
	if !found {
		t.Fatalf("hello did not register the session: %v", c.Datapaths())
	}
	st, err := c.Session(0x2a).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 {
		t.Fatalf("wire session requests = %d", st.Requests)
	}
}
