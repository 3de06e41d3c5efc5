package dataplane_test

// Lifecycle tests for NF SDK v2: Init aborting a launch with a typed
// error, Close running on Host.Stop and on NF replacement through the
// orchestrator, flow state surviving restarts and replacement, and the
// instance stop path releasing a wedged burst exactly once.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/nfs"
	"sdnfv/internal/orchestrator"
	"sdnfv/internal/packet"
	"sdnfv/internal/traffic"
)

const lcSvc flowtable.ServiceID = 21

// syncClock runs orchestrator boots synchronously (delay elapses
// immediately), so Instantiate completes before it returns.
type syncClock struct{ now float64 }

func (c *syncClock) After(delay float64, fn func()) { c.now += delay; fn() }
func (c *syncClock) Now() float64                   { return c.now }

func chainRules(t *testing.T, h *dataplane.Host, svc flowtable.ServiceID) {
	t.Helper()
	for _, r := range []flowtable.Rule{
		{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(svc)}},
		{Scope: svc, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(1)}},
	} {
		if _, err := h.Table().Add(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInitErrorAbortsStartWithTypedError(t *testing.T) {
	h := dataplane.NewHost(dataplane.Config{PoolSize: 64, TXThreads: 1})
	boom := errors.New("no licence")
	var firstClosed atomic.Int32
	// First NF inits fine and announces itself; its Close must run when
	// the second NF's Init aborts the start (unwind), and its stranded
	// announcement must not survive into the retry.
	if _, err := h.AddNF(lcSvc, &nf.BatchAdapter{FnName: "ok", RO: true,
		InitF: func(ctx *nf.Context) error {
			ctx.Send(nf.Message{Kind: nf.MsgRequestMe, Flows: flowtable.MatchAll, S: ctx.Service})
			return nil
		},
		CloseF: func() error { firstClosed.Add(1); return nil }}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddNF(lcSvc+1, &nf.BatchAdapter{FnName: "bad", RO: true,
		InitF: func(ctx *nf.Context) error {
			// Buffered but never flushed: must be dropped, not delivered
			// by the next successful Start.
			ctx.Send(nf.Message{Kind: nf.MsgRequestMe, Flows: flowtable.MatchAll, S: ctx.Service})
			return boom
		}}, 0); err != nil {
		t.Fatal(err)
	}
	err := h.Start()
	if err == nil {
		h.Stop()
		t.Fatal("Start succeeded despite failing Init")
	}
	var ie *dataplane.NFInitError
	if !errors.As(err, &ie) {
		t.Fatalf("Start error %T is not *NFInitError: %v", err, err)
	}
	if ie.Service != lcSvc+1 || ie.Instance != 0 || !errors.Is(err, boom) {
		t.Fatalf("NFInitError = %+v", ie)
	}
	if firstClosed.Load() != 1 {
		t.Fatalf("already-initialized NF closed %d times during unwind, want 1", firstClosed.Load())
	}
	if got := h.Stats().CtrlMessages; got != 0 {
		t.Fatalf("aborted Start left %d cross-layer messages accounted", got)
	}
	// Replacing the never-initialized broken NF must not close it, and the
	// already-closed first NF must stay closed exactly once.
	if err := (dataplane.NamedHost{Host: h}).Launch(context.Background(), lcSvc+1, &nf.BatchAdapter{FnName: "fixed", RO: true}); err != nil {
		t.Fatal(err)
	}
	if firstClosed.Load() != 1 {
		t.Fatalf("unwound NF closed again: %d", firstClosed.Load())
	}
	// The host is startable now; only the fresh announcement is delivered.
	if err := h.Start(); err != nil {
		t.Fatalf("Start after replacement: %v", err)
	}
	waitCond(t, func() bool { return h.Stats().CtrlMessages == 1 }, "fresh announcement delivered")
	h.Stop()
	if got := h.Stats().CtrlMessages; got != 1 {
		t.Fatalf("messages after retry = %d, want 1 (stale announcements replayed?)", got)
	}
}

func TestCloseRunsOnHostStop(t *testing.T) {
	h := dataplane.NewHost(dataplane.Config{PoolSize: 64, TXThreads: 1})
	var inits, closes atomic.Int32
	fn := &nf.BatchAdapter{FnName: "lc", RO: true,
		InitF:  func(*nf.Context) error { inits.Add(1); return nil },
		CloseF: func() error { closes.Add(1); return nil },
	}
	if _, err := h.AddNF(lcSvc, fn, 0); err != nil {
		t.Fatal(err)
	}
	for cycle := 1; cycle <= 2; cycle++ {
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
		h.Stop()
		if inits.Load() != int32(cycle) || closes.Load() != int32(cycle) {
			t.Fatalf("cycle %d: inits=%d closes=%d", cycle, inits.Load(), closes.Load())
		}
	}
}

func TestCloseOnReplacementViaOrchestrator(t *testing.T) {
	h := dataplane.NewHost(dataplane.Config{PoolSize: 64, TXThreads: 1})
	var oldClosed atomic.Int32
	if _, err := h.AddNF(lcSvc, &nf.BatchAdapter{FnName: "v1", RO: true,
		CloseF: func() error { oldClosed.Add(1); return nil }}, 0); err != nil {
		t.Fatal(err)
	}
	chainRules(t, h, lcSvc)
	// Run v1 once so its lifecycle is live, then stop (the paper's VM
	// replacement model: boots land on a stopped slot).
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	h.Stop()
	if oldClosed.Load() != 1 {
		t.Fatalf("v1 closed %d times by Stop, want 1", oldClosed.Load())
	}
	orch := orchestrator.New(orchestrator.Config{BootDelaySec: 7.75}, &syncClock{})
	orch.AddHost(dataplane.NamedHost{Name: "h1", Host: h})
	var ready atomic.Int32
	err := orch.Instantiate(context.Background(), "h1", lcSvc,
		&nf.BatchAdapter{FnName: "v2", RO: true}, func(orchestrator.Launch) { ready.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	// Close runs once per successful Init: by the time the orchestrated
	// replacement lands, the outgoing NF has been closed exactly once —
	// and the replacement must not close it a second time.
	if oldClosed.Load() != 1 {
		t.Fatalf("outgoing NF closed %d times after orchestrated replacement, want exactly 1", oldClosed.Load())
	}
	if ready.Load() != 1 {
		t.Fatalf("launch not reported ready: %d", ready.Load())
	}
	// The replacement is live: the host runs with the new NF.
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	var out atomic.Int64
	h.BindDefault(func(int, []byte, *dataplane.Desc) { out.Add(1) })
	factory := traffic.NewFactory()
	frame, _ := factory.Frame(traffic.Flow(1, 256, 0), 0)
	if err := h.Inject(0, frame); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return out.Load() == 1 }, "packet through replaced NF")
}

func TestFlowStateSurvivesRestartAndReplacement(t *testing.T) {
	h := dataplane.NewHost(dataplane.Config{PoolSize: 64, TXThreads: 1})
	marker := packet.FlowKey{SrcIP: packet.IPv4(9, 9, 9, 9)}
	// v1 writes a marker into its engine-owned flow store at Init. The
	// upgrade below keeps the same NF name: state survival is promised
	// for same-implementation upgrades.
	if _, err := h.AddNF(lcSvc, &nf.BatchAdapter{FnName: "state-nf", RO: true,
		InitF: func(ctx *nf.Context) error {
			ctx.FlowState().Set(marker, "from-v1")
			return nil
		}}, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	h.Stop()
	// The manager can inspect the store directly.
	fs := h.FlowState(lcSvc, 0)
	if fs == nil {
		t.Fatal("no flow store for the replica")
	}
	if v, ok := fs.Get(marker); !ok || v.(string) != "from-v1" {
		t.Fatalf("state after stop = %v,%v", v, ok)
	}
	// Replacement (a launch onto the stopped host) keeps the store: v2
	// reads what v1 wrote.
	launch := func(fn nf.BatchFunction) error {
		return dataplane.NamedHost{Host: h}.Launch(context.Background(), lcSvc, fn)
	}
	var got atomic.Value
	if err := launch(&nf.BatchAdapter{FnName: "state-nf", RO: true,
		InitF: func(ctx *nf.Context) error {
			if v, ok := ctx.FlowState().Get(marker); ok {
				got.Store(v.(string))
			}
			return nil
		}}); err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	h.Stop()
	if got.Load() != "from-v1" {
		t.Fatalf("replacement NF saw %v, want v1's state", got.Load())
	}
	// Replacing with a different NF implementation clears the store: one
	// NF's state values would only poison another implementation.
	if err := launch(nfs.NoOp{}); err != nil {
		t.Fatal(err)
	}
	if n := h.FlowState(lcSvc, 0).Len(); n != 0 {
		t.Fatalf("cross-implementation replacement kept %d flow entries", n)
	}
}

// TestConcurrentStopSafe: Stop consumes the rings during its drain, so
// two racing Stops must serialize instead of double-consuming (and
// double-releasing) descriptors. Run under -race in CI.
func TestConcurrentStopSafe(t *testing.T) {
	h := dataplane.NewHost(dataplane.Config{PoolSize: 64, TXThreads: 1})
	if _, err := h.AddNF(lcSvc, &nf.BatchAdapter{FnName: "noop", RO: true}, 0); err != nil {
		t.Fatal(err)
	}
	chainRules(t, h, lcSvc)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	factory := traffic.NewFactory()
	frame, _ := factory.Frame(traffic.Flow(1, 256, 0), 0)
	for i := 0; i < 20; i++ {
		_ = h.Inject(0, frame)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); h.Stop() }()
	}
	wg.Wait()
	if got := h.Pool().Stats().InUse; got != 0 {
		t.Fatalf("pool InUse = %d after concurrent Stop", got)
	}
}

// TestStopMidBurstReleasesDescriptorsOnce wedges an NF instance on a full
// out ring (TX thread blocked in the output callback), stops the host
// mid-burst, and verifies every pool buffer is accounted for exactly once
// — no leak (InUse > 0) and no double release (mempool would reject it
// and InUse would go negative). Run under -race in CI.
func TestStopMidBurstReleasesDescriptorsOnce(t *testing.T) {
	h := dataplane.NewHost(dataplane.Config{
		PoolSize: 64, RingSize: 4, TXThreads: 1, SpinLimit: 16,
	})
	gate := make(chan struct{})
	var entered atomic.Int32
	var once sync.Once
	h.BindDefault(func(int, []byte, *dataplane.Desc) {
		entered.Add(1)
		once.Do(func() { <-gate }) // block the TX thread on first delivery
	})
	if _, err := h.AddNF(lcSvc, &nf.BatchAdapter{FnName: "noop", RO: true}, 0); err != nil {
		t.Fatal(err)
	}
	chainRules(t, h, lcSvc)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	factory := traffic.NewFactory()
	frame, _ := factory.Frame(traffic.Flow(1, 256, 0), 0)
	// Offer packets best-effort until the pipeline is saturated: with the
	// TX thread blocked, the out ring (cap 4), input rings, and NIC ring
	// all fill and the NF goroutine wedges spinning on EnqueueBatch.
	injected := 0
	deadline := time.Now().Add(2 * time.Second)
	for injected < 24 && time.Now().Before(deadline) {
		if err := h.Inject(0, frame); err != nil {
			if entered.Load() > 0 {
				break // TX blocked and everything downstream is full
			}
			time.Sleep(100 * time.Microsecond)
			continue
		}
		injected++
	}
	waitCond(t, func() bool { return entered.Load() > 0 }, "TX thread to block")
	time.Sleep(20 * time.Millisecond) // let the instance wedge mid-burst

	stopDone := make(chan struct{})
	go func() { h.Stop(); close(stopDone) }()
	time.Sleep(10 * time.Millisecond) // Stop sets the flags, threads see them
	close(gate)                       // release the TX thread
	select {
	case <-stopDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop wedged")
	}
	if got := h.Pool().Stats().InUse; got != 0 {
		t.Fatalf("pool InUse = %d after mid-burst stop (leak or double release)", got)
	}
}
