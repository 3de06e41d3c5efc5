package dataplane

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"sdnfv/internal/control"
	"sdnfv/internal/controller"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
)

// TestAccountingIdentityUnderMissOverload saturates the miss path — a
// slow single-worker controller with a tiny queue (ErrQueueFull drops),
// small rings, a slow NF — and requires the per-host conservation
// identity rx == tx + drops + overflows + txdrops to balance exactly
// once idle. Guards the Inject/transmit accounting semantics: refused
// injects stay out of Drops, undeliverable egress lands in TxDrops.
func TestAccountingIdentityUnderMissOverload(t *testing.T) {
	ctl := controller.New(controller.Config{Workers: 1, ServiceTime: 2 * time.Millisecond, QueueDepth: 8})
	ctl.SetNorthbound(control.NorthboundFuncs{
		CompileFlowFunc: func(_ context.Context, _ control.DatapathID, _ flowtable.ServiceID, key packet.FlowKey) ([]flowtable.Rule, error) {
			return []flowtable.Rule{
				{Scope: flowtable.Port(0), Match: flowtable.ExactMatch(key), Actions: []flowtable.Action{flowtable.Forward(41)}},
				{Scope: 41, Match: flowtable.ExactMatch(key), Actions: []flowtable.Action{flowtable.Out(1)}},
			}, nil
		},
	})
	ctl.Start()
	defer ctl.Stop()
	h := NewHost(Config{PoolSize: 512, RingSize: 64, TXThreads: 1, Control: ctl.Session(0)})
	slow := &slowNF{d: 20 * time.Microsecond}
	if _, err := h.AddNF(41, slow, 0); err != nil {
		t.Fatal(err)
	}
	var out atomic.Int64
	h.BindDefault(func(int, []byte, *Desc) { out.Add(1) })
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	const n = 5000
	// 64 distinct flows to force many misses.
	frames := make([][]byte, 64)
	for i := range frames {
		frames[i] = buildFrame(t, uint16(2000+i), nil)
	}
	for i := 0; i < n; i++ {
		for {
			if err := h.Inject(0, frames[i%64]); err == nil {
				break
			}
			time.Sleep(time.Microsecond)
		}
	}
	if !h.WaitIdle(20 * time.Second) {
		t.Fatalf("not idle: %+v", h.Pool().Stats())
	}
	st := h.Stats()
	t.Logf("rx=%d tx=%d drops=%d overflows=%d txdrops=%d rxdrops=%d misses=%d out=%d",
		st.RxPackets, st.TxPackets, st.Drops, st.Overflows, st.TxDrops, st.RxDrops, st.Misses, out.Load())
	if !st.Conserved() {
		t.Fatal("identity broken")
	}
}

type slowNF struct{ d time.Duration }

func (s *slowNF) Name() string   { return "slow" }
func (s *slowNF) ReadOnly() bool { return true }
func (s *slowNF) ProcessBatch(_ *nf.Context, batch []nf.Packet, _ []nf.Decision) {
	time.Sleep(time.Duration(len(batch)) * s.d)
}

// TestReleaseErrsCounted forces a stale-handle release and requires the
// failure to surface in HostStats.ReleaseErrs instead of vanishing: a
// failed Release means a descriptor outlived its buffer's generation —
// a refcounting bug — and silently discarding the error (the old
// `_ = h.pool.Release(...)` idiom) is exactly what the refcount
// analyzer now forbids.
func TestReleaseErrsCounted(t *testing.T) {
	h := NewHost(Config{PoolSize: 8})
	hd, err := h.pool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	h.release(hd) // valid release: refcount reaches zero, slot recycled
	if got := h.Stats().ReleaseErrs; got != 0 {
		t.Fatalf("ReleaseErrs after valid release = %d, want 0", got)
	}
	h.release(hd) // stale handle: generation mismatch must be counted
	if got := h.Stats().ReleaseErrs; got != 1 {
		t.Fatalf("ReleaseErrs after stale release = %d, want 1", got)
	}
}
