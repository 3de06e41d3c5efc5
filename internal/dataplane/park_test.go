package dataplane

// Tests of the idle ladder (spin → yield → park) and the producer wake.
// None asserts timing: each waits on a condition with a generous
// deadline, so a slow or loaded machine only makes them slower.

import (
	"context"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sdnfv/internal/control"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
)

// wakers is the number of consumer threads of a started host: RX, FC,
// every TX thread and every replica.
func (h *Host) wakers() int32 {
	return int32(2 + h.cfg.TXThreads + len(h.Instances()))
}

// waitAllParked waits until every consumer thread of h is blocked on
// its waker.
func waitAllParked(t *testing.T, h *Host) {
	t.Helper()
	waitFor(t, func() bool { return h.asleep.Load() == h.wakers() }, "every thread parked")
}

// gap busy-waits for d, yielding: a timer sleep would round the short
// gaps the stress test needs up to the timer's granularity.
func gap(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		runtime.Gosched()
	}
}

// parkRig is a started host whose threads park after a few idle polls:
// port 0 misses go to the Flow Controller, whose southbound installs
// exact per-flow rules port 0 → svcA → out 1; svcA emits a cross-layer
// message on the first packet of every flow, so every waker in the host
// (RX, FC, replica, TX out ring, TX control ring) sees traffic.
func parkRig(t *testing.T) (*Host, *atomic.Int64) {
	t.Helper()
	sb := control.SouthboundFuncs{
		ResolveFunc: func(_ context.Context, _ flowtable.ServiceID, key packet.FlowKey) ([]flowtable.Rule, error) {
			return []flowtable.Rule{
				{Scope: flowtable.Port(0), Match: flowtable.ExactMatch(key), Actions: []flowtable.Action{flowtable.Forward(svcA)}},
				{Scope: svcA, Match: flowtable.ExactMatch(key), Actions: []flowtable.Action{flowtable.Out(1)}},
			}, nil
		},
	}
	var out atomic.Int64
	h := NewHost(Config{PoolSize: 256, RingSize: 64, TXThreads: 2, SpinLimit: 8, Control: sb})
	h.BindDefault(func(int, []byte, *Desc) { out.Add(1) })
	fn := ppNF("announce", func(ctx *nf.Context, p *nf.Packet) nf.Decision {
		if _, seen := ctx.Flows.Get(p.Key); !seen {
			ctx.Flows.Set(p.Key, struct{}{})
			ctx.Send(nf.Message{Kind: nf.MsgData, Key: "flow", Value: "new"})
		}
		return nf.Decision{}
	})
	if _, err := h.AddNF(svcA, fn, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Stop)
	return h, &out
}

// TestParkLostWakeupStress sends single frames separated by random
// gaps that straddle the spin and yield budgets, so producers keep
// racing consumers that are just arming or just parked. A lost wake-up
// leaves a frame stranded in a ring: the delivery wait times out. At
// most window frames are in flight, fewer than any ring holds, so no
// frame is lost to overload.
func TestParkLostWakeupStress(t *testing.T) {
	n := 20_000
	if testing.Short() {
		n = 2_000
	}
	h, out := parkRig(t)
	frames := make([][]byte, 32)
	for i := range frames {
		frames[i] = buildFrame(t, uint16(3000+i), nil)
	}
	h.BindIngress(0)
	rng := rand.New(rand.NewSource(1))
	const window = 16
	for i := 0; i < n; i++ {
		waitFor(t, func() bool { return int64(i)-out.Load() < window }, "deliveries to open the window")
		frame := frames[i%len(frames)]
		// Rotate through the three RX producers.
		for {
			var err error
			switch i % 3 {
			case 0:
				err = h.Inject(0, frame)
			case 1:
				err = h.Ingest(0, frame)
			default:
				if admitted, _ := h.IngestBurst(0, [][]byte{frame}); admitted != 1 {
					err = ErrIngestRefused
				}
			}
			if err == nil {
				break
			}
			runtime.Gosched()
		}
		gap(time.Duration(rng.Intn(50)) * time.Microsecond)
	}
	waitFor(t, func() bool { return out.Load() == int64(n) }, "every frame delivered")
	if !h.WaitIdle(10 * time.Second) {
		t.Fatalf("buffers still in use: %+v", h.Pool().Stats())
	}
	st := h.Stats()
	if !st.Conserved() || st.RxPackets != uint64(n) || st.TxPackets != uint64(n) {
		t.Fatalf("accounting: rx=%d tx=%d drops=%d overflows=%d txdrops=%d rxdrops=%d",
			st.RxPackets, st.TxPackets, st.Drops, st.Overflows, st.TxDrops, st.RxDrops)
	}
	if st.CtrlMessages != uint64(len(frames)) {
		t.Fatalf("cross-layer messages = %d, want one per flow (%d)", st.CtrlMessages, len(frames))
	}
}

// TestIdleHostParksEveryThread: with no traffic, every consumer thread
// leaves the spin and yield rungs and blocks — an idle host uses no CPU.
func TestIdleHostParksEveryThread(t *testing.T) {
	h, _ := parkRig(t)
	waitAllParked(t, h)
	// A frame wakes the whole pipeline, which then parks again.
	if err := h.Inject(0, buildFrame(t, 4000, nil)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return h.Stats().TxPackets == 1 }, "frame delivered")
	waitAllParked(t, h)
}

// TestStopParkedHost: Stop must wake parked threads, or wg.Wait hangs.
func TestStopParkedHost(t *testing.T) {
	h, _ := parkRig(t)
	waitAllParked(t, h)
	stopped := make(chan struct{})
	go func() { h.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return on a parked host")
	}
	if got := h.asleep.Load(); got != 0 {
		t.Fatalf("%d threads still parked after Stop", got)
	}
}

// TestScaleParkedHost: AddNF and RemoveNF each wait until every manager
// thread has observed a new routing snapshot, which a parked thread only
// does if the publish wakes it.
func TestScaleParkedHost(t *testing.T) {
	h, out := parkRig(t)
	waitAllParked(t, h)
	inst, err := h.AddNF(svcA, NoopFn(), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitAllParked(t, h)
	removed := make(chan error, 1)
	go func() { removed <- h.RemoveNF(svcA, inst.Index) }()
	select {
	case err := <-removed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RemoveNF did not complete on a parked host")
	}
	// The host still forwards afterwards.
	if err := h.Inject(0, buildFrame(t, 4001, nil)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return out.Load() == 1 }, "frame delivered after rescale")
}
