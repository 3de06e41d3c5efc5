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

// fakeClock is the idle ladder's clock in TestIdlerRungs: it moves only
// when the test moves it, and counts its reads.
type fakeClock struct {
	now   time.Duration
	reads int
}

func (c *fakeClock) read() time.Duration {
	c.reads++
	return c.now
}

// TestIdlerRungs drives one idler through its ladder on a fake clock.
// A spin reads no clock; a yield reads it once; the yield rung lasts
// until idleYield has passed since its first call, however many calls
// that takes; then one call arms parked and returns (the caller's
// re-poll), and the next parks until a producer wakes it. busy() on the
// armed rung disarms, and any busy() starts the ladder over.
func TestIdlerRungs(t *testing.T) {
	h := &Host{} // park only counts h.asleep
	w := newWaker()
	woke := false
	clk := &fakeClock{now: time.Hour}
	l := idler{h: h, w: w, woke: &woke, clock: clk.read}
	// A pending kick makes a park the test does not expect return at
	// once, and shows: the park takes the kick.
	w.kick()
	expect := func(step string, reads int, parked bool) {
		t.Helper()
		if clk.reads != reads || w.parked.Load() != parked || len(w.ch) != 1 {
			t.Fatalf("%s: clock reads %d parked %v kick pending %v, want %d %v true",
				step, clk.reads, w.parked.Load(), len(w.ch) == 1, reads, parked)
		}
	}
	spin := func(step string) {
		t.Helper()
		reads := clk.reads
		for i := 0; i < idleSpins; i++ {
			l.wait()
			expect(step, reads, false)
		}
	}

	spin("spin rung")
	reads := clk.reads
	start := clk.now
	// A clock that stands still keeps the thread yielding: the rung is
	// bounded in time, not in calls.
	for i := 1; i <= 1000; i++ {
		l.wait()
		expect("yield rung", reads+i, false)
	}
	clk.now = start + idleYield - 1
	l.wait()
	expect("yield rung, budget not yet passed", reads+1001, false)
	clk.now = start + idleYield
	l.wait()
	expect("budget passed", reads+1002, true)

	// The next empty poll blocks until a producer's wake.
	<-w.ch
	done := make(chan struct{})
	go func() {
		l.wait()
		close(done)
	}()
	waitFor(t, func() bool { return h.asleep.Load() == 1 }, "the idler to park")
	if !w.wake() {
		t.Fatal("a producer found the parked thread unarmed")
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the wake did not unpark the idler")
	}
	w.kick()
	expect("woken", clk.reads, false)

	// After a park the ladder starts over at the spin rung.
	spin("spin rung after the park")

	// busy() on the armed rung disarms, and the ladder starts over.
	l.wait() // first yield: the budget starts now
	clk.now += idleYield
	l.wait()
	expect("armed again", clk.reads, true)
	l.busy()
	expect("busy disarms", clk.reads, false)
	spin("spin rung after busy")

	// busy() on the yield rung restarts the budget too.
	l.wait()
	l.busy()
	spin("spin rung after a busy yield")
	reads = clk.reads
	l.wait()
	clk.now += idleYield - 1
	l.wait()
	expect("a fresh budget", reads+2, false)
}

// parkRig is a started host whose threads park after the ladder's
// short spin and yield rungs:
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
	h := NewHost(Config{PoolSize: 256, RingSize: 64, TXThreads: 2, Control: sb})
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
// gaps (0–200 µs) that straddle the spin rung and the yield rung's
// idleYield budget, so producers keep
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
		gap(time.Duration(rng.Intn(200)) * time.Microsecond)
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
