package orchestrator

import (
	"container/heap"
	"context"
	"errors"
	"testing"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
)

// fakeClock is a deterministic manual clock.
type fakeClock struct {
	now    float64
	events eventHeap
}

type clockEvent struct {
	at float64
	fn func()
}
type eventHeap []clockEvent

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(clockEvent)) }
func (h *eventHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

func (c *fakeClock) After(delay float64, fn func()) {
	heap.Push(&c.events, clockEvent{at: c.now + delay, fn: fn})
}
func (c *fakeClock) Now() float64 { return c.now }
func (c *fakeClock) advance(to float64) {
	for c.events.Len() > 0 && c.events[0].at <= to {
		e := heap.Pop(&c.events).(clockEvent)
		c.now = e.at
		e.fn()
	}
	c.now = to
}

type fakeHost struct {
	name     string
	launched []flowtable.ServiceID
	fail     error
}

func (h *fakeHost) HostName() string { return h.name }
func (h *fakeHost) Launch(_ context.Context, svc flowtable.ServiceID, _ nf.BatchFunction) error {
	if h.fail != nil {
		return h.fail
	}
	h.launched = append(h.launched, svc)
	return nil
}

type stubNF struct{}

func (stubNF) Name() string                                         { return "stub" }
func (stubNF) ReadOnly() bool                                       { return true }
func (stubNF) ProcessBatch(*nf.Context, []nf.Packet, []nf.Decision) {}

func TestColdBootDelay(t *testing.T) {
	clk := &fakeClock{}
	o := New(Config{BootDelaySec: 7.75}, clk)
	h := &fakeHost{name: "h1"}
	o.AddHost(h)
	var ready []Launch
	if err := o.Instantiate(context.Background(), "h1", 99, stubNF{}, func(l Launch) { ready = append(ready, l) }); err != nil {
		t.Fatal(err)
	}
	clk.advance(7.0)
	if len(h.launched) != 0 {
		t.Fatal("launched before boot completed")
	}
	if o.Pending() != 1 {
		t.Fatalf("pending = %d", o.Pending())
	}
	clk.advance(8.0)
	if len(h.launched) != 1 || h.launched[0] != 99 {
		t.Fatalf("launched = %v", h.launched)
	}
	if len(ready) != 1 || ready[0].ReadyAt != 7.75 || ready[0].Standby {
		t.Fatalf("ready = %+v", ready)
	}
}

func TestStandbyFastPath(t *testing.T) {
	clk := &fakeClock{}
	o := New(Config{BootDelaySec: 7.75, StandbyDelaySec: 0.5, Standby: 1}, clk)
	h := &fakeHost{name: "h1"}
	o.AddHost(h)
	var ls []Launch
	record := func(l Launch) { ls = append(ls, l) }
	_ = o.Instantiate(context.Background(), "h1", 1, stubNF{}, record)
	clk.advance(1.0)
	if len(h.launched) != 1 {
		t.Fatal("standby launch too slow")
	}
	// Second instantiation: pool exhausted, cold boot.
	_ = o.Instantiate(context.Background(), "h1", 2, stubNF{}, record)
	clk.advance(2.0)
	if len(h.launched) != 1 {
		t.Fatal("cold boot used the standby delay")
	}
	clk.advance(10.0)
	if len(h.launched) != 2 {
		t.Fatal("cold boot never completed")
	}
	if len(ls) != 2 || !ls[0].Standby || ls[1].Standby {
		t.Fatalf("standby flags = %+v", ls)
	}
}

func TestUnknownHost(t *testing.T) {
	o := New(Config{}, &fakeClock{})
	if err := o.Instantiate(context.Background(), "nope", 1, stubNF{}, nil); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("err = %v", err)
	}
}

func TestFailedLaunchNotLogged(t *testing.T) {
	clk := &fakeClock{}
	o := New(Config{BootDelaySec: 1}, clk)
	h := &fakeHost{name: "h1", fail: errors.New("no cores")}
	o.AddHost(h)
	called := false
	_ = o.Instantiate(context.Background(), "h1", 1, stubNF{}, func(Launch) { called = true })
	clk.advance(5)
	if called {
		t.Fatal("onReady called for failed launch")
	}
	if o.Pending() != 0 {
		t.Fatal("pending count leaked")
	}
}

func TestCancelledLaunchReturnsStandbySlot(t *testing.T) {
	clk := &fakeClock{}
	o := New(Config{BootDelaySec: 7.75, StandbyDelaySec: 0.5, Standby: 1}, clk)
	h := &fakeHost{name: "h1"}
	o.AddHost(h)
	var ls []Launch
	record := func(l Launch) { ls = append(ls, l) }
	ctx, cancel := context.WithCancel(context.Background())
	_ = o.Instantiate(ctx, "h1", 1, stubNF{}, record)
	cancel() // abort before the boot delay elapses
	clk.advance(1.0)
	if len(h.launched) != 0 {
		t.Fatal("cancelled launch still booted")
	}
	if len(ls) != 0 || o.Pending() != 0 {
		t.Fatal("cancelled launch reported ready or leaked pending")
	}
	// The unused standby slot is back: the next instantiation must take
	// the fast path again.
	_ = o.Instantiate(context.Background(), "h1", 2, stubNF{}, record)
	clk.advance(2.0)
	if len(h.launched) != 1 {
		t.Fatal("standby slot not returned after cancelled launch")
	}
	if len(ls) != 1 || !ls[0].Standby {
		t.Fatalf("launches = %+v", ls)
	}
}

// removerHost is a fakeHost with the Remover scale-down capability.
type removerHost struct {
	fakeHost
	removed []int
	failRm  error
}

func (h *removerHost) RemoveNF(_ flowtable.ServiceID, index int) error {
	if h.failRm != nil {
		return h.failRm
	}
	h.removed = append(h.removed, index)
	return nil
}

func TestRetire(t *testing.T) {
	clk := &fakeClock{now: 3}
	o := New(Config{StandbyDelaySec: 0.5}, clk)
	h := &removerHost{fakeHost: fakeHost{name: "h1"}}
	o.AddHost(h)

	if err := o.Retire(context.Background(), "h1", 99, 2); err != nil {
		t.Fatal(err)
	}
	if len(h.removed) != 1 || h.removed[0] != 2 {
		t.Fatalf("removed = %v", h.removed)
	}
	rs := o.Retirements()
	if len(rs) != 1 || rs[0] != (Retirement{Host: "h1", Service: 99, Index: 2, At: 3}) {
		t.Fatalf("retirements = %+v", rs)
	}

	// The freed VM joined the standby pool: the next boot takes the
	// fast-start path even though Config.Standby was zero.
	var got []Launch
	if err := o.Instantiate(context.Background(), "h1", 99, stubNF{}, func(l Launch) { got = append(got, l) }); err != nil {
		t.Fatal(err)
	}
	clk.advance(4.0)
	if len(got) != 1 || !got[0].Standby {
		t.Fatalf("launch after retire = %+v, want standby fast path", got)
	}
}

func TestRetireErrors(t *testing.T) {
	clk := &fakeClock{}
	o := New(Config{}, clk)
	if err := o.Retire(context.Background(), "nope", 1, 0); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("unknown host: %v", err)
	}
	plain := &fakeHost{name: "plain"}
	o.AddHost(plain)
	if err := o.Retire(context.Background(), "plain", 1, 0); !errors.Is(err, ErrCannotRetire) {
		t.Fatalf("non-remover host: %v", err)
	}
	failing := &removerHost{fakeHost: fakeHost{name: "f"}, failRm: errors.New("boom")}
	o.AddHost(failing)
	if err := o.Retire(context.Background(), "f", 1, 0); err == nil || err.Error() != "boom" {
		t.Fatalf("remove error not propagated: %v", err)
	}
	// A failed retire must not mint a standby slot.
	if o.Retirements() != nil {
		t.Fatalf("failed retire logged: %+v", o.Retirements())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ok := &removerHost{fakeHost: fakeHost{name: "ok"}}
	o.AddHost(ok)
	if err := o.Retire(ctx, "ok", 1, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: %v", err)
	}
}
