//go:build !race

package dataplane

// Zero-allocation budget tests for the manager dispatch/transmit path —
// the measured counterpart of the hotpath analyzer's static no-alloc
// proof. White-box: they drive dispatchEntry/transmit directly, the way
// the RX and TX threads do, without starting the manager goroutines.
// Excluded under the race detector, whose instrumentation changes
// allocation behavior.

import (
	"runtime"
	"sync/atomic"
	"testing"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/packet"
)

func TestTransmitZeroAlloc(t *testing.T) {
	h := NewHost(Config{PoolSize: 64})
	h.BindDefault(func(int, []byte, *Desc) {})
	// The descriptor lives outside the measured closure, like the
	// engine's preallocated burst arrays: transmit hands *Desc to an
	// indirect sink, so a closure-local Desc would escape and charge the
	// test (not the engine) one allocation per run.
	var d Desc
	if n := testing.AllocsPerRun(200, func() {
		hd, err := h.pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := h.pool.SetLength(hd, 64); err != nil {
			t.Fatal(err)
		}
		d = Desc{H: hd}
		h.transmit(&d, 0)
	}); n != 0 {
		t.Errorf("transmit allocates %.1f/op, want 0", n)
	}
	if got := h.Stats().ReleaseErrs; got != 0 {
		t.Fatalf("transmit leaked %d release errors", got)
	}
}

func TestDispatchEntryZeroAlloc(t *testing.T) {
	h := NewHost(Config{PoolSize: 64})
	h.BindDefault(func(int, []byte, *Desc) {})
	key := packet.FlowKey{
		SrcIP:   packet.IPv4(10, 0, 0, 1),
		DstIP:   packet.IPv4(10, 0, 0, 2),
		SrcPort: 4000, DstPort: 80, Proto: packet.ProtoUDP,
	}
	if _, err := h.table.Add(flowtable.Rule{
		Scope:   flowtable.Port(0),
		Match:   flowtable.ExactMatch(key),
		Actions: []flowtable.Action{flowtable.Out(1)},
	}); err != nil {
		t.Fatal(err)
	}
	e, err := h.table.Lookup(flowtable.Port(0), key)
	if err != nil || e == nil {
		t.Fatal("lookup missed the installed rule")
	}
	snap := h.snap.Load()
	var rr uint64
	var d Desc // outside the closure, like the engine's burst arrays
	if n := testing.AllocsPerRun(200, func() {
		hd, err := h.pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		d = Desc{H: hd, Key: key, Scope: flowtable.Port(0)}
		h.dispatchEntry(snap, &d, e, 0, &rr)
	}); n != 0 {
		t.Errorf("dispatchEntry(out) allocates %.1f/op, want 0", n)
	}
}

// TestStartedHostAllocsPerPacket pins the running engine — RX burst,
// lookup, ring hand-offs, NF burst, TX, egress, and the idle ladder
// between bursts — rather than one function: a per-packet escape once hid
// in the loops that join the pinned functions. AllocsPerRun divides the
// heap allocations of all goroutines by the run count, so 0 means fewer
// than one per burst: under 1/128 < 0.01 per packet.
func TestStartedHostAllocsPerPacket(t *testing.T) {
	const burst = 128
	var out atomic.Int64
	h, _ := startHost(t, Config{PoolSize: 2 * burst}, func(h *Host) {
		h.BindDefault(func(int, []byte, *Desc) { out.Add(1) })
		if _, err := h.AddNF(svcA, NoopFn(), 0); err != nil {
			t.Fatal(err)
		}
		key := packet.FlowKey{
			SrcIP: packet.IPv4(10, 0, 0, 1), DstIP: packet.IPv4(10, 0, 0, 2),
			SrcPort: 1000, DstPort: 80, Proto: packet.ProtoUDP,
		}
		mustAdd(t, h, flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.ExactMatch(key),
			Actions: []flowtable.Action{flowtable.Forward(svcA)}})
		mustAdd(t, h, flowtable.Rule{Scope: svcA, Match: flowtable.ExactMatch(key),
			Actions: []flowtable.Action{flowtable.Out(1)}})
	})
	frame := buildFrame(t, 1000, nil)
	var want int64
	if n := testing.AllocsPerRun(50, func() {
		for i := 0; i < burst; i++ {
			for h.Inject(0, frame) != nil {
				runtime.Gosched()
			}
		}
		want += burst
		for out.Load() < want {
			runtime.Gosched()
		}
	}); n != 0 {
		t.Errorf("started host allocates %.0f per %d-packet burst, want 0", n, burst)
	}
	if st := h.Stats(); st.Drops+st.Overflows+st.TxDrops != 0 {
		t.Fatalf("pin lost packets: %+v", st)
	}
}
