package dataplane

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sdnfv/internal/flowtable"
)

// TestIngestUnboundPort: wire frames for a port no driver has bound are
// refused with ErrPortUnbound and counted in RxPackets+RxDrops — the
// wire delivered them, so unlike a refused Inject they are this host's
// loss.
func TestIngestUnboundPort(t *testing.T) {
	h := NewHost(Config{PoolSize: 16})
	frame := buildFrame(t, 1000, nil)
	if err := h.Ingest(5, frame); !errors.Is(err, ErrPortUnbound) {
		t.Fatalf("Ingest on unbound port: err = %v, want ErrPortUnbound", err)
	}
	st := h.Stats()
	if st.RxPackets != 1 || st.RxDrops != 1 {
		t.Fatalf("rx=%d rxdrops=%d, want 1/1", st.RxPackets, st.RxDrops)
	}
	// Binding then unbinding restores the refusal.
	h.BindIngress(5)
	h.UnbindIngress(5)
	if err := h.Ingest(5, frame); !errors.Is(err, ErrPortUnbound) {
		t.Fatalf("Ingest after unbind: err = %v, want ErrPortUnbound", err)
	}
}

// TestIngestHardening is the malformed-wire regression test: oversize,
// truncated-garbage, and empty frames arriving through the driver
// boundary are classified, counted in RxDrops, and never admitted to
// the packet path (no pool buffer leaks, no zero-key descriptors).
func TestIngestHardening(t *testing.T) {
	h := NewHost(Config{PoolSize: 16, BufSize: 256})
	h.BindIngress(0)

	oversize := make([]byte, 257)
	if err := h.Ingest(0, oversize); !errors.Is(err, ErrFrameOversize) {
		t.Fatalf("oversize: err = %v, want ErrFrameOversize", err)
	}
	// Garbage shorter than an Ethernet header: packet.Parse must reject
	// it at the boundary instead of admitting a zero-key descriptor.
	if err := h.Ingest(0, []byte{0xde, 0xad, 0xbe, 0xef}); !errors.Is(err, ErrMalformedFrame) {
		t.Fatalf("short garbage: err = %v, want ErrMalformedFrame", err)
	}
	if err := h.Ingest(0, nil); !errors.Is(err, ErrMalformedFrame) {
		t.Fatalf("empty frame: err = %v, want ErrMalformedFrame", err)
	}
	// Host not started: even a well-formed frame is refused (stopped).
	// NewHost leaves stop unlatched until the first Stop, so start/stop
	// to latch it.
	st := h.Stats()
	if st.RxPackets != 3 || st.RxDrops != 3 {
		t.Fatalf("rx=%d rxdrops=%d, want 3/3", st.RxPackets, st.RxDrops)
	}
	if st.Pool.InUse != 0 {
		t.Fatalf("refused frames leaked %d pool buffers", st.Pool.InUse)
	}
}

// TestInjectRefusesMalformed: the generator path admits through the
// same gate as the wire. Garbage and oversize frames are refused with
// the wire's errors, never reach the miss path, and leak no buffer;
// being injector losses, they count nowhere.
func TestInjectRefusesMalformed(t *testing.T) {
	h, _ := startHost(t, Config{PoolSize: 16, BufSize: 256}, nil)
	notIPv4 := make([]byte, 64) // zero EtherType
	for _, tc := range []struct {
		frame []byte
		want  error
	}{
		{notIPv4, ErrMalformedFrame},
		{[]byte{0xde, 0xad, 0xbe, 0xef}, ErrMalformedFrame},
		{nil, ErrMalformedFrame},
		{make([]byte, 257), ErrFrameOversize},
	} {
		if err := h.Inject(0, tc.frame); !errors.Is(err, tc.want) {
			t.Fatalf("Inject(%d bytes): err = %v, want %v", len(tc.frame), err, tc.want)
		}
	}
	h.Stop() // drains the rings: anything admitted has reached the FC
	if err := h.Inject(0, buildFrame(t, 1000, nil)); !errors.Is(err, ErrIngestRefused) {
		t.Fatalf("Inject on a stopped host: err = %v, want ErrIngestRefused", err)
	}
	st := h.Stats()
	if st.Misses != 0 || st.RxPackets != 0 || st.RxDrops != 0 {
		t.Fatalf("refused injections counted: misses=%d rx=%d rxdrops=%d", st.Misses, st.RxPackets, st.RxDrops)
	}
	if st.Pool.InUse != 0 {
		t.Fatalf("refused injections leaked %d pool buffers", st.Pool.InUse)
	}
}

// TestIngestAccountingIdentity runs valid and malformed frames through
// Ingest on a live host and requires the extended conservation identity
// rx == tx + drops + overflows + txdrops + rxdrops to balance exactly.
func TestIngestAccountingIdentity(t *testing.T) {
	h := NewHost(Config{PoolSize: 128, RingSize: 64, TXThreads: 1})
	if _, err := h.Table().Add(flowtable.Rule{
		Scope:   flowtable.Port(0),
		Match:   flowtable.MatchAll,
		Actions: []flowtable.Action{flowtable.Out(1)},
	}); err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	h.BindDefault(func(int, []byte, *Desc) { delivered.Add(1) })
	h.BindIngress(0)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	valid := buildFrame(t, 4000, nil)
	garbage := []byte{1, 2, 3}
	const n = 500
	for i := 0; i < n; i++ {
		if i%5 == 4 {
			if err := h.Ingest(0, garbage); err == nil {
				t.Fatal("garbage frame admitted")
			}
			continue
		}
		for {
			err := h.Ingest(0, valid)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrIngestRefused) {
				t.Fatalf("valid frame refused with %v", err)
			}
			time.Sleep(time.Microsecond)
		}
	}
	if !h.WaitIdle(10 * time.Second) {
		t.Fatalf("not idle: %+v", h.Pool().Stats())
	}
	st := h.Stats()
	t.Logf("rx=%d tx=%d drops=%d overflows=%d txdrops=%d rxdrops=%d delivered=%d",
		st.RxPackets, st.TxPackets, st.Drops, st.Overflows, st.TxDrops, st.RxDrops, delivered.Load())
	if !st.Conserved() {
		t.Fatal("identity broken")
	}
	if st.RxDrops < n/5 {
		t.Fatalf("rxdrops=%d, want >= %d (garbage frames + retried refusals)", st.RxDrops, n/5)
	}
}

// TestIngestBurstAccounting mixes valid and malformed frames in one
// burst and checks admitted-count plus RxDrops classification, and that
// the frames of one burst share one arrival stamp.
func TestIngestBurstAccounting(t *testing.T) {
	h := NewHost(Config{PoolSize: 256, RingSize: 256, TXThreads: 1})
	h.BindIngress(2)
	valid := buildFrame(t, 4100, nil)
	frames := [][]byte{valid, {0xff}, valid, nil, valid}
	// Host not started: the NIC ring still accepts (stop flag is only
	// latched by Stop), so admitted frames sit in nicIn. Use a started
	// host to keep the pool balanced instead.
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	stamps := make(chan int64, 2*len(frames)) // room for every delivery: the TX thread never blocks
	h.BindDefault(func(_ int, _ []byte, d *Desc) { stamps <- d.ArrivalNanos })
	if _, err := h.Table().Add(flowtable.Rule{
		Scope:   flowtable.Port(2),
		Match:   flowtable.MatchAll,
		Actions: []flowtable.Action{flowtable.Out(1)},
	}); err != nil {
		t.Fatal(err)
	}
	got, cons := h.IngestBurst(2, frames)
	if got != 3 || cons != len(frames) {
		t.Fatalf("IngestBurst = (%d, %d), want (3, %d)", got, cons, len(frames))
	}
	if !h.WaitIdle(5 * time.Second) {
		t.Fatal("not idle")
	}
	st := h.Stats()
	if st.RxDrops != 2 {
		t.Fatalf("rxdrops=%d, want 2 (the malformed frames)", st.RxDrops)
	}
	if !st.Conserved() {
		t.Fatalf("identity broken: %+v", st)
	}
	first := <-stamps
	for i := 1; i < got; i++ {
		if s := <-stamps; s != first {
			t.Fatalf("frame %d of the burst stamped %d, frame 0 %d: want one clock read per burst", i, s, first)
		}
	}
	// A later burst reads the clock again.
	time.Sleep(time.Millisecond)
	if n, _ := h.IngestBurst(2, frames[:1]); n != 1 {
		t.Fatalf("second burst admitted %d, want 1", n)
	}
	if s := <-stamps; s <= first {
		t.Fatalf("second burst stamped %d, not after the first (%d)", s, first)
	}
	// Unbound-port burst: every frame counted and consumed, none
	// admitted — retrying a dead port is pointless.
	if n, c := h.IngestBurst(9, frames); n != 0 || c != len(frames) {
		t.Fatalf("unbound burst = (%d, %d), want (0, %d)", n, c, len(frames))
	}
	if d := h.Stats().RxDrops; d != 2+uint64(len(frames)) {
		t.Fatalf("rxdrops=%d after unbound burst, want %d", d, 2+len(frames))
	}
}

// TestIngestBurstCapacityStop: a capacity refusal mid-burst stops
// consumption at the refused frame — the tail touches no counter and
// stays retryable by the driver, instead of being dropped wholesale.
func TestIngestBurstCapacityStop(t *testing.T) {
	// Pool of 4, host never started: nothing drains, so the 5th valid
	// frame hits pool exhaustion.
	h := NewHost(Config{PoolSize: 4, RingSize: 64})
	h.BindIngress(0)
	valid := buildFrame(t, 4200, nil)
	frames := [][]byte{valid, valid, {0xbad & 0xff}, valid, valid, valid, valid}
	adm, cons := h.IngestBurst(0, frames)
	if adm != 4 || cons != 5 {
		t.Fatalf("IngestBurst = (%d, %d), want (4, 5)", adm, cons)
	}
	st := h.Stats()
	// Consumed prefix: 4 admitted (counted at dequeue, not yet) + 1
	// malformed (counted now). The unconsumed tail is invisible.
	if st.RxPackets != 1 || st.RxDrops != 1 {
		t.Fatalf("rx=%d rxdrops=%d, want 1/1", st.RxPackets, st.RxDrops)
	}
	// Re-offering the tail with no space consumes nothing.
	if adm, cons := h.IngestBurst(0, frames[5:]); adm != 0 || cons != 0 {
		t.Fatalf("retry = (%d, %d), want (0, 0)", adm, cons)
	}
	if st := h.Stats(); st.RxPackets != 1 || st.RxDrops != 1 {
		t.Fatalf("retry moved counters: rx=%d rxdrops=%d", st.RxPackets, st.RxDrops)
	}
}
