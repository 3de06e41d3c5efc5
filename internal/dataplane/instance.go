package dataplane

import (
	"runtime"
	"sync/atomic"
	"time"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/metrics"
	"sdnfv/internal/nf"
	"sdnfv/internal/ring"
)

// nfBatch is the burst size of the NF instance loop: one DequeueBatch →
// ProcessBatch → EnqueueBatch pass moves up to this many descriptors.
const nfBatch = 64

// svcTimeAlpha smooths the per-replica service-time EWMA (one observation
// per burst).
const svcTimeAlpha = 0.2

func newServiceTimeEWMA() *metrics.EWMA { return metrics.NewEWMA(svcTimeAlpha) }

// Instance is one running NF "VM": a network function plus its private
// rings. Each producer thread in the manager (the RX thread and every TX
// thread) gets its own SPSC ring into the instance so that every ring has
// exactly one producer and one consumer, as §4.1 requires.
type Instance struct {
	Service flowtable.ServiceID
	// Index is the replica's stable identity within its service: indices
	// are assigned monotonically and never reused after a removal, so an
	// index keeps naming the same replica across scale-up/down (FlowState,
	// RemoveNF, orchestrator.Retire all address replicas by it).
	Index    int
	Priority uint16
	// seq is the host-wide launch sequence number: stable TX-thread
	// assignment and rendezvous-hash identity.
	seq      uint64
	fn       nf.BatchFunction
	readOnly bool

	// in[p] is written by producer p (0 = RX thread, 1+i = TX thread i).
	in []*ring.SPSCOf[Desc]
	// out is written by the NF goroutine, drained by its assigned TX
	// thread.
	out *ring.SPSCOf[Desc]
	// txThread is the TX thread responsible for this instance's out ring.
	txThread int
	// wake rouses the replica's goroutine when it has parked idle.
	wake *waker

	ctx nf.Context

	rxCount   atomic.Uint64
	dropCount atomic.Uint64 // ring-full drops into this instance
	// svcTime tracks the EWMA per-packet NF service time in nanoseconds,
	// one observation per processed burst.
	svcTime *metrics.EWMA

	stop atomic.Bool
	// drain asks the NF goroutine to exit once a full pass over its input
	// rings finds them empty (graceful retirement: every accepted packet
	// is processed and handed to the TX thread first). Set by RemoveNF
	// after producers stopped offering.
	drain atomic.Bool
	// done is closed when the NF goroutine exits; recreated per launch.
	done chan struct{}

	// opened tracks the Init/Close pairing: true between a successful
	// Init and the matching Close (guarded by Host.lifeMu, which
	// serializes all lifecycle operations).
	opened bool
}

// ReplicaStats is a telemetry snapshot of one NF replica — the per-replica
// load signal the manager exports and the autoscale layer consumes
// (§3.3 automatic load balancing, §5 dynamic scaling).
type ReplicaStats struct {
	Service flowtable.ServiceID
	Index   int
	Name    string
	// QueueDepth is the number of descriptors waiting in the replica's
	// input rings (an instantaneous backlog sample).
	QueueDepth int `metric:"queue_depth" help:"Descriptors waiting in the replica's input rings."`
	// Processed counts packets handed to the NF.
	Processed uint64 `metric:"processed_total" help:"Packets handed to the NF replica."`
	// OverflowDrops counts offers refused because the input rings were
	// full.
	OverflowDrops uint64 `metric:"overflow_drops_total" help:"Offers refused because the replica's input rings were full."`
	// ServiceTimeNs is the EWMA per-packet NF service time in
	// nanoseconds (0 until the replica has processed a burst).
	ServiceTimeNs float64 `metric:"service_time_ns" help:"EWMA per-packet NF service time in nanoseconds."`
}

// Stats returns the replica's telemetry snapshot.
func (in *Instance) Stats() ReplicaStats {
	return ReplicaStats{
		Service:       in.Service,
		Index:         in.Index,
		Name:          in.fn.Name(),
		QueueDepth:    in.backlog(),
		Processed:     in.rxCount.Load(),
		OverflowDrops: in.dropCount.Load(),
		ServiceTimeNs: in.svcTime.Value(),
	}
}

// backlog returns the total queued descriptors across input rings.
//
//sdnfv:hotpath
func (in *Instance) backlog() int {
	n := 0
	for _, r := range in.in {
		n += r.Len()
	}
	return n
}

// offer enqueues d on producer p's ring into inst; false (and a drop
// count) on full.
//
//sdnfv:hotpath
func (h *Host) offer(inst *Instance, p int, d Desc) bool {
	if inst.in[p].Enqueue(d) {
		h.wakeFor(p, inst.wake)
		return true
	}
	inst.dropCount.Add(1)
	return false
}

// launch starts the NF goroutine (rings must exist); done tracks its exit
// for graceful retirement.
func (in *Instance) launch(h *Host) {
	in.done = make(chan struct{})
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		defer close(in.done)
		in.run(h)
	}()
}

// nfScratch is the NF goroutine's per-thread burst storage, allocated
// once at launch so the burst loop itself stays allocation-free.
type nfScratch struct {
	descs []Desc
	pkts  []nf.Packet
	decs  []nf.Decision
}

func newNFScratch() *nfScratch {
	return &nfScratch{
		descs: make([]Desc, nfBatch),
		pkts:  make([]nf.Packet, nfBatch),
		decs:  make([]nf.Decision, nfBatch),
	}
}

// run is the NF goroutine: one burst pass per input ring — DequeueBatch,
// one ProcessBatch call over the whole burst with a single decision
// array, EnqueueBatch onto the out ring — amortizing the ring atomics and
// the NF interface call across the burst (like DPDK's burst mode, and
// like VPP's vectorized graph nodes). Cross-layer messages buffered
// during the burst are flushed (deduped) once per burst.
//
//sdnfv:hotpath
func (in *Instance) run(h *Host) {
	woke := false
	idle := h.idler(in.wake, &woke)
	txWake := h.txWake[in.txThread]
	//sdnfv:allow(call) scratch construction runs once at thread launch, before the burst loop
	s := newNFScratch()
	descs, pkts, decs := s.descs, s.pkts, s.decs
	for !in.stop.Load() {
		progressed := false
		for _, r := range in.in {
			n := r.DequeueBatch(descs)
			if n == 0 {
				continue
			}
			progressed = true
			in.rxCount.Add(uint64(n))
			for i := 0; i < n; i++ {
				d := &descs[i]
				pkts[i] = nf.Packet{
					Handle:       d.H,
					View:         &d.View,
					Key:          d.Key,
					ArrivalNanos: d.ArrivalNanos,
				}
			}
			// The decision slots arrive zeroed (Default) per the
			// BatchFunction contract.
			clear(decs[:n])
			t0 := time.Now()
			//sdnfv:allow(dyncall) the BatchFunction interface call is the engine's one indirection, amortized over the burst
			in.fn.ProcessBatch(&in.ctx, pkts[:n], decs[:n])
			in.svcTime.Observe(float64(time.Since(t0).Nanoseconds()) / float64(n))
			for i := 0; i < n; i++ {
				descs[i].Scope = in.Service
				descs[i].Verb = decs[i].Verb
				descs[i].Dest = decs[i].Dest
			}
			// Hand the burst to the TX thread; yield while the out ring is
			// full (never park: the TX thread does not signal producers).
			// On stop, every descriptor not yet owned by the ring is
			// released exactly once — EnqueueBatch has already transferred
			// ownership of the first `off`, so only the remainder is ours.
			off := 0
			for off < n {
				k := in.out.EnqueueBatch(descs[off:n])
				off += k
				if k > 0 && txWake.wake() {
					woke = true
				}
				if off == n {
					break
				}
				if in.stop.Load() {
					for j := off; j < n; j++ {
						h.releaseDesc(&descs[j])
					}
					//sdnfv:allow(call) shutdown path: the final message flush is not per-packet work
					in.ctx.FlushEmits()
					return
				}
				if k == 0 {
					runtime.Gosched()
				}
			}
			//sdnfv:allow(call) cross-layer emission flush runs once per burst, amortized (§3.4)
			in.ctx.FlushEmits()
		}
		if !progressed {
			if in.drain.Load() {
				// Graceful retirement: producers have stopped offering and
				// a full pass found every input ring empty, so all accepted
				// packets are processed and on the out ring. Exit.
				return
			}
			idle.wait()
		} else {
			idle.busy()
		}
	}
}
