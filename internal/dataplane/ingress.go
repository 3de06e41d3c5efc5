package dataplane

// Driver ingress boundary — the seam internal/portio plugs into.
//
// Inject is the in-process generator path: a refusal is the injector's
// loss, returned as an error and kept out of every host counter.
// Ingest is the wire path: a port driver hands the host a frame the
// wire already delivered, so the frame must be accounted whether or
// not it is admitted. Every Ingest-refused frame counts once in
// RxPackets AND once in RxDrops (admitted frames are counted in
// RxPackets by the RX thread when dequeued, like Inject's), which
// extends the conservation identity to
//
//	RxPackets = TxPackets + Drops + Overflows + TxDrops + RxDrops
//
// exactly once the host is idle (non-parallel dispatch, as before).
// IngestBurst refines this for capacity refusals: frames past its
// consumed prefix never touched the host, stay out of every counter,
// and remain the driver's to retry or drop (drivers count such losses
// in their own RxRefused).
//
// Both paths admit through one gate (admit) and enqueue through one
// helper (enqueue): a frame larger than the pool frame cap, or one that
// does not parse as an IPv4 UDP/TCP frame, never enters the packet path
// — the wire can deliver arbitrary garbage, and admitting it with a
// zero FlowKey would send it down the miss path. Ingest counts such a
// frame in RxDrops; Inject returns the error and counts it nowhere.
// Frames arriving on a port with no ingress binding (a driver that was
// never bound, or already drained) are refused the same way, which
// gives late wire arrivals during driver teardown a meaning instead of
// a silent drop.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/packet"
)

// Sentinel errors the ingest path classifies refusals with. All of them
// are also counted in HostStats.RxDrops.
var (
	// ErrFrameOversize reports a frame larger than FrameCap.
	ErrFrameOversize = errors.New("dataplane: frame exceeds pool frame cap")
	// ErrMalformedFrame reports a frame packet.Parse rejected.
	ErrMalformedFrame = errors.New("dataplane: malformed frame")
	// ErrPortUnbound reports a frame for a port with no ingress binding.
	ErrPortUnbound = errors.New("dataplane: no ingress bound on port")
	// ErrIngestRefused reports a capacity refusal: pool exhausted, NIC
	// ring full, or host stopped.
	ErrIngestRefused = errors.New("dataplane: ingest refused")
)

// DriverStats is a port driver's boundary telemetry: what crossed the
// wire seam, and what died at it. The host merges registered drivers'
// stats into HostStats.Ports; the counters are the driver's own and sit
// outside the host conservation identity (RxRefused frames, for
// example, also appear in HostStats.RxDrops).
type DriverStats struct {
	// RxFrames/RxBytes count frames read off the wire and offered to
	// the host ingress (including ones the host then refused).
	RxFrames uint64 `metric:"rx_frames_total" help:"Frames read off the wire and offered to host ingress."`
	RxBytes  uint64 `metric:"rx_bytes_total" help:"Bytes read off the wire."`
	// TxFrames/TxBytes count frames written to the wire.
	TxFrames uint64 `metric:"tx_frames_total" help:"Frames written to the wire."`
	TxBytes  uint64 `metric:"tx_bytes_total" help:"Bytes written to the wire."`
	// RxOversize counts wire frames larger than the ingress frame cap,
	// dropped by the driver before reaching the host.
	RxOversize uint64 `metric:"rx_oversize_total" help:"Wire frames dropped for exceeding the ingress frame cap."`
	// RxTruncated counts short reads and truncated framing (a TCP
	// stream cut mid-frame, a datagram shorter than its header).
	RxTruncated uint64 `metric:"rx_truncated_total" help:"Short reads and truncated framing."`
	// RxRefused counts frames read off the wire that never entered the
	// packet path: refused at the boundary (malformed, unbound — those
	// also appear in HostStats.RxDrops) or dropped by the driver after
	// its capacity-retry budget expired (those touched no host counter).
	RxRefused uint64 `metric:"rx_refused_total" help:"Wire frames that never entered the packet path."`
	// TxDrops counts egress frames never written: link down, egress
	// queue full, or a write error.
	TxDrops uint64 `metric:"tx_drops_total" help:"Egress frames never written to the wire."`
	// Reconnects counts re-established connections (TCP backoff loop).
	Reconnects uint64 `metric:"reconnects_total" help:"Re-established driver connections."`
}

// PortDriverStats is one port's DriverStats inside a HostStats snapshot.
type PortDriverStats struct {
	Port   int
	Driver string
	DriverStats
}

// FrameCap is the largest frame Ingest admits: the pool buffer size.
// Drivers size their receive buffers from it so oversize wire frames
// are detected at the boundary instead of truncated silently.
func (h *Host) FrameCap() int { return h.cfg.BufSize }

// ingressTable is the immutable ingress-bound port set, published
// atomically like egressTable so Ingest stays lock-free.
type ingressTable struct {
	bound []bool
}

func (t *ingressTable) has(port int) bool {
	return t != nil && port >= 0 && port < len(t.bound) && t.bound[port]
}

// BindIngress marks port as having a driver ingress attached, admitting
// Ingest on it. Drivers bind before opening and unbind after draining
// (portio.Bind handles both), so frames from a half-torn-down wire are
// classified ErrPortUnbound rather than racing the teardown.
func (h *Host) BindIngress(port int) { h.setIngress(port, true) }

// UnbindIngress removes port's ingress binding; subsequent Ingest calls
// on it count in RxDrops and return ErrPortUnbound.
func (h *Host) UnbindIngress(port int) { h.setIngress(port, false) }

func (h *Host) setIngress(port int, bound bool) {
	if port < 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.ingress.Load()
	next := &ingressTable{}
	if cur != nil {
		next.bound = append([]bool(nil), cur.bound...)
	}
	for len(next.bound) <= port {
		next.bound = append(next.bound, false)
	}
	next.bound[port] = bound
	h.ingress.Store(next)
}

// registeredPort is one driver's stats hook, keyed by port.
type registeredPort struct {
	port   int
	driver string
	fn     func() DriverStats
}

// RegisterPortStats attaches a driver's stats snapshot function to
// port, so Stats() can merge wire-boundary telemetry into
// HostStats.Ports. Re-registering a port replaces the previous hook.
// The hook must be safe to call concurrently and must not call back
// into host lifecycle or stats methods.
func (h *Host) RegisterPortStats(port int, driver string, fn func() DriverStats) {
	if fn == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ports == nil {
		h.ports = make(map[int]registeredPort)
	}
	h.ports[port] = registeredPort{port: port, driver: driver, fn: fn}
}

// portDriverStats snapshots every registered driver, ordered by port.
// The hooks run outside h.mu so a driver snapshot can never deadlock
// against the host lock.
func (h *Host) portDriverStats() []PortDriverStats {
	h.mu.Lock()
	regs := make([]registeredPort, 0, len(h.ports))
	for _, r := range h.ports {
		regs = append(regs, r)
	}
	h.mu.Unlock()
	if len(regs) == 0 {
		return nil
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].port < regs[j].port })
	out := make([]PortDriverStats, len(regs))
	for i, r := range regs {
		out[i] = PortDriverStats{Port: r.port, Driver: r.driver, DriverStats: r.fn()}
	}
	return out
}

// Ingest delivers one wire frame into the host NIC on port. Unlike
// Inject, every call is accounted: a refusal counts in both RxPackets
// and RxDrops (see the package comment above for the identity), and
// the returned error classifies it — ErrPortUnbound, ErrFrameOversize,
// ErrMalformedFrame, or ErrIngestRefused. The frame is copied; the
// caller keeps ownership of the slice. Safe for concurrent use.
func (h *Host) Ingest(port int, frame []byte) error {
	if !h.ingress.Load().has(port) {
		h.countRxDrop(1)
		return fmt.Errorf("%w %d", ErrPortUnbound, port)
	}
	d, err := h.admit(port, frame)
	if err == nil {
		err = h.enqueue(d)
	}
	if err != nil {
		h.countRxDrop(1)
	}
	return err
}

// enqueue hands one admitted descriptor to the NIC ring and wakes the
// RX thread; a refusal releases the buffer and wraps ErrIngestRefused.
func (h *Host) enqueue(d Desc) error {
	h.injectMu.Lock()
	if h.stop.Load() {
		// The host is stopping or stopped (the flag stays latched until
		// the next Start): Stop's ring drain (which also takes injectMu)
		// must observe every enqueued descriptor, so refuse frames
		// instead of leaking them past the drain.
		h.injectMu.Unlock()
		h.release(d.H)
		return fmt.Errorf("%w: host stopped", ErrIngestRefused)
	}
	ok := h.nicIn.Enqueue(d)
	h.injectMu.Unlock()
	if !ok {
		h.release(d.H)
		return fmt.Errorf("%w: NIC ring full", ErrIngestRefused)
	}
	h.wakeRX()
	return nil
}

// IngestBurst delivers a burst of wire frames into port in order,
// amortizing the inject lock across ring-sized sub-batches. It returns
// (admitted, consumed): frames[:consumed] are fully accounted — either
// admitted to the packet path or counted in RxPackets+RxDrops
// (malformed, oversize) — while frames[consumed:] were stopped by a
// capacity refusal (pool exhausted, NIC ring full, host stopped) and
// touched no counter at all, so the driver may re-offer them once the
// backlog drains instead of losing a whole burst to a momentary stall.
// An unbound port consumes (and counts) the entire burst: retrying a
// dead port is pointless. Frame slices are copied, not retained.
func (h *Host) IngestBurst(port int, frames [][]byte) (admitted, consumed int) {
	if len(frames) == 0 {
		return 0, 0
	}
	if !h.ingress.Load().has(port) {
		h.countRxDrop(uint64(len(frames)))
		return 0, len(frames)
	}
	var (
		batch [rxBatch]Desc
		idxs  [rxBatch]int
		n     int
		// drops holds malformed-frame indices; they are counted only if
		// they land inside the consumed prefix (a capacity stop hands the
		// tail back to the driver uncounted, malformed frames included).
		drops   []int
		stopped = false
	)
	flush := func(scanned int) {
		if n == 0 {
			if !stopped {
				consumed = scanned
			}
			return
		}
		h.injectMu.Lock()
		q := 0
		if !h.stop.Load() {
			q = h.nicIn.EnqueueBatch(batch[:n])
		}
		h.injectMu.Unlock()
		if q > 0 {
			h.wakeRX()
		}
		for i := q; i < n; i++ {
			h.release(batch[i].H)
		}
		admitted += q
		if q < n {
			// Ring refused batch[q:]; the first rejected frame marks the
			// consumed boundary — everything past it is the driver's again.
			stopped = true
			consumed = idxs[q]
		} else {
			consumed = scanned
		}
		n = 0
	}
	for i, f := range frames {
		d, err := h.admit(port, f)
		if err != nil {
			if errors.Is(err, ErrIngestRefused) {
				flush(i)
				if !stopped {
					stopped = true
					consumed = i
				}
				break
			}
			drops = append(drops, i)
			continue
		}
		batch[n], idxs[n] = d, i
		n++
		if n == len(batch) {
			flush(i + 1)
			if stopped {
				break
			}
		}
	}
	if !stopped {
		flush(len(frames))
	}
	nd := uint64(0)
	for _, idx := range drops {
		if idx < consumed {
			nd++
		}
	}
	if nd > 0 {
		h.countRxDrop(nd)
	}
	return admitted, consumed
}

// countRxDrop records a wire frame the boundary refused: once in
// RxPackets (the wire delivered it) and once in RxDrops.
func (h *Host) countRxDrop(n uint64) {
	h.rxCount.Add(n)
	h.rxDropCount.Add(n)
}

// admit copies frame into a pool buffer and builds its descriptor,
// enforcing the strict wire-ingress checks (size cap, parseability).
func (h *Host) admit(port int, frame []byte) (Desc, error) {
	if len(frame) > h.cfg.BufSize {
		return Desc{}, fmt.Errorf("%w: %dB > %dB", ErrFrameOversize, len(frame), h.cfg.BufSize)
	}
	hd, err := h.pool.Alloc()
	if err != nil {
		return Desc{}, fmt.Errorf("%w: %v", ErrIngestRefused, err)
	}
	buf, _ := h.pool.Buf(hd)
	copy(buf, frame)
	_ = h.pool.SetLength(hd, len(frame))
	v, err := packet.Parse(buf[:len(frame)])
	if err != nil {
		h.release(hd)
		return Desc{}, fmt.Errorf("%w: %v", ErrMalformedFrame, err)
	}
	return Desc{
		H:            hd,
		Scope:        flowtable.Port(port),
		View:         v,
		Key:          v.FlowKey(),
		ArrivalNanos: time.Now().UnixNano(),
	}, nil
}
