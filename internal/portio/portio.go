// Package portio provides pluggable port drivers: the transport behind
// a host NIC port. The engine keeps one narrow seam — egress through a
// dataplane.PortSink, ingress through Host.Ingest — and everything on
// the wire side of that seam is a PortDriver: a UDP socket carrying one
// datagram per frame (UDPDriver), a TCP stream with length-prefixed
// framing and reconnect (TCPDriver), or a raw AF_PACKET socket on a real
// interface (AFPacketDriver, linux only). Co-located hosts need no
// driver: cluster.Fabric links wire them in-process. This is the
// device/instance split of yanet2's dataplane_device and osvbng's
// southbound abstraction: the packet path never learns which transport
// it is bound to.
//
// Hot-path discipline: a driver's egress sink runs on the engine's TX
// threads inside the annotated hot path, so socket drivers hand the
// frame to an egressQueue — one copy into a recycled buffer, one
// non-blocking channel send — and a writer goroutine performs the
// syscalls. The receive side is a per-driver RX pump goroutine feeding
// Host.IngestBurst; neither loop ever runs on an engine thread.
package portio

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sdnfv/internal/dataplane"
)

// DriverStats re-exports the dataplane boundary counters: the seam
// owner defines the type (HostStats embeds it), drivers fill it in.
type DriverStats = dataplane.DriverStats

// Ingress is the host-side receive seam a driver pumps frames into.
// dataplane.Host satisfies it through Bind's adapter; tests and
// benchmarks substitute counting sinks.
type Ingress interface {
	// Ingest delivers one frame; the slice is copied, not retained.
	Ingest(frame []byte) error
	// IngestBurst offers a burst in order and returns (admitted,
	// consumed): frames[:consumed] are fully accounted by the host,
	// frames[consumed:] were stopped by a capacity refusal and may be
	// re-offered (see dataplane.Host.IngestBurst).
	IngestBurst(frames [][]byte) (admitted, consumed int)
	// FrameCap is the largest frame the ingress admits; drivers size
	// receive buffers from it to detect oversize at the boundary.
	FrameCap() int
}

// PortDriver is one transport bound behind one NIC port.
//
// Lifecycle: Open starts the driver's RX pump (delivering into ing)
// and egress writer; Sink is the egress handoff the host binds via
// BindPort; Close drains queued egress onto the wire, stops both
// loops, and releases the socket. Open-once, Close-once.
type PortDriver interface {
	Open(ing Ingress) error
	Sink() dataplane.PortSink
	Close() error
	Stats() DriverStats
	Name() string
}

// Binding is a driver attached to a host port: the egress sink bound,
// the ingress port admitted, and the driver's stats registered.
type Binding struct {
	host   *dataplane.Host
	port   int
	drv    PortDriver
	closed atomic.Bool
}

// Bind attaches d behind port on h: ingress is admitted, the driver is
// opened with the host as its ingress, its egress sink is bound, and
// its stats feed HostStats.Ports. On Open failure the ingress binding
// is rolled back and the error returned.
func Bind(h *dataplane.Host, port int, d PortDriver) (*Binding, error) {
	h.BindIngress(port)
	if err := d.Open(hostIngress{h: h, port: port}); err != nil {
		h.UnbindIngress(port)
		return nil, fmt.Errorf("portio: open %s on port %d: %w", d.Name(), port, err)
	}
	h.BindPort(port, d.Sink())
	h.RegisterPortStats(port, d.Name(), d.Stats)
	return &Binding{host: h, port: port, drv: d}, nil
}

// Close drains and detaches the driver: egress is unbound first (late
// transmits count TxDrops, as for any unbound port), the ingress
// binding is removed (late wire arrivals count RxDrops), then the
// driver flushes its egress queue and closes. The stats registration
// survives so the final HostStats still reports the wire counters;
// rebinding the port replaces it. Idempotent.
func (b *Binding) Close() error {
	if !b.closed.CompareAndSwap(false, true) {
		return nil
	}
	b.host.BindPort(b.port, nil)
	b.host.UnbindIngress(b.port)
	return b.drv.Close()
}

// hostIngress adapts one host port to the Ingress seam.
type hostIngress struct {
	h    *dataplane.Host
	port int
}

func (hi hostIngress) Ingest(frame []byte) error { return hi.h.Ingest(hi.port, frame) }
func (hi hostIngress) IngestBurst(fs [][]byte) (int, int) {
	return hi.h.IngestBurst(hi.port, fs)
}
func (hi hostIngress) FrameCap() int { return hi.h.FrameCap() }

// counters is the shared atomic backing for DriverStats.
type counters struct {
	rxFrames, rxBytes, txFrames, txBytes atomic.Uint64
	rxOversize, rxTruncated, rxRefused   atomic.Uint64
	txDrops, reconnects                  atomic.Uint64
}

func (c *counters) countRx(n int) { c.rxFrames.Add(1); c.rxBytes.Add(uint64(n)) }
func (c *counters) countTx(n int) { c.txFrames.Add(1); c.txBytes.Add(uint64(n)) }
func (c *counters) txDrop()       { c.txDrops.Add(1) }

func (c *counters) snapshot() DriverStats {
	return DriverStats{
		RxFrames:    c.rxFrames.Load(),
		RxBytes:     c.rxBytes.Load(),
		TxFrames:    c.txFrames.Load(),
		TxBytes:     c.txBytes.Load(),
		RxOversize:  c.rxOversize.Load(),
		RxTruncated: c.rxTruncated.Load(),
		RxRefused:   c.rxRefused.Load(),
		TxDrops:     c.txDrops.Load(),
		Reconnects:  c.reconnects.Load(),
	}
}

// defaultQueueDepth is the egress queue depth when a config leaves it 0.
const defaultQueueDepth = 256

// ingestRetries and ingestRetrySleep bound how long an RX pump waits
// for a capacity-stalled host before dropping the remainder of a burst
// (200 × 500µs = 100ms). While the pump stalls, the backlog sits in the
// kernel-side buffer — the socket rcvbuf or the peer's TCP window — so
// transient engine stalls cost latency, not frames.
const (
	ingestRetries    = 200
	ingestRetrySleep = 500 * time.Microsecond
)

// offer pushes one RX burst into ing, re-offering the unconsumed tail
// after capacity refusals until it drains, the driver closes, or the
// retry budget expires. Host-refused frames (consumed but not admitted:
// malformed, unbound port) and given-up remainders both land in the
// driver's RxRefused — the former are also in HostStats.RxDrops, the
// latter never reached a host counter.
func offer(ing Ingress, frames [][]byte, closed func() bool, st *counters) {
	rem := frames
	for tries := 0; len(rem) > 0; tries++ {
		adm, cons := ing.IngestBurst(rem)
		if r := cons - adm; r > 0 {
			st.rxRefused.Add(uint64(r))
		}
		rem = rem[cons:]
		if len(rem) == 0 {
			return
		}
		if closed() || tries >= ingestRetries {
			st.rxRefused.Add(uint64(len(rem)))
			return
		}
		time.Sleep(ingestRetrySleep)
	}
}

// defaultBurst is the RX pump burst when a config leaves it 0.
const defaultBurst = 32

// egressQueue decouples the engine's TX threads from wire writes. The
// sink handoff (egress, below) copies the frame into a recycled buffer
// and enqueues it without ever blocking; a single writer goroutine
// performs the (blocking, syscall-heavy) writes. A full queue drops the
// frame into the driver's TxDrops — exactly like a NIC whose TX ring
// backed up — so the engine's own accounting records the frame as
// transmitted (the handoff succeeded) and the driver's counters record
// the wire loss.
type egressQueue struct {
	ch   chan []byte
	free chan []byte
	st   *counters
	// write performs one wire write; it reports the frame's fate
	// through the driver's own counters (countTx or txDrops).
	write func(frame []byte)
	done  chan struct{}
	wg    sync.WaitGroup
}

func newEgressQueue(depth int, st *counters, write func([]byte)) *egressQueue {
	if depth <= 0 {
		depth = defaultQueueDepth
	}
	return &egressQueue{
		ch:    make(chan []byte, depth),
		free:  make(chan []byte, depth),
		st:    st,
		write: write,
		done:  make(chan struct{}),
	}
}

func (q *egressQueue) start() {
	q.wg.Add(1)
	go q.run()
}

func (q *egressQueue) run() {
	defer q.wg.Done()
	for {
		select {
		case f := <-q.ch:
			q.write(f)
			select {
			case q.free <- f[:0]:
			default:
			}
		case <-q.done:
			// Graceful drain: flush everything queued before the close
			// was requested, then exit.
			for {
				select {
				case f := <-q.ch:
					q.write(f)
				default:
					return
				}
			}
		}
	}
}

// egress is the dataplane.PortSink the host binds: it runs on the
// engine's TX threads inside the annotated hot path, so it must hand
// the frame off and return — the wire write itself (a syscall for the
// socket drivers) happens on the writer goroutine.
//
//sdnfv:hotpath
func (q *egressQueue) egress(_ int, data []byte, _ *dataplane.Desc) {
	//sdnfv:allow(call) the one sanctioned egress handoff: push copies the frame into a recycled buffer and enqueues it for the wire writer without blocking the TX thread
	q.push(data)
}

// push copies data into a recycled buffer and enqueues it for the
// writer; a full queue counts a TxDrop instead of blocking.
func (q *egressQueue) push(data []byte) {
	var buf []byte
	select {
	case buf = <-q.free:
	default:
	}
	buf = append(buf[:0], data...)
	select {
	case q.ch <- buf:
	default:
		q.st.txDrop()
		select {
		case q.free <- buf[:0]:
		default:
		}
	}
}

// close drains the queue onto the wire and stops the writer. Frames
// pushed concurrently with close may miss the drain; they are counted
// as TxDrops below so nothing vanishes unaccounted.
func (q *egressQueue) close() {
	close(q.done)
	q.wg.Wait()
	for {
		select {
		case <-q.ch:
			q.st.txDrop()
		default:
			return
		}
	}
}
