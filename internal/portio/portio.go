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
// non-blocking channel send — and a writer goroutine takes what is
// queued, up to a burst, and writes it. The receive side is a
// per-driver RX pump goroutine feeding Host.IngestBurst; neither loop
// ever runs on an engine thread. The datagram drivers share one pump
// (dgramPort): one recvmmsg and one sendmmsg per burst on linux, waiting
// in the kernel, not the netpoller, and allocating nothing per frame.
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

func (hi hostIngress) IngestBurst(fs [][]byte) (int, int) { return hi.h.IngestBurst(hi.port, fs) }
func (hi hostIngress) FrameCap() int                      { return hi.h.FrameCap() }

// portBase is what every socket driver shares: its counters, egress
// queue, RX pump join and open-once/close-once state.
type portBase struct {
	q      *egressQueue
	ing    Ingress
	st     counters
	wg     sync.WaitGroup
	opened atomic.Bool
	closed atomic.Bool
}

// begin claims the driver for its one Open.
func (p *portBase) begin(name string, ing Ingress) error {
	if ing == nil {
		return fmt.Errorf("portio: %s driver needs an ingress", name)
	}
	if !p.opened.CompareAndSwap(false, true) {
		return fmt.Errorf("portio: %s driver already open", name)
	}
	return nil
}

func (p *portBase) startEgress(ing Ingress, burst, depth int, write func([][]byte)) {
	p.ing, p.q = ing, newEgressQueue(depth, burst, &p.st, write)
	p.q.wg.Add(1)
	go p.q.run()
}

// Sink implements PortDriver: the queued egress handoff.
func (p *portBase) Sink() dataplane.PortSink { return p.q.egress }

// Stats implements PortDriver.
func (p *portBase) Stats() DriverStats { return p.st.snapshot() }

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

// positiveOr is v, or def when a config left v unset (<= 0).
func positiveOr[T int | time.Duration](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

// ingestRetries and ingestRetrySleep bound how long an RX pump waits
// for a capacity-stalled host before dropping the remainder of a burst
// (200 × 500µs = 100ms). While the pump stalls, the backlog sits in the
// kernel-side buffer — the socket rcvbuf or the peer's TCP window — so
// transient engine stalls cost latency, not frames.
const (
	ingestRetries    = 200
	ingestRetrySleep = 500 * time.Microsecond
)

// offer pushes one RX burst into p.ing, re-offering the unconsumed tail
// after capacity refusals until it drains, the driver closes, or the
// retry budget expires. Host-refused frames (consumed but not admitted:
// malformed, unbound port) and given-up remainders both land in the
// driver's RxRefused — the former are also in HostStats.RxDrops, the
// latter never reached a host counter.
func (p *portBase) offer(frames [][]byte) {
	rem := frames
	for tries := 0; len(rem) > 0; tries++ {
		adm, cons := p.ing.IngestBurst(rem)
		if r := cons - adm; r > 0 {
			p.st.rxRefused.Add(uint64(r))
		}
		rem = rem[cons:]
		if len(rem) == 0 {
			return
		}
		if p.closed.Load() || tries >= ingestRetries {
			p.st.rxRefused.Add(uint64(len(rem)))
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
// takes what is queued, up to one burst, and hands it to one
// (blocking, syscall-heavy) write. A full queue drops the frame into
// the driver's TxDrops — exactly like a NIC whose TX ring backed up —
// so the engine's own accounting records the frame as transmitted (the
// handoff succeeded) and the driver's counters record the wire loss.
type egressQueue struct {
	ch    chan []byte
	free  chan []byte
	batch [][]byte // the writer's burst, reused
	st    *counters
	// write puts one batch on the wire; it reports each frame's fate
	// through the driver's own counters (countTx or txDrops).
	write func(frames [][]byte)
	done  chan struct{}
	wg    sync.WaitGroup
}

func newEgressQueue(depth, burst int, st *counters, write func([][]byte)) *egressQueue {
	depth, burst = positiveOr(depth, defaultQueueDepth), positiveOr(burst, defaultBurst)
	return &egressQueue{
		ch:    make(chan []byte, depth),
		free:  make(chan []byte, depth),
		batch: make([][]byte, 0, burst),
		st:    st,
		write: write,
		done:  make(chan struct{}),
	}
}

// run is the writer. It is q.ch's only receiver, so a non-empty
// channel always has a frame for it.
func (q *egressQueue) run() {
	defer q.wg.Done()
	for {
		select {
		case f := <-q.ch:
			q.flush(f)
		case <-q.done:
			// Graceful drain: flush everything queued before the close
			// was requested, then exit.
			for len(q.ch) > 0 {
				q.flush(<-q.ch)
			}
			return
		}
	}
}

// flush writes f and whatever else is already queued, up to one burst,
// with one write call, then recycles the buffers.
func (q *egressQueue) flush(f []byte) {
	b := append(q.batch[:0], f)
	for len(b) < cap(b) && len(q.ch) > 0 {
		b = append(b, <-q.ch)
	}
	q.write(b)
	for _, f := range b {
		select {
		case q.free <- f[:0]:
		default:
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
	for len(q.ch) > 0 {
		<-q.ch
		q.st.txDrop()
	}
}
