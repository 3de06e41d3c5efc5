package portio

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync/atomic"
	"time"
)

// maxTCPFrame is the sanity bound on a length prefix: anything larger
// means the stream is desynchronized (or hostile), so the connection
// is dropped and re-established rather than discarding gigabytes.
const maxTCPFrame = 1 << 20

// TCPConfig configures a TCPDriver.
type TCPConfig struct {
	// Addr is the remote address to dial, or the local address to
	// listen on when Listen is true.
	Addr string
	// Listen accepts one peer at a time instead of dialing out.
	Listen bool
	// QueueDepth is the egress queue depth (default 256).
	QueueDepth int
	// BackoffMin is the first reconnect backoff (default 50ms); it
	// doubles between attempts up to tcpBackoffMax.
	BackoffMin time.Duration
}

const (
	// tcpBackoffMax caps the reconnect backoff.
	tcpBackoffMax = 2 * time.Second
	// tcpDialTimeout bounds each dial attempt.
	tcpDialTimeout = time.Second
)

// TCPDriver carries frames over a TCP stream with a 4-byte big-endian
// length prefix per frame. The connection loop re-establishes the link
// with exponential backoff after any failure — counted in Reconnects —
// and frames egressing while the link is down count in TxDrops (the
// wire was down; nothing is buffered across reconnects beyond the
// egress queue). A length prefix above the ingress frame cap is
// skipped and counted in RxOversize; a stream cut mid-frame counts in
// RxTruncated.
type TCPDriver struct {
	portBase
	cfg  TCPConfig
	ln   net.Listener
	cur  atomic.Pointer[tcpConn]
	done chan struct{}
	// wbuf assembles prefix+frame for one Write call; owned by the
	// single egress writer goroutine.
	wbuf []byte
}

// tcpConn boxes the live connection for atomic publication between the
// connection loop (writes) and the egress writer (reads).
type tcpConn struct{ c net.Conn }

// NewTCP builds an unopened TCP driver.
func NewTCP(cfg TCPConfig) *TCPDriver {
	cfg.BackoffMin = positiveOr(cfg.BackoffMin, 50*time.Millisecond)
	return &TCPDriver{cfg: cfg}
}

// Name implements PortDriver.
func (d *TCPDriver) Name() string {
	if d.cfg.Listen {
		return "tcp-listen"
	}
	return "tcp"
}

// Open implements PortDriver: start the egress writer and the
// connection loop (which dials or accepts, then pumps RX).
func (d *TCPDriver) Open(ing Ingress) error {
	if err := d.begin(d.Name(), ing); err != nil {
		return err
	}
	if d.cfg.Listen {
		ln, err := net.Listen("tcp", d.cfg.Addr)
		if err != nil {
			return err
		}
		d.ln = ln
	}
	d.done = make(chan struct{})
	d.startEgress(ing, d.cfg.QueueDepth, d.writeWire)
	d.wg.Add(1)
	go d.connLoop()
	return nil
}

// LocalAddr returns the listener address (listen mode, after Open).
func (d *TCPDriver) LocalAddr() net.Addr {
	if d.ln != nil {
		return d.ln.Addr()
	}
	return nil
}

// connLoop owns the connection lifecycle: establish (dial with backoff
// or accept), publish for the egress writer, pump RX until the
// connection dies, repeat until Close.
func (d *TCPDriver) connLoop() {
	defer d.wg.Done()
	backoff := d.cfg.BackoffMin
	first := true
	for {
		select {
		case <-d.done:
			return
		default:
		}
		c, err := d.establish()
		if err != nil {
			if d.closed.Load() {
				return
			}
			select {
			case <-d.done:
				return
			case <-time.After(backoff):
			}
			backoff = min(2*backoff, tcpBackoffMax)
			continue
		}
		backoff = d.cfg.BackoffMin
		if !first {
			d.st.reconnects.Add(1)
		}
		first = false
		d.cur.Store(&tcpConn{c: c})
		if d.closed.Load() {
			// Close ran while we were establishing and may have missed
			// this connection; tear it down ourselves.
			c.Close()
			d.cur.Store(nil)
			return
		}
		d.readLoop(c)
		d.cur.Store(nil)
		c.Close()
	}
}

func (d *TCPDriver) establish() (net.Conn, error) {
	if d.ln != nil {
		return d.ln.Accept() // unblocked by ln.Close
	}
	return net.DialTimeout("tcp", d.cfg.Addr, tcpDialTimeout)
}

// readLoop decodes length-prefixed frames off one connection and
// pumps them into the host in bursts until the stream errors.
func (d *TCPDriver) readLoop(c net.Conn) {
	br := bufio.NewReaderSize(c, 64<<10)
	fcap := d.ing.FrameCap()
	bufs := make([][]byte, wireBurst)
	for i := range bufs {
		bufs[i] = make([]byte, fcap)
	}
	frames := make([][]byte, 0, wireBurst)
	flush := func() {
		if len(frames) == 0 {
			return
		}
		for _, f := range frames {
			d.st.countRx(len(f))
		}
		d.offer(frames)
		frames = frames[:0]
	}
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				d.st.rxTruncated.Add(1)
			}
			flush()
			return
		}
		n := int(binary.BigEndian.Uint32(hdr[:]))
		switch {
		case n > maxTCPFrame:
			// Desynced stream: drop the connection, let the loop
			// re-establish a clean one.
			d.st.rxTruncated.Add(1)
			flush()
			return
		case n > fcap:
			d.st.rxOversize.Add(1)
			if _, err := io.CopyN(io.Discard, br, int64(n)); err != nil {
				d.st.rxTruncated.Add(1)
				flush()
				return
			}
		default:
			buf := bufs[len(frames)]
			if _, err := io.ReadFull(br, buf[:n]); err != nil {
				d.st.rxTruncated.Add(1)
				flush()
				return
			}
			frames = append(frames, buf[:n])
		}
		// Flush when the burst is full or the stream has gone quiet
		// enough that the next header read would likely block.
		if len(frames) == wireBurst || br.Buffered() < len(hdr) {
			flush()
		}
	}
}

// writeWire writes a batch one prefixed frame at a time (egress writer
// goroutine only); a write error kills the connection so the loop
// reconnects, and the rest of the batch counts as dropped until it has.
func (d *TCPDriver) writeWire(frames [][]byte) {
	for _, frame := range frames {
		cw := d.cur.Load()
		if cw == nil {
			d.st.txDrops.Add(1)
			continue
		}
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))
		d.wbuf = append(append(d.wbuf[:0], hdr[:]...), frame...)
		if _, err := cw.c.Write(d.wbuf); err != nil {
			d.st.txDrops.Add(1)
			cw.c.Close()
			continue
		}
		d.st.countTx(len(frame))
	}
}

// Close implements PortDriver: flush queued egress, then tear down the
// listener/connection and join the loops.
func (d *TCPDriver) Close() error {
	if !d.closed.CompareAndSwap(false, true) || d.q == nil {
		return nil
	}
	d.q.close()
	close(d.done)
	if d.ln != nil {
		d.ln.Close()
	}
	if cw := d.cur.Load(); cw != nil {
		cw.c.Close()
	}
	d.wg.Wait()
	return nil
}
