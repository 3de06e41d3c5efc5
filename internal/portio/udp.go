package portio

import (
	"fmt"
	"net"
	"sync/atomic"
)

// UDPConfig configures a UDPDriver.
type UDPConfig struct {
	// Listen is the local address to bind (host:port; port 0 picks an
	// ephemeral port — read it back with LocalAddr after Open).
	Listen string
	// Peer is the remote address egress datagrams go to. Empty means
	// receive-only until SetPeer is called.
	Peer string
	// QueueDepth is the egress queue depth (default 256).
	QueueDepth int
}

// udpReadBuffer is the SO_RCVBUF hint: the kernel socket buffer is the
// only place a UDP wire can absorb a burst, so it is sized generously.
const udpReadBuffer = 1 << 20

// UDPDriver carries one frame per datagram over a UDP socket: the
// simplest real wire — preserves frame boundaries, loses frames under
// overload exactly like a physical link. It runs on the shared datagram
// pump (dgramPort). Oversize datagrams (bigger than the ingress frame
// cap) are detected by reading into cap+1-byte buffers and counted in
// RxOversize instead of being truncated silently by the kernel.
type UDPDriver struct {
	dgramPort
	cfg  UDPConfig
	peer atomic.Pointer[udpPeer]
}

// NewUDP builds an unopened UDP driver.
func NewUDP(cfg UDPConfig) *UDPDriver { return &UDPDriver{cfg: cfg} }

// Name implements PortDriver.
func (d *UDPDriver) Name() string { return "udp" }

// Open implements PortDriver: bind the socket, start the egress writer
// and the RX pump.
func (d *UDPDriver) Open(ing Ingress) error {
	if err := d.begin("udp", ing); err != nil {
		return err
	}
	pc, err := net.ListenPacket("udp", d.cfg.Listen)
	if err != nil {
		return fmt.Errorf("portio: udp listen: %w", err)
	}
	conn := pc.(*net.UDPConn)
	// Best-effort: the kernel may clamp to rmem_max; a smaller buffer
	// only means earlier wire loss, which the accounting surfaces.
	_ = conn.SetReadBuffer(udpReadBuffer)
	if d.sock, err = udpSock(conn); err != nil {
		_ = conn.Close()
		return fmt.Errorf("portio: udp socket: %w", err)
	}
	if d.cfg.Peer != "" {
		if err := d.SetPeer(d.cfg.Peer); err != nil {
			_ = d.sock.close()
			return err
		}
	}
	d.start(ing, d.cfg.QueueDepth, d.writeWire)
	return nil
}

// LocalAddr returns the bound socket address (valid after Open) — how
// two ephemeral-port processes exchange endpoints during handshake.
func (d *UDPDriver) LocalAddr() net.Addr { return d.sock.conn.LocalAddr() }

// SetPeer (re)points egress at addr; valid once Open has bound the
// socket (Open applies UDPConfig.Peer) and safe while traffic flows.
func (d *UDPDriver) SetPeer(addr string) error {
	if d.sock.conn == nil {
		return fmt.Errorf("portio: udp SetPeer %s before Open", addr)
	}
	a, err := net.ResolveUDPAddr("udp", addr)
	var p *udpPeer
	if err == nil {
		p, err = d.sock.peer(a)
	}
	if err != nil {
		return fmt.Errorf("portio: udp peer addr: %w", err)
	}
	d.peer.Store(p)
	return nil
}

// writeWire sends one egress batch, one datagram per frame (writer
// goroutine only).
func (d *UDPDriver) writeWire(frames [][]byte) {
	p := d.peer.Load()
	if p == nil {
		d.st.txDrops.Add(uint64(len(frames)))
		return
	}
	d.sock.sendTo(d.tx, frames, p, &d.st)
}
