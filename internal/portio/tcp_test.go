package portio_test

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"sdnfv/internal/portio"
)

// TestTCPLoopbackE2E runs the A→B chain over a real TCP stream:
// B listens, A dials, frames cross with length-prefixed framing.
func TestTCPLoopbackE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP E2E skipped in short mode")
	}
	db := portio.NewTCP(portio.TCPConfig{Addr: "127.0.0.1:0", Listen: true})
	var da *portio.TCPDriver
	w := newWirePair(t,
		func() portio.PortDriver { return db },
		func() portio.PortDriver {
			// B is already open here (newWirePair binds B first), so its
			// ephemeral listener address is known.
			da = portio.NewTCP(portio.TCPConfig{Addr: db.LocalAddr().String()})
			return da
		},
	)
	const n = 2000
	// The dial happens asynchronously in A's connection loop; frames
	// egressing before it completes are TxDrops (link down), so wait for
	// the link before measuring.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && da.Stats().TxFrames == 0 {
		w.send(t, 1)
		time.Sleep(5 * time.Millisecond)
	}
	w.send(t, n)
	if !w.waitDelivered(n, 15*time.Second) {
		t.Logf("driver A: %+v", da.Stats())
		t.Logf("driver B: %+v", db.Stats())
		t.Fatalf("delivered %d/%d", w.delivered.Load(), n)
	}
	// waitDelivered counts the n frames, but A also sent the link probes:
	// wait until A has put every frame it received on the wire and B has
	// read every frame A wrote, so the checks below see a quiescent stream.
	if !waitStat(15*time.Second, func() bool {
		das := da.Stats()
		return das.TxFrames+das.TxDrops == w.ha.Stats().RxPackets && db.Stats().RxFrames == das.TxFrames
	}) {
		t.Fatalf("stream did not drain: A host %+v, driver A %+v, driver B %+v", w.ha.Stats(), da.Stats(), db.Stats())
	}
	w.stop()
	sa, sb := w.ha.Stats(), w.hb.Stats()
	checkIdentity(t, "A", sa)
	checkIdentity(t, "B", sb)
	das, dbs := da.Stats(), db.Stats()
	if das.TxFrames+das.TxDrops != sa.TxPackets {
		t.Fatalf("A: host tx=%d != driver tx=%d + txdrops=%d", sa.TxPackets, das.TxFrames, das.TxDrops)
	}
	// TCP does not lose frames in flight: everything written arrives.
	if dbs.RxFrames != das.TxFrames {
		t.Fatalf("B received %d != A sent %d", dbs.RxFrames, das.TxFrames)
	}
	if dbs.RxRefused != 0 || sb.RxDrops != 0 {
		t.Fatalf("B refused frames: driver rxRefused=%d host rxdrops=%d", dbs.RxRefused, sb.RxDrops)
	}
	if sa.Pool.InUse != 0 || sb.Pool.InUse != 0 {
		t.Fatalf("pool leak: A=%d B=%d", sa.Pool.InUse, sb.Pool.InUse)
	}
}

// writePrefixed writes one length-prefixed frame to a raw conn.
func writePrefixed(t *testing.T, c net.Conn, frame []byte) {
	t.Helper()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))
	if _, err := c.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// waitStat polls fn until it returns true or the deadline passes.
func waitStat(timeout time.Duration, fn func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if fn() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return fn()
}

// TestTCPStreamHardening covers the framing failure modes against a
// listen-mode driver: oversize prefixes are skipped and counted, a
// stream cut mid-frame counts RxTruncated, a desynchronized prefix
// drops the connection, and the driver keeps accepting fresh peers
// (counted in Reconnects) through all of it.
func TestTCPStreamHardening(t *testing.T) {
	ing := &countIngress{cap: 128}
	d := portio.NewTCP(portio.TCPConfig{Addr: "127.0.0.1:0", Listen: true, BackoffMin: 2 * time.Millisecond})
	if err := d.Open(ing); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", d.LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Happy path: one valid frame arrives.
	c := dial()
	writePrefixed(t, c, []byte("hello"))
	if !waitStat(5*time.Second, func() bool { return ing.frames.Load() == 1 }) {
		t.Fatalf("frames=%d, want 1", ing.frames.Load())
	}
	// Oversize (> frame cap, < desync bound): skipped in-stream, the
	// next valid frame still arrives on the same connection.
	writePrefixed(t, c, make([]byte, 500))
	writePrefixed(t, c, []byte("after-oversize"))
	if !waitStat(5*time.Second, func() bool { return ing.frames.Load() == 2 }) {
		t.Fatalf("frames=%d, want 2 (oversize must be skipped, not fatal)", ing.frames.Load())
	}
	if got := d.Stats().RxOversize; got != 1 {
		t.Fatalf("rxOversize=%d, want 1", got)
	}
	// Truncation: a prefix promising 50 bytes, 10 delivered, then cut.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 50)
	if _, err := c.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if !waitStat(5*time.Second, func() bool { return d.Stats().RxTruncated >= 1 }) {
		t.Fatalf("rxTruncated=%d, want >= 1", d.Stats().RxTruncated)
	}
	// The driver accepts a fresh peer after the cut...
	c2 := dial()
	writePrefixed(t, c2, []byte("post-reconnect"))
	if !waitStat(5*time.Second, func() bool { return ing.frames.Load() == 3 }) {
		t.Fatalf("frames=%d, want 3 after reconnect", ing.frames.Load())
	}
	if got := d.Stats().Reconnects; got < 1 {
		t.Fatalf("reconnects=%d, want >= 1", got)
	}
	// ...and a desynchronized prefix (> maxTCPFrame) makes it drop the
	// connection rather than discard gigabytes.
	binary.BigEndian.PutUint32(hdr[:], 1<<24)
	if _, err := c2.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1)
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c2.Read(one); err == nil {
		t.Fatal("driver kept a desynchronized connection alive")
	}
	c2.Close()
}

// TestTCPReconnectMidTraffic kills the live connection under a dial-mode
// driver while egress flows: the driver must reconnect with backoff
// (Reconnects >= 1) and the egress accounting must stay exact — every
// frame handed to the sink is either on the wire or in TxDrops.
func TestTCPReconnectMidTraffic(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 16)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	ing := &countIngress{}
	d := portio.NewTCP(portio.TCPConfig{
		Addr:       ln.Addr().String(),
		BackoffMin: 2 * time.Millisecond,
		QueueDepth: 64,
	})
	if err := d.Open(ing); err != nil {
		t.Fatal(err)
	}
	sink := d.Sink()
	frame := buildFrame(t, 9000, []byte("reconnect-traffic"))
	var c1 net.Conn
	select {
	case c1 = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("driver never dialed")
	}
	sent := 0
	send := func(n int) {
		for i := 0; i < n; i++ {
			sink(0, frame, nil)
			sent++
			time.Sleep(500 * time.Microsecond)
		}
	}
	send(50)
	// Kill the connection mid-traffic while more egress arrives.
	c1.Close()
	send(100)
	var c2 net.Conn
	select {
	case c2 = <-accepted:
	case <-time.After(10 * time.Second):
		t.Fatalf("no reconnect; stats %+v", d.Stats())
	}
	defer c2.Close()
	send(50)
	if !waitStat(5*time.Second, func() bool {
		s := d.Stats()
		return s.Reconnects >= 1 && s.TxFrames+s.TxDrops >= uint64(sent)
	}) {
		t.Fatalf("stats never settled: %+v (sent %d)", d.Stats(), sent)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Reconnects < 1 {
		t.Fatalf("reconnects=%d, want >= 1", s.Reconnects)
	}
	// Exact egress accounting across the reconnect: nothing vanished.
	if s.TxFrames+s.TxDrops != uint64(sent) {
		t.Fatalf("tx=%d + txdrops=%d != sent=%d", s.TxFrames, s.TxDrops, sent)
	}
	if s.TxFrames == 0 {
		t.Fatal("no frames made it to the wire at all")
	}
}
