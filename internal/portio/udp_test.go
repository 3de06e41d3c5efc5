package portio_test

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"sdnfv/internal/portio"
)

// udpPair opens two cross-connected UDP drivers on loopback ephemeral
// ports and returns them wired (peer addresses exchanged after Open).
func udpWirePair(t *testing.T) (*portio.UDPDriver, *portio.UDPDriver, *wirePair) {
	t.Helper()
	da := portio.NewUDP(portio.UDPConfig{Listen: "127.0.0.1:0"})
	db := portio.NewUDP(portio.UDPConfig{Listen: "127.0.0.1:0"})
	w := newWirePair(t,
		func() portio.PortDriver { return db },
		func() portio.PortDriver { return da },
	)
	if err := da.SetPeer(db.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := db.SetPeer(da.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	return da, db, w
}

// TestUDPLoopbackE2E is the loopback round-trip: the A→B chain over
// real UDP sockets, with the wire accounting reconciled across the
// socket boundary. Skipped in -short mode (it moves thousands of
// datagrams through the kernel).
func TestUDPLoopbackE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback UDP E2E skipped in short mode")
	}
	da, db, w := udpWirePair(t)
	const n = 2000
	w.send(t, n)
	if !w.waitDelivered(n, 15*time.Second) {
		t.Logf("driver A: %+v", da.Stats())
		t.Logf("driver B: %+v", db.Stats())
		t.Fatalf("delivered %d/%d", w.delivered.Load(), n)
	}
	w.stop()
	sa, sb := w.ha.Stats(), w.hb.Stats()
	checkIdentity(t, "A", sa)
	checkIdentity(t, "B", sb)
	das, dbs := da.Stats(), db.Stats()
	// Everything the engine handed off was written (paced traffic, no
	// queue overflow), and everything written crossed loopback.
	if das.TxFrames+das.TxDrops != sa.TxPackets {
		t.Fatalf("A: host tx=%d != driver tx=%d + txdrops=%d", sa.TxPackets, das.TxFrames, das.TxDrops)
	}
	if dbs.RxFrames != das.TxFrames {
		t.Fatalf("B received %d != A sent %d", dbs.RxFrames, das.TxFrames)
	}
	// The pump's capacity-retry backpressure (kernel rcvbuf as the wire
	// buffer) makes paced loopback traffic lossless: nothing refused on
	// either side of the boundary.
	if dbs.RxRefused != 0 || sb.RxDrops != 0 {
		t.Fatalf("B refused frames: driver rxRefused=%d host rxdrops=%d", dbs.RxRefused, sb.RxDrops)
	}
	if sa.Pool.InUse != 0 || sb.Pool.InUse != 0 {
		t.Fatalf("pool leak: A=%d B=%d", sa.Pool.InUse, sb.Pool.InUse)
	}
	// One Ports entry per bound driver in the stats snapshot.
	if len(sb.Ports) != 1 || sb.Ports[0].Driver != "udp" || sb.Ports[0].Port != 2 {
		t.Fatalf("B Ports snapshot = %+v", sb.Ports)
	}
}

// TestUDPMalformedDatagrams is the satellite regression test: garbage
// and oversize datagrams fired at a driver's socket are classified at
// the boundary — malformed frames land in the host's RxDrops, oversize
// ones die in the driver's RxOversize — and the host never crashes or
// admits them.
func TestUDPMalformedDatagrams(t *testing.T) {
	da, db, w := udpWirePair(t)
	_ = da
	// A raw attacker socket, aimed at B's driver.
	attacker, err := net.Dial("udp", db.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()

	// Malformed: parses at no layer; must be offered and refused.
	for i := 0; i < 10; i++ {
		if _, err := attacker.Write([]byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
			t.Fatal(err)
		}
	}
	// Oversize: bigger than the pool frame cap (2048); the driver must
	// drop it at the boundary, not hand a truncated frame to the host.
	big := make([]byte, w.hb.FrameCap()+100)
	for i := 0; i < 5; i++ {
		if _, err := attacker.Write(big); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s := db.Stats()
		if s.RxRefused >= 10 && s.RxOversize >= 5 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	dbs := db.Stats()
	if dbs.RxRefused < 10 {
		t.Fatalf("driver rxRefused=%d, want >= 10", dbs.RxRefused)
	}
	if dbs.RxOversize < 5 {
		t.Fatalf("driver rxOversize=%d, want >= 5", dbs.RxOversize)
	}
	st := w.hb.Stats()
	if st.RxDrops < 10 {
		t.Fatalf("host rxdrops=%d, want >= 10", st.RxDrops)
	}
	// The host still forwards legitimate traffic after the garbage.
	w.send(t, 50)
	if !w.waitDelivered(50, 10*time.Second) {
		t.Fatalf("delivered %d/50 after malformed barrage", w.delivered.Load())
	}
	w.stop()
	checkIdentity(t, "B", w.hb.Stats())
}

// TestUDPLifecycle: Open → traffic → Close is leak-free and Close is
// idempotent, including closing with egress still queued (drained onto
// the wire, counted).
func TestUDPLifecycle(t *testing.T) {
	da, db, w := udpWirePair(t)
	w.send(t, 200)
	w.waitDelivered(1, 5*time.Second)
	w.stop()
	if err := da.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.ha.Pool().Stats().InUse; got != 0 {
		t.Fatalf("A pool leak: %d", got)
	}
	if got := w.hb.Pool().Stats().InUse; got != 0 {
		t.Fatalf("B pool leak: %d", got)
	}
	checkIdentity(t, "A", w.ha.Stats())
	checkIdentity(t, "B", w.hb.Stats())
}

// latIngress timestamps arrivals against a sender-embedded UnixNano in
// the first 8 frame bytes, for the sparse-latency bound.
type latIngress struct {
	sum atomic.Int64
	n   atomic.Int64
}

func (s *latIngress) Ingest(f []byte) error {
	var ts int64
	for i := 0; i < 8; i++ {
		ts = ts<<8 | int64(f[i])
	}
	s.sum.Add(time.Now().UnixNano() - ts)
	s.n.Add(1)
	return nil
}

func (s *latIngress) IngestBurst(fs [][]byte) (int, int) {
	for _, f := range fs {
		s.Ingest(f)
	}
	return len(fs), len(fs)
}

func (s *latIngress) FrameCap() int { return 2048 }

// TestUDPSparseLatency bounds the one-way driver latency for sparse
// traffic: batching must come from draining what the kernel already
// queued, never from parking in the poller, whose ~1ms timer
// granularity would dominate (the bug this guards against measured
// ~1.2ms mean; the drain path measures ~20µs).
func TestUDPSparseLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive loopback test")
	}
	ing := &latIngress{}
	recv := portio.NewUDP(portio.UDPConfig{Listen: "127.0.0.1:0"})
	if err := recv.Open(ing); err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send := portio.NewUDP(portio.UDPConfig{Listen: "127.0.0.1:0", Peer: recv.LocalAddr().String()})
	if err := send.Open(&countIngress{}); err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	sink := send.Sink()
	frame := make([]byte, 256)
	const n = 300
	for i := 0; i < n; i++ {
		ts := time.Now().UnixNano()
		for j := 0; j < 8; j++ {
			frame[j] = byte(ts >> (8 * (7 - j)))
		}
		sink(0, frame, nil)
		time.Sleep(500 * time.Microsecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && ing.n.Load() < n {
		time.Sleep(time.Millisecond)
	}
	got := ing.n.Load()
	if got == 0 {
		t.Fatal("no frames delivered")
	}
	mean := time.Duration(ing.sum.Load() / got)
	t.Logf("sparse one-way latency: mean %v over %d frames", mean, got)
	if mean > time.Millisecond {
		t.Fatalf("sparse mean latency %v, want < 1ms (poller parking on the RX path?)", mean)
	}
}
