package portio_test

import (
	"sync/atomic"
	"testing"
	"time"

	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/packet"
	"sdnfv/internal/portio"
)

// buildFrame builds one valid UDP-in-IPv4-in-Ethernet frame.
func buildFrame(t testing.TB, srcPort uint16, payload []byte) []byte {
	t.Helper()
	b := packet.Builder{
		SrcIP: packet.IPv4(10, 0, 0, 1), DstIP: packet.IPv4(10, 0, 0, 2),
		SrcPort: srcPort, DstPort: 80, Proto: packet.ProtoUDP,
	}
	buf := make([]byte, 2048)
	n, err := b.Build(buf, payload)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

// countIngress is a driver-only Ingress: counts frames, admits all.
type countIngress struct {
	frames atomic.Int64
	bytes  atomic.Int64
	cap    int
}

func (c *countIngress) IngestBurst(fs [][]byte) (int, int) {
	for _, f := range fs {
		c.frames.Add(1)
		c.bytes.Add(int64(len(f)))
	}
	return len(fs), len(fs)
}

func (c *countIngress) FrameCap() int {
	if c.cap == 0 {
		return 2048
	}
	return c.cap
}

// wirePair is a two-host A→B topology over one bidirectional wire:
// A: Port(0) → Out(2) → [drvA ⇄ drvB] → B: Port(2) → Out(1) → counter.
type wirePair struct {
	ha, hb    *dataplane.Host
	ba, bb    *portio.Binding
	delivered atomic.Int64
}

// newWirePair builds and starts the topology. bindB runs first so
// listen-style drivers can hand their address to the A side via mkA.
func newWirePair(t *testing.T, mkB func() portio.PortDriver, mkA func() portio.PortDriver) *wirePair {
	t.Helper()
	w := &wirePair{}
	cfg := dataplane.Config{PoolSize: 512, RingSize: 256, TXThreads: 1}
	w.ha = dataplane.NewHost(cfg)
	w.hb = dataplane.NewHost(cfg)
	mustAdd := func(h *dataplane.Host, scope flowtable.ServiceID, out int) {
		t.Helper()
		if _, err := h.Table().Add(flowtable.Rule{
			Scope: scope, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(out)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(w.ha, flowtable.Port(0), 2)
	mustAdd(w.hb, flowtable.Port(2), 1)
	w.hb.BindPort(1, func(int, []byte, *dataplane.Desc) { w.delivered.Add(1) })
	if err := w.ha.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w.hb.Start(); err != nil {
		t.Fatal(err)
	}
	var err error
	w.bb, err = portio.Bind(w.hb, 2, mkB())
	if err != nil {
		t.Fatal(err)
	}
	w.ba, err = portio.Bind(w.ha, 2, mkA())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// send injects n frames into A port 0 with end-to-end backpressure: at
// most sendWindow frames are outstanding (injected but not yet delivered
// at B), well under the ring and egress-queue depths, so a writer
// goroutine starved by a loaded CI box slows the sender down instead of
// overflowing the queue into TxDrops. A wire that really loses frames
// (or a closed peer) would stall the window forever; after a grace
// period the sender stops waiting and the caller's own delivery
// assertion reports the loss.
func (w *wirePair) send(t *testing.T, n int) {
	t.Helper()
	const sendWindow = 128
	frame := buildFrame(t, 7777, []byte("portio-test-payload"))
	base := w.delivered.Load()
	grace := time.Now().Add(2 * time.Second)
	for i := 0; i < n; i++ {
		windowFull := func() bool { return int64(i)-(w.delivered.Load()-base) >= sendWindow }
		for windowFull() && time.Now().Before(grace) {
			time.Sleep(50 * time.Microsecond)
		}
		if !windowFull() {
			grace = time.Now().Add(2 * time.Second)
		}
		for w.ha.Inject(0, frame) != nil {
			time.Sleep(5 * time.Microsecond)
		}
	}
}

// waitDelivered polls until B delivered want frames or timeout.
func (w *wirePair) waitDelivered(want int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if w.delivered.Load() >= want {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return w.delivered.Load() >= want
}

// checkIdentity asserts the extended conservation identity on a host.
func checkIdentity(t *testing.T, name string, st dataplane.HostStats) {
	t.Helper()
	if !st.Conserved() {
		t.Fatalf("%s identity broken: rx=%d tx=%d drops=%d overflows=%d txdrops=%d rxdrops=%d",
			name, st.RxPackets, st.TxPackets, st.Drops, st.Overflows, st.TxDrops, st.RxDrops)
	}
}

// stop tears down in the wire order: hosts, then bindings (drain).
func (w *wirePair) stop() {
	w.ha.Stop()
	w.hb.Stop()
	w.ba.Close()
	w.bb.Close()
}

// TestBindingCloseIdempotentAndLate checks the teardown contract over a
// UDP pair: Close is idempotent, a frame reaching a port whose binding
// closed counts in the host's RxDrops, and both hosts' accounting
// identities keep balancing while A keeps transmitting at the closed
// peer.
func TestBindingCloseIdempotentAndLate(t *testing.T) {
	_, _, w := udpWirePair(t)
	w.send(t, 100)
	if !w.waitDelivered(100, 5*time.Second) {
		t.Fatalf("delivered %d/100", w.delivered.Load())
	}
	if err := w.bb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.bb.Close(); err != nil {
		t.Fatal(err)
	}
	w.send(t, 50)
	// Late wire arrival: the ingress unbind means a frame that does reach
	// B's port now counts in RxDrops.
	before := w.hb.Stats().RxDrops
	if err := w.hb.Ingest(2, buildFrame(t, 1, nil)); err == nil {
		t.Fatal("Ingest on unbound port admitted")
	}
	if got := w.hb.Stats().RxDrops; got != before+1 {
		t.Fatalf("B rxdrops=%d, want %d after late arrival", got, before+1)
	}
	w.stop()
	checkIdentity(t, "A", w.ha.Stats())
	checkIdentity(t, "B", w.hb.Stats())
}

// TestParsePort covers the flag grammar.
func TestParsePort(t *testing.T) {
	ok := []struct {
		spec, name string
		port       int
	}{
		{"2=udp:127.0.0.1:0", "udp", 2},
		{"2=udp:127.0.0.1:7002/127.0.0.1:7102", "udp", 2},
		{"0=tcp:10.0.0.2:7100", "tcp", 0},
		{"3=tcp-listen:0.0.0.0:7100", "tcp-listen", 3},
		{"1=afpacket:veth0", "afpacket", 1},
	}
	for _, tc := range ok {
		port, d, err := portio.ParsePort(tc.spec)
		if err != nil {
			t.Fatalf("ParsePort(%q): %v", tc.spec, err)
		}
		if port != tc.port || d.Name() != tc.name {
			t.Fatalf("ParsePort(%q) = (%d, %s), want (%d, %s)", tc.spec, port, d.Name(), tc.port, tc.name)
		}
	}
	bad := []string{
		"", "udp:127.0.0.1:0", "x=udp:127.0.0.1:0", "-1=udp:127.0.0.1:0",
		"2=udp", "2=udp:", "2=tcp:", "2=tcp-listen:", "2=afpacket:", "2=dpdk:0",
	}
	for _, spec := range bad {
		if _, _, err := portio.ParsePort(spec); err == nil {
			t.Fatalf("ParsePort(%q) accepted", spec)
		}
	}
	var f portio.PortFlags
	if err := f.Set("2=udp:127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := f.Set("2=tcp:10.0.0.1:1"); err == nil {
		t.Fatal("duplicate port accepted")
	}
	if err := f.Set("3=tcp:10.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if got := f.String(); got != "2=udp:127.0.0.1:0,3=tcp:10.0.0.1:1" {
		t.Fatalf("String() = %q", got)
	}
}
