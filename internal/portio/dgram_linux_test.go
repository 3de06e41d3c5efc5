package portio_test

import (
	"bytes"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"sdnfv/internal/portio"
)

// openUDP opens a UDP driver on an ephemeral loopback port into ing.
func openUDP(t *testing.T, ing portio.Ingress, peer string) *portio.UDPDriver {
	t.Helper()
	d := portio.NewUDP(portio.UDPConfig{Listen: "127.0.0.1:0", Peer: peer})
	if err := d.Open(ing); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

// TestUDPDriverNoAllocs pins the zero-allocation wire: frames pushed
// through one driver's sink, sent with sendmmsg and received by another
// driver's recvmmsg pump into a counting ingress, allocate nothing per
// frame once the egress buffers have been recycled.
func TestUDPDriverNoAllocs(t *testing.T) {
	ing := &countIngress{}
	recv := openUDP(t, ing, "")
	send := openUDP(t, &countIngress{}, recv.LocalAddr().String())
	sink := send.Sink()
	frame := buildFrame(t, 4242, make([]byte, 256))
	var sent int64
	// push sends n frames with at most 64 in flight, so neither the
	// egress queue nor the socket buffer ever drops one.
	push := func(n int) {
		deadline := time.Now().Add(10 * time.Second)
		for i := 0; i < n; i++ {
			for sent-ing.frames.Load() >= 64 && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			sink(0, frame, nil)
			sent++
		}
		for ing.frames.Load() < sent && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if got := ing.frames.Load(); got != sent {
			t.Fatalf("received %d of %d frames (sender %+v)", got, sent, send.Stats())
		}
	}
	push(1000) // fills the egress free list
	const n = 10000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	push(n)
	runtime.ReadMemStats(&after)
	perFrame := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.4f allocs/frame over %d frames", perFrame, n)
	if perFrame >= 0.01 {
		t.Fatalf("%.4f allocs/frame, want < 0.01", perFrame)
	}
}

// burstIngress records every burst it is offered (copied: the pump
// reuses its buffers) and holds the first one until released, so the
// datagrams sent meanwhile queue up for a single recvmmsg.
type burstIngress struct {
	mu      sync.Mutex
	bursts  [][][]byte
	gate    chan struct{}
	arrived chan struct{}
}

func (b *burstIngress) IngestBurst(fs [][]byte) (int, int) {
	burst := make([][]byte, len(fs))
	for i, f := range fs {
		burst[i] = bytes.Clone(f)
	}
	b.mu.Lock()
	b.bursts = append(b.bursts, burst)
	first := len(b.bursts) == 1
	b.mu.Unlock()
	if first {
		close(b.arrived)
		<-b.gate
	}
	return len(fs), len(fs)
}

func (b *burstIngress) FrameCap() int { return 512 }

// TestUDPBurstMixesOversize queues valid and oversize datagrams behind a
// stalled pump so one recvmmsg returns them all: each oversize datagram
// counts RxOversize and its valid neighbours arrive in order, in one
// burst.
func TestUDPBurstMixesOversize(t *testing.T) {
	ing := &burstIngress{gate: make(chan struct{}), arrived: make(chan struct{})}
	d := openUDP(t, ing, "")
	c, err := net.Dial("udp", d.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	write := func(b []byte) {
		if _, err := c.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	write([]byte("gate"))
	<-ing.arrived // the pump is now held inside the first offer
	big := make([]byte, ing.FrameCap()+1)
	want := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	write(want[0])
	write(big)
	write(want[1])
	write(big)
	write(big)
	write(want[2])
	close(ing.gate)
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().RxFrames < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := d.Stats()
	if st.RxOversize != 3 || st.RxFrames != 4 {
		t.Fatalf("rxOversize=%d rxFrames=%d, want 3 and 4", st.RxOversize, st.RxFrames)
	}
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if len(ing.bursts) != 2 || len(ing.bursts[1]) != len(want) {
		t.Fatalf("bursts %q, want the gate then one burst of %q", ing.bursts, want)
	}
	for i, f := range ing.bursts[1] {
		if !bytes.Equal(f, want[i]) {
			t.Fatalf("burst frame %d = %q, want %q", i, f, want[i])
		}
	}
}

// TestUDPSendFailuresCounted: with no peer, and with a peer every send
// to fails (port 0 is refused per message), each frame the host hands
// the driver lands in TxFrames or TxDrops, never nowhere.
func TestUDPSendFailuresCounted(t *testing.T) {
	for _, peer := range []string{"", "127.0.0.1:0"} {
		da := portio.NewUDP(portio.UDPConfig{Listen: "127.0.0.1:0"})
		db := portio.NewUDP(portio.UDPConfig{Listen: "127.0.0.1:0"})
		w := newWirePair(t, func() portio.PortDriver { return db }, func() portio.PortDriver { return da })
		if peer != "" {
			if err := da.SetPeer(peer); err != nil {
				t.Fatal(err)
			}
		}
		const n = 100
		w.send(t, n) // under the send window: no wait for deliveries
		deadline := time.Now().Add(5 * time.Second)
		for da.Stats().TxDrops < n && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		w.stop()
		sa, das := w.ha.Stats(), da.Stats()
		if sa.TxPackets != n || das.TxFrames+das.TxDrops != sa.TxPackets || das.TxFrames != 0 {
			t.Fatalf("peer %q: host tx=%d, driver tx=%d + txdrops=%d, want %d dropped", peer, sa.TxPackets, das.TxFrames, das.TxDrops, n)
		}
		checkIdentity(t, "A", sa)
	}
}

// TestUDPCloseIdle: Close wakes a pump blocked in recvmmsg at once.
func TestUDPCloseIdle(t *testing.T) {
	d := openUDP(t, &countIngress{}, "")
	time.Sleep(20 * time.Millisecond) // let the pump block
	start := time.Now()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("Close on an idle pump took %v, want < 100ms", el)
	}
}

// TestUDPOpenCloseNoFdLeak: open/close cycles return every descriptor.
func TestUDPOpenCloseNoFdLeak(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip(err)
		}
		return len(ents)
	}
	before := fds()
	for i := 0; i < 200; i++ {
		d := portio.NewUDP(portio.UDPConfig{Listen: "127.0.0.1:0"})
		if err := d.Open(&countIngress{}); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if after := fds(); after > before {
		t.Fatalf("open descriptors %d -> %d after 200 open/close cycles", before, after)
	}
}
