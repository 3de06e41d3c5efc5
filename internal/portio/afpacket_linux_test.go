//go:build linux

package portio_test

import (
	"errors"
	"os"
	"testing"
	"time"

	"sdnfv/internal/portio"
)

// TestAFPacketLoopback opens a raw AF_PACKET driver on "lo", transmits
// frames through its own sink, and expects to see them again on the RX
// side (loopback reflects transmitted frames back as incoming). Needs
// CAP_NET_RAW; skipped where the socket is refused (unprivileged CI).
func TestAFPacketLoopback(t *testing.T) {
	ing := &countIngress{}
	d := portio.NewAFPacket(portio.AFPacketConfig{Interface: "lo"})
	if err := d.Open(ing); err != nil {
		if errors.Is(err, os.ErrPermission) {
			t.Skipf("no CAP_NET_RAW: %v", err)
		}
		t.Fatal(err)
	}
	sink := d.Sink()
	frame := buildFrame(t, 9100, []byte("afpacket-loopback"))
	const n = 20
	for i := 0; i < n; i++ {
		sink(0, frame, nil)
		time.Sleep(time.Millisecond)
	}
	// Loopback reflects our own transmissions back at us; PACKET_OUTGOING
	// filtering drops the outgoing copy, so each frame is seen once. The
	// interface is shared (other traffic may arrive), so assert >=.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && ing.frames.Load() < n {
		time.Sleep(5 * time.Millisecond)
	}
	s := d.Stats()
	if s.TxFrames != n {
		t.Fatalf("txFrames=%d, want %d (txdrops=%d)", s.TxFrames, n, s.TxDrops)
	}
	if got := ing.frames.Load(); got < n {
		t.Fatalf("ingested %d frames, want >= %d (driver rx=%d)", got, n, s.RxFrames)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent and the loops are joined: a second Close is a
	// no-op and no further frames arrive.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAFPacketShortFramesDropped interleaves frames shorter than an
// Ethernet header, which the kernel refuses one message at a time,
// with valid ones in the same sendmmsg batches: each short frame counts
// one TxDrop and every valid one still goes out.
func TestAFPacketShortFramesDropped(t *testing.T) {
	d := portio.NewAFPacket(portio.AFPacketConfig{Interface: "lo"})
	if err := d.Open(&countIngress{}); err != nil {
		if errors.Is(err, os.ErrPermission) {
			t.Skipf("no CAP_NET_RAW: %v", err)
		}
		t.Fatal(err)
	}
	defer d.Close()
	sink := d.Sink()
	frame := buildFrame(t, 9101, []byte("afpacket-batch"))
	const n = 20
	for i := 0; i < n; i++ {
		sink(0, frame, nil)
		sink(0, frame[:4], nil)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s := d.Stats(); s.TxFrames+s.TxDrops < 2*n && time.Now().Before(deadline); s = d.Stats() {
		time.Sleep(time.Millisecond)
	}
	if s := d.Stats(); s.TxFrames != n || s.TxDrops != n {
		t.Fatalf("txFrames=%d txDrops=%d, want %d and %d", s.TxFrames, s.TxDrops, n, n)
	}
}
