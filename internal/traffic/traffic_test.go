package traffic

import (
	"errors"
	"math"
	"testing"

	"sdnfv/internal/nfs"
	"sdnfv/internal/packet"
)

func TestFlowsDistinct(t *testing.T) {
	a, b := Flow(1, 64, 1), Flow(2, 64, 1)
	if a.Key == b.Key {
		t.Fatal("flows not distinct")
	}
	if a.Key.Hash() == b.Key.Hash() {
		t.Fatal("flow hashes collide")
	}
}

func TestFrameTimestampRoundtrip(t *testing.T) {
	f := NewFactory()
	for _, size := range []int{64, 256, 1024, 1025, 1066, 1067, 1500, 2048} {
		spec := Flow(3, size, 1e6)
		frame, err := f.Frame(spec, int64(size)*1000)
		if err != nil {
			t.Fatalf("%d B: %v", size, err)
		}
		if len(frame) != size {
			t.Fatalf("frame len = %d, want %d", len(frame), size)
		}
		if ts, ok := ExtractTimestamp(frame); !ok || ts != int64(size)*1000 {
			t.Fatalf("%d B: timestamp = %d ok=%v", size, ts, ok)
		}
		v, err := packet.Parse(frame)
		if err != nil {
			t.Fatal(err)
		}
		if v.FlowKey() != spec.Key {
			t.Fatalf("key = %v, want %v", v.FlowKey(), spec.Key)
		}
	}
	// Beyond the 2 KiB scratch: an error, not a panic.
	if _, err := f.Frame(Flow(3, 2049, 1e6), 0); !errors.Is(err, packet.ErrTooShort) {
		t.Fatalf("2049 B: err = %v, want ErrTooShort", err)
	}
}

func TestExtractTimestampRejectsForeign(t *testing.T) {
	f := NewFactory()
	spec := Flow(1, 128, 1e6)
	frame, err := f.PayloadFrame(spec, []byte("hello world, no magic here"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ExtractTimestamp(frame); ok {
		t.Fatal("foreign payload produced a timestamp")
	}
}

func TestHTTPPayloads(t *testing.T) {
	video := HTTPVideoResponse(2000)
	if !containsBytes(video, []byte("Content-Type: video/")) {
		t.Fatal("video marker missing")
	}
	plain := HTTPPlainResponse()
	if containsBytes(plain, []byte("video/")) {
		t.Fatal("plain response marked as video")
	}
}

func TestExploitTriggersIDS(t *testing.T) {
	m := nfs.DefaultIDSSignatures()
	if !m.Contains(ExploitPayload()) {
		t.Fatal("exploit payload not detected")
	}
	if m.Contains(BenignPayload()) {
		t.Fatal("benign payload detected")
	}
}

func TestMemcachedRequest(t *testing.T) {
	f := NewFactory()
	frame, err := MemcachedRequest(f, packet.IPv4(10, 0, 0, 1), 5555, packet.IPv4(10, 1, 0, 1), "user:42")
	if err != nil {
		t.Fatal(err)
	}
	v, err := packet.Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if v.DstPort() != 11211 {
		t.Fatalf("dst port = %d", v.DstPort())
	}
	key, ok := nfs.ParseMemcachedGet(v.Payload())
	if !ok || string(key) != "user:42" {
		t.Fatalf("key = %q ok=%v", key, ok)
	}
	// Overlong key fails.
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'k'
	}
	if _, err := MemcachedRequest(f, packet.IPv4(1, 1, 1, 1), 1, packet.IPv4(2, 2, 2, 2), string(long)); err == nil {
		t.Fatal("overlong key accepted")
	}
}

func TestZipfKeysSkewed(t *testing.T) {
	z := NewZipfKeys(1, 1.2, 1000)
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[z.Next()]++
	}
	// The most popular key should appear far more than the average.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 1000 {
		t.Fatalf("max key count = %d; distribution not skewed", max)
	}
}

func TestOnOffProfile(t *testing.T) {
	p := OnOffProfile{Times: []float64{0, 50, 100}, Rates: []float64{10, 2, 10}}
	cases := map[float64]float64{0: 10, 49.9: 10, 50: 2, 99: 2, 100: 10, 500: 10}
	for at, want := range cases {
		if got := p.RateAt(at); got != want {
			t.Errorf("RateAt(%v) = %v, want %v", at, got, want)
		}
	}
	if (OnOffProfile{}).RateAt(1) != 0 {
		t.Fatal("empty profile rate")
	}
}

func TestRampProfile(t *testing.T) {
	p := RampProfile{Times: []float64{10, 20}, Rates: []float64{0, 100}}
	if got := p.RateAt(5); got != 0 {
		t.Fatalf("before ramp: %v", got)
	}
	if got := p.RateAt(15); math.Abs(got-50) > 1e-9 {
		t.Fatalf("mid ramp: %v", got)
	}
	if got := p.RateAt(25); got != 100 {
		t.Fatalf("after ramp: %v", got)
	}
	if (RampProfile{}).RateAt(1) != 0 {
		t.Fatal("empty ramp rate")
	}
}

func containsBytes(hay, needle []byte) bool {
	for i := 0; i+len(needle) <= len(hay); i++ {
		match := true
		for j := range needle {
			if hay[i+j] != needle[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}
