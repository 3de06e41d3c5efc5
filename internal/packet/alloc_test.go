//go:build !race

package packet

// Zero-allocation budget tests for the packet fast paths — the measured
// counterpart of the hotpath analyzer's static no-alloc proof. Excluded
// under the race detector, whose instrumentation changes allocation
// behavior.

import "testing"

func TestParseFlowKeyHashZeroAlloc(t *testing.T) {
	b := Builder{
		SrcIP: IPv4(10, 0, 0, 1), DstIP: IPv4(10, 0, 0, 2),
		SrcPort: 4000, DstPort: 80, Proto: ProtoUDP,
	}
	buf := make([]byte, 256)
	n, err := b.Build(buf, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	frame := buf[:n]
	if a := testing.AllocsPerRun(200, func() {
		v, err := Parse(frame)
		if err != nil {
			t.Fatal(err)
		}
		if v.FlowKey().Hash() == 0 {
			t.Fatal("hash collapsed to zero")
		}
	}); a != 0 {
		t.Errorf("Parse+FlowKey+Hash allocates %.1f/op, want 0", a)
	}

	v, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() {
		v.SetDstIP(IPv4(10, 0, 0, 9))
		v.UpdateChecksums()
	}); a != 0 {
		t.Errorf("SetDstIP+UpdateChecksums allocates %.1f/op, want 0", a)
	}
}
