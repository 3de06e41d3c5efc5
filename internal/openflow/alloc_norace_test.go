//go:build !race

package openflow

// Allocation budgets of the control channel's read path. Excluded under
// the race detector, whose instrumentation changes allocation behavior.

import (
	"testing"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/packet"
)

// replay is a stream that repeats one frame forever, without allocating.
type replay struct {
	frame []byte
	off   int
}

func (r *replay) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

func (r *replay) Write(p []byte) (int, error) { return len(p), nil }

func TestDecodeMatchNoAllocs(t *testing.T) {
	wire := encodeMatch(nil, flowtable.ExactMatch(packet.FlowKey{SrcIP: 1, DstPort: 80, Proto: 17}))
	var m flowtable.Match
	if allocs := testing.AllocsPerRun(100, func() { m, _, _ = decodeMatch(wire) }); allocs != 0 {
		t.Fatalf("decodeMatch: %v allocs", allocs)
	}
	if !m.IsExact() {
		t.Fatalf("decoded %v", m)
	}
}

// TestRecvNoAllocs: once warm, Recv hands out a PacketIn, a FlowMod or
// a FlowRemoved without allocating, apart from the FlowMod's Actions,
// which the caller keeps.
func TestRecvNoAllocs(t *testing.T) {
	for _, tc := range []struct {
		mt     MsgType
		budget float64
	}{
		{TypePacketIn, 0},
		{TypeFlowMod, 1},
		{TypeFlowRemoved, 0},
	} {
		frame, err := Encode(exemplarFor(tc.mt), 1)
		if err != nil {
			t.Fatal(err)
		}
		c := NewConn(&replay{frame: frame})
		if _, _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
		var msg Message
		if allocs := testing.AllocsPerRun(100, func() { msg, _, _ = c.Recv() }); allocs > tc.budget {
			t.Errorf("%s: %v allocs per Recv, budget %v", tc.mt, allocs, tc.budget)
		}
		if msg.Type() != tc.mt {
			t.Errorf("%s: received %T", tc.mt, msg)
		}
	}
}
