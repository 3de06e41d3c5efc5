//go:build !race

package flowtable

// Memory-shape tests for the lifecycle sweeper. Excluded under the race
// detector, whose shadow memory makes HeapInuse comparisons meaningless.

import (
	"runtime"
	"testing"
	"time"

	"sdnfv/internal/packet"
)

// TestSweepShrinksShardMaps proves table memory is non-monotonic: after
// a mass expiry the rebuilt per-scope tables are right-sized, so heap in
// use drops back near the baseline instead of retaining the peak's slot
// arrays (a flat table never shrinks in place).
func TestSweepShrinksShardMaps(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a large table")
	}
	tb := New()
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	base := heap()
	const flows = 200_000
	const batch = 4096
	rules := make([]Rule, 0, batch)
	for i := 0; i < flows; i += batch {
		rules = rules[:0]
		for j := i; j < i+batch && j < flows; j++ {
			k := packet.FlowKey{
				SrcIP:   packet.IPv4(10, byte(j>>16), byte(j>>8), byte(j)),
				DstIP:   packet.IPv4(10, 0, 0, 1),
				SrcPort: uint16(j), DstPort: 80, Proto: packet.ProtoUDP,
			}
			rules = append(rules, Rule{Scope: Port(j % 8), Match: ExactMatch(k),
				Actions: []Action{Out(1)}, IdleTimeout: time.Second})
		}
		if _, err := tb.AddBatch(rules); err != nil {
			t.Fatal(err)
		}
	}
	peak := heap()
	tb.Advance(2 * time.Second)
	if got := len(tb.Sweep()); got != flows {
		t.Fatalf("swept %d, want %d", got, flows)
	}
	after := heap()
	grown, kept := int64(peak)-int64(base), int64(after)-int64(base)
	if kept > grown/4 {
		t.Fatalf("shard maps did not shrink: base=%d peak=+%d after=+%d (kept > 25%% of peak)",
			base, grown, kept)
	}
}
