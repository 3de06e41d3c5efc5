package flowtable

import (
	"testing"
	"time"

	"sdnfv/internal/packet"
)

// TestWritesLeaveBaseShared pins the write path structurally, with no
// timing: a 512-rule AddBatch into a 65 536-rule scope, and the Sweep
// that reaps those 512 rules again, both leave the scope's base the same
// object — neither copies the resident table.
func TestWritesLeaveBaseShared(t *testing.T) {
	const resident, batch = 1 << 16, 512
	scope := Port(0)
	key := func(i int) packet.FlowKey {
		return packet.FlowKey{
			SrcIP: packet.IPv4(10, byte(i>>16), byte(i>>8), byte(i)), DstIP: packet.IPv4(10, 255, 0, 1),
			SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoUDP,
		}
	}
	rules := make([]Rule, resident)
	for i := range rules {
		rules[i] = Rule{Scope: scope, Match: ExactMatch(key(i)), Actions: []Action{Out(1)}}
	}
	tb := New()
	if _, err := tb.AddBatch(rules); err != nil {
		t.Fatal(err)
	}
	set := func() *exactSet { return tb.shards[shardIndex(scope)].snap.Load().exact[scope] }
	base := set().base
	if len(base.m) != resident {
		t.Fatalf("base holds %d rules, want %d", len(base.m), resident)
	}

	rules = rules[:batch]
	for i := range rules {
		rules[i] = Rule{Scope: scope, Match: ExactMatch(key(resident + i)), Actions: []Action{Out(1)}, IdleTimeout: time.Second}
	}
	if _, err := tb.AddBatch(rules); err != nil {
		t.Fatal(err)
	}
	if s := set(); s.base != base || len(s.delta) != batch {
		t.Fatalf("AddBatch of %d rebuilt the base (same=%v, delta=%d)", batch, s.base == base, len(s.delta))
	}

	tb.Advance(2 * time.Second)
	if n := len(tb.Sweep()); n != batch {
		t.Fatalf("swept %d, want %d", n, batch)
	}
	if s := set(); s.base != base || len(s.delta) != 0 || s.n != resident {
		t.Fatalf("sweep of the batch rebuilt the base (same=%v, delta=%d, rules=%d)", s.base == base, len(s.delta), s.n)
	}
}
