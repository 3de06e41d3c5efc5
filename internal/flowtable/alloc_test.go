//go:build !race

package flowtable

// Zero-allocation budget tests: the runtime teeth behind the hotpath
// analyzer's static rule. The analyzer proves Lookup/LookupBatch cannot
// contain an allocating construct; these tests measure that the compiled
// code really performs zero allocations per operation. Excluded under
// the race detector, whose instrumentation changes allocation behavior.

import (
	"testing"
	"time"

	"sdnfv/internal/packet"
)

func allocTestKey(i int) packet.FlowKey {
	return packet.FlowKey{
		SrcIP:   packet.IPv4(10, 0, 0, 1),
		DstIP:   packet.IPv4(10, 0, 0, 2),
		SrcPort: uint16(1000 + i),
		DstPort: 80,
		Proto:   packet.ProtoUDP,
	}
}

// The layout layeredTable builds: rules [0, inBase) in the base, the
// next inDelta in the delta, and rule tombstoned (live were it not
// deleted) a tombstone.
const (
	inBase     = 300
	inDelta    = 64
	tombstoned = inBase - 2
)

// layeredTable installs rule(i) at Port(0) for every i in the layout, so
// that lookups resolve through every layer of the scope's exact set: the
// first batch is past the fold budget of an empty base and becomes the
// base, the second sits in the delta, and deleting a base rule leaves a
// tombstone that must read as a miss.
func layeredTable(t *testing.T, rule func(i int) Rule) (*Table, []packet.FlowKey) {
	t.Helper()
	tb := New()
	rules := make([]Rule, inBase+inDelta)
	keys := make([]packet.FlowKey, len(rules))
	for i := range rules {
		keys[i] = allocTestKey(i)
		rules[i] = rule(i)
		rules[i].Scope, rules[i].Match = Port(0), ExactMatch(keys[i])
	}
	var gone uint64
	for _, batch := range [][]Rule{rules[:inBase], rules[inBase:]} {
		ids, err := tb.AddBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if gone == 0 {
			gone = ids[tombstoned]
		}
	}
	if err := tb.Delete(gone); err != nil {
		t.Fatal(err)
	}
	set := tb.shards[shardIndex(Port(0))].snap.Load().exact[Port(0)]
	k := keys[tombstoned]
	if e := set.delta.find(k, k.Hash()); set.base.n != inBase || set.delta.n != inDelta+1 || e != tombstone {
		t.Fatalf("layout: base %d, delta %d, tombstone present=%v", set.base.n, set.delta.n, e == tombstone)
	}
	return tb, keys
}

func TestLookupZeroAlloc(t *testing.T) {
	tb, keys := layeredTable(t, func(int) Rule { return Rule{Actions: []Action{Out(1)}} })
	scopes := make([]ServiceID, len(keys))
	entries := make([]*Entry, len(keys))
	for i := range scopes {
		scopes[i] = Port(0)
	}
	if n := testing.AllocsPerRun(200, func() {
		for _, i := range []int{0, inBase} { // through the base, through the delta
			if e, err := tb.Lookup(Port(0), keys[i]); err != nil || e == nil {
				t.Fatalf("lookup of key %d missed a rule that was added", i)
			}
		}
		if _, err := tb.Lookup(Port(0), keys[tombstoned]); err == nil {
			t.Fatal("deleted base rule answered")
		}
	}); n != 0 {
		t.Errorf("Lookup allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		tb.LookupBatch(scopes, keys, entries)
	}); n != 0 {
		t.Errorf("LookupBatch allocates %.1f/op, want 0", n)
	}
}

// TestLookupWithExpiryZeroAlloc re-measures the budget with the flow
// lifecycle armed: every rule carries idle+hard timeouts, the coarse
// clock is running, and half the rules are already expired so the
// expiry-as-miss path is exercised too. Both the touch (hit) path and
// the expired (miss) path must stay allocation-free, in the base and in
// the delta.
func TestLookupWithExpiryZeroAlloc(t *testing.T) {
	tb, keys := layeredTable(t, func(i int) Rule {
		idle := time.Hour
		if i%2 == 1 {
			idle = time.Millisecond // expired once the clock advances
		}
		return Rule{Actions: []Action{Out(1)}, IdleTimeout: idle, HardTimeout: 24 * time.Hour}
	})
	scopes := make([]ServiceID, len(keys))
	entries := make([]*Entry, len(keys))
	for i := range scopes {
		scopes[i] = Port(0)
	}
	tb.Advance(time.Second)
	if n := testing.AllocsPerRun(200, func() {
		for _, i := range []int{0, inBase} {
			if e, err := tb.Lookup(Port(0), keys[i]); err != nil || e == nil {
				t.Fatalf("live rule %d missed", i)
			}
			if _, err := tb.Lookup(Port(0), keys[i+1]); err == nil {
				t.Fatalf("expired rule %d answered", i+1)
			}
		}
		if _, err := tb.Lookup(Port(0), keys[tombstoned]); err == nil {
			t.Fatal("deleted base rule answered")
		}
	}); n != 0 {
		t.Errorf("Lookup with expiry checks allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		tb.LookupBatch(scopes, keys, entries)
	}); n != 0 {
		t.Errorf("LookupBatch with expiry checks allocates %.1f/op, want 0", n)
	}
}

// TestMatchNoAllocs: the value Match is built and tested without
// allocating.
func TestMatchNoAllocs(t *testing.T) {
	k := allocTestKey(1)
	var m Match
	ok := false
	if allocs := testing.AllocsPerRun(100, func() {
		m = ExactMatch(k)
		ok = m.Matches(k) && MatchSrcIP(k.SrcIP).Matches(k) && !MatchDstIP(k.DstIP).Equal(m)
	}); allocs != 0 {
		t.Fatalf("%v allocs per ExactMatch+Matches", allocs)
	}
	if !ok || !m.IsExact() {
		t.Fatalf("ExactMatch(%v) = %v", k, m)
	}
}
