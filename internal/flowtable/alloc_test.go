//go:build !race

package flowtable

// Zero-allocation budget tests: the runtime teeth behind the hotpath
// analyzer's static rule. The analyzer proves Lookup/LookupBatch cannot
// contain an allocating construct; these tests measure that the compiled
// code really performs zero allocations per operation. Excluded under
// the race detector, whose instrumentation changes allocation behavior.

import (
	"runtime"
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

// The layout layeredTable builds: rules [0, inBase) from a first batch,
// the next inDelta from a second written in place into the same array,
// and rule tombstoned (live were it not deleted) a tombstone.
const (
	inBase     = 300
	inDelta    = 64
	tombstoned = inBase - 2
)

// layeredTable installs rule(i) at Port(0) for every i in the layout, so
// that lookups resolve through every kind of slot of the scope's array:
// rules of the batch that sized it, rules written into it in place, and
// a deleted rule's tombstone, which must read as a miss and which
// lookups for other keys probe past.
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
	var first *flatTab
	for _, batch := range [][]Rule{rules[:inBase], rules[inBase:]} {
		ids, err := tb.AddBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if gone == 0 {
			gone, first = ids[tombstoned], scopeSet(tb, Port(0)).tab.Load()
		}
	}
	if err := tb.Delete(gone); err != nil {
		t.Fatal(err)
	}
	set := scopeSet(tb, Port(0))
	tab, h := set.tab.Load(), keys[tombstoned].Hash()
	dead := false
	for i := range tab.slots {
		dead = dead || tab.slots[i].hash == h && tab.slots[i].e.Load() == tombstone
	}
	if tab != first || set.n.Load() != inBase+inDelta-1 || !dead {
		t.Fatalf("layout: same array %v, %d rules, tombstone present=%v", tab == first, set.n.Load(), dead)
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
		for _, i := range []int{0, inBase} { // from the first batch, written in place
			if e, err := tb.Lookup(Port(0), keys[i]); err != nil || e == nil {
				t.Fatalf("lookup of key %d missed a rule that was added", i)
			}
		}
		if _, err := tb.Lookup(Port(0), keys[tombstoned]); err == nil {
			t.Fatal("deleted rule answered")
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
// the expired (miss) path must stay allocation-free, for rules of either
// batch.
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
			t.Fatal("deleted rule answered")
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

// TestAddBatchOneAllocPerRule pins a timed rule to one heap object: an
// AddBatch of n timed exact rules that share one action list, into a
// scope whose array has room for them, allocates the n entries plus a
// few objects per batch (the ID and ordering slices, the one copy of the
// action list, the expiry bucket) — no idle clock and no action list per
// rule.
func TestAddBatchOneAllocPerRule(t *testing.T) {
	const n, resident, perBatch = 256, 4 * 256, 16
	tb := New()
	rules := make([]Rule, resident)
	for i := range rules {
		rules[i] = Rule{Scope: Port(0), Match: ExactMatch(allocTestKey(i)), Actions: []Action{Out(1)}}
	}
	if _, err := tb.AddBatch(rules); err != nil {
		t.Fatal(err)
	}
	tab := scopeSet(tb, Port(0)).tab.Load()
	acts := []Action{Forward(1), Forward(2), Out(1)}
	rules = rules[:n]
	for i := range rules {
		rules[i] = Rule{Scope: Port(0), Match: ExactMatch(allocTestKey(resident + i)), Actions: acts, IdleTimeout: time.Second, HardTimeout: time.Minute}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := tb.AddBatch(rules)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.Mallocs - before.Mallocs; got > n+perBatch || scopeSet(tb, Port(0)).tab.Load() != tab || tb.Len() != resident+n {
		t.Fatalf("AddBatch of %d timed rules: %d allocations (want at most %d), same array %v, %d rules",
			n, got, n+perBatch, scopeSet(tb, Port(0)).tab.Load() == tab, tb.Len())
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

// TestSweepTickReusesBuffer: the sweeper appends each tick's evictions
// to one buffer it keeps, so once a tick has grown it, a tick that
// evicts 1 024 rules allocates no more than one that evicts 64. The
// untimed residents keep the scope from shrinking under the evictions.
func TestSweepTickReusesBuffer(t *testing.T) {
	tb := New()
	next := 0
	install := func(n int, idle time.Duration) {
		t.Helper()
		rules := make([]Rule, n)
		for i := range rules {
			k := packet.FlowKey{SrcIP: packet.IPv4(10, 1, byte(next>>8), byte(next)), DstIP: packet.IPv4(10, 0, 0, 2), DstPort: 80, Proto: packet.ProtoUDP}
			rules[i] = Rule{Scope: Port(0), Match: ExactMatch(k), Actions: []Action{Out(1)}, IdleTimeout: idle}
			next++
		}
		if _, err := tb.AddBatch(rules); err != nil {
			t.Fatal(err)
		}
	}
	install(8192, -1)
	var buf []Evicted
	tick := func(n int) (mallocs, bytes uint64) {
		t.Helper()
		install(n, time.Millisecond)
		tb.Advance(2 * time.Millisecond)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		buf = tb.sweep(buf[:0])
		runtime.ReadMemStats(&after)
		if len(buf) != n {
			t.Fatalf("tick evicted %d, want %d", len(buf), n)
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	tick(1024) // grows the buffer
	smallN, smallB := tick(64)
	bigN, bigB := tick(1024)
	if bigN > smallN || bigB > smallB {
		t.Fatalf("a tick evicting 1024 allocated %d objects / %d B, one evicting 64 %d / %d B", bigN, bigB, smallN, smallB)
	}
}
