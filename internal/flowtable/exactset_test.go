package flowtable

import (
	"runtime"
	"testing"
	"time"

	"sdnfv/internal/packet"
)

// scopeSet is the exact set tb publishes for scope, or nil.
func scopeSet(tb *Table, scope ServiceID) *exactSet {
	return tb.shards[shardIndex(scope)].snap.Load().exact[scope]
}

// tombstones counts the tombstones in s's current array.
func (s *exactSet) tombstones() int {
	n := 0
	t := s.tab.Load()
	for i := range t.slots {
		if t.slots[i].e.Load() == tombstone {
			n++
		}
	}
	return n
}

// allocated is the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWritesLeaveBaseShared pins the write path structurally, with no
// timing: a 512-rule AddBatch into a 65 536-rule scope, and the Sweep
// that reaps those 512 rules again, both leave the scope's slot array the
// same object and allocate bytes in proportion to the 512 rules (at most
// 1 KiB each), not to the scope, whose array alone is 1.7 MB.
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
	set := scopeSet(tb, scope)
	tab := set.tab.Load()
	if set.n.Load() != resident {
		t.Fatalf("scope holds %d rules, want %d", set.n.Load(), resident)
	}

	rules = rules[:batch]
	for i := range rules {
		rules[i] = Rule{Scope: scope, Match: ExactMatch(key(resident + i)), Actions: []Action{Out(1)}, IdleTimeout: time.Second}
	}
	const budget = batch << 10
	if b := allocated(func() {
		if _, err := tb.AddBatch(rules); err != nil {
			t.Fatal(err)
		}
	}); scopeSet(tb, scope) != set || set.tab.Load() != tab || set.n.Load() != resident+batch || b > budget {
		t.Fatalf("AddBatch of %d: same set %v, same array %v, %d rules, %d bytes allocated (budget %d)",
			batch, scopeSet(tb, scope) == set, set.tab.Load() == tab, set.n.Load(), b, budget)
	}

	tb.Advance(2 * time.Second)
	var n int
	if b := allocated(func() { n = len(tb.Sweep()) }); n != batch || set.tab.Load() != tab || set.n.Load() != resident || b > budget {
		t.Fatalf("sweep of the batch: swept %d of %d, same array %v, %d rules, %d bytes allocated (budget %d)",
			n, batch, set.tab.Load() == tab, set.n.Load(), b, budget)
	}
}

// TestFoldPatchesOrRebuilds pins when a scope's slot array is rebuilt,
// structurally: installs and deletes that stay within the load limit
// write the array in place, tombstones and all, as do replacements of
// live keys however full the array is; the insert that would
// pass it rebuilds at a 3/5 load for the live rules and drops the
// tombstones; a delete that leaves the rules under a quarter of the
// array rebuilds it smaller; and the last delete drops the scope. Every
// surviving rule stays reachable throughout.
func TestFoldPatchesOrRebuilds(t *testing.T) {
	scope := Port(0)
	key := func(i int) packet.FlowKey {
		return packet.FlowKey{SrcIP: packet.IPv4(10, 0, byte(i>>8), byte(i)), DstIP: packet.IPv4(10, 255, 0, 1), DstPort: 80, Proto: packet.ProtoUDP}
	}
	tb := New()
	var ids []uint64
	install := func(lo, hi int) {
		t.Helper()
		rules := make([]Rule, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rules = append(rules, Rule{Scope: scope, Match: ExactMatch(key(i)), Actions: []Action{Out(1)}})
		}
		got, err := tb.AddBatch(rules)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, got...)
	}
	var last *flatTab
	check := func(step string, live, slots, tombs int, rebuilt bool) {
		t.Helper()
		s := scopeSet(tb, scope)
		tab := s.tab.Load()
		if int(s.n.Load()) != live || len(tab.slots) != slots || s.tombstones() != tombs || tab.used != live+tombs || (tab != last) != rebuilt {
			t.Fatalf("%s: %d rules, %d slots, %d tombstones, %d used, rebuilt %v; want %d rules, %d slots, %d tombstones, rebuilt %v",
				step, s.n.Load(), len(tab.slots), s.tombstones(), tab.used, tab != last, live, slots, tombs, rebuilt)
		}
		last = tab
		for i := len(ids) - live; i < len(ids); i++ {
			if e, err := tb.Lookup(scope, key(i)); err != nil || e.ID != ids[i] {
				t.Fatalf("%s: rule %d lost (%v, %v)", step, i, e, err)
			}
		}
	}
	install(0, 4096)
	check("first batch, reserved at once", 4096, 4096*5/3, 0, true)
	if err := tb.Delete(ids[:1024]...); err != nil {
		t.Fatal(err)
	}
	check("deleted in place", 3072, 6826, 1024, false)
	// 1 364 new rules bring live rules plus tombstones to 4/5 of the array.
	install(4096, 5460)
	check("installed in place", 4436, 6826, 1024, false)
	// Reinstalling them replaces each in its slot: a full array is no
	// reason to rebuild when no key is new.
	install(4096, 5460)
	ids = append(ids[:4096], ids[5460:]...)
	check("replaced in place", 4436, 6826, 1024, false)
	install(5460, 5461)
	check("limit passed: rebuilt, tombstones gone", 4437, 4437*5/3, 0, true)
	// At 1 848 rules the scope is under a quarter of its 7 395 slots.
	if err := tb.Delete(ids[1024:3613]...); err != nil {
		t.Fatal(err)
	}
	check("emptied below a quarter: shrunk", 1848, 1848*5/3, 0, true)
	if err := tb.Delete(ids[3613:]...); err != nil {
		t.Fatal(err)
	}
	if s := scopeSet(tb, scope); s != nil || tb.Len() != 0 {
		t.Fatalf("drained scope still published (%v) or rules left (%d)", s != nil, tb.Len())
	}
}

// TestInterleavedBatchRebuildsOnce pins AddBatch's grouping by scope: a
// miss burst resolved to 113 new three-hop flows arrives as one batch in
// the order the controller compiles them, each flow's rule at the ingress
// port, then at the firewall, then at the IDS, so no two neighbouring
// rules share a scope. Installing it into an empty table must still
// rebuild each scope's array at most once (the scope's first, 8-slot
// array aside), as a batch already grouped by scope does, and every rule
// must answer under the ID returned in its place.
func TestInterleavedBatchRebuildsOnce(t *testing.T) {
	const flows = 113
	hops := []struct {
		scope ServiceID
		act   Action
	}{{Port(0), Forward(1)}, {ServiceID(1), Forward(2)}, {ServiceID(2), Out(1)}}
	flow := func(i int) packet.FlowKey {
		return packet.FlowKey{SrcIP: packet.IPv4(10, 0, byte(i>>8), byte(i)), DstIP: packet.IPv4(10, 255, 0, 1), SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoUDP}
	}
	var rules []Rule
	for i := range flows {
		for _, h := range hops {
			rules = append(rules, Rule{Scope: h.scope, Match: ExactMatch(flow(i)), Actions: []Action{h.act}, IdleTimeout: time.Second})
		}
	}
	tb := New()
	ids, err := tb.AddBatch(rules)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hops {
		if s := scopeSet(tb, h.scope); s.n.Load() != flows || s.rebuilds > 1 {
			t.Errorf("%v: %d rules, array rebuilt %d times by one batch, want %d rules and at most one rebuild", h.scope, s.n.Load(), s.rebuilds, flows)
		}
	}
	for i, r := range rules {
		if e, err := tb.Lookup(r.Scope, r.Match.Key); err != nil || e.ID != ids[i] || e.Actions[0] != r.Actions[0] {
			t.Fatalf("rule %d at %v: %v, %v; want ID %d", i, r.Scope, e, err, ids[i])
		}
	}
}

// FuzzFlatTab drives one exact set's add, replace, tombstone and rebuild
// cycle against a plain map, on arrays small enough that probe runs wrap
// past the end, tombstones fill runs and force rebuilds, and removals
// shrink the array. Each input byte is one operation on one of 24 keys;
// after each, every key resolves as in the map and the set's counts
// match its slots.
func FuzzFlatTab(f *testing.F) {
	f.Add([]byte{0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 1, 5, 9, 2, 6})
	seq := make([]byte, 96)
	for i := range seq {
		seq[i] = byte(i * 5)
	}
	f.Add(seq)
	keys := make([]packet.FlowKey, 24)
	for i := range keys {
		keys[i] = packet.FlowKey{SrcIP: packet.IPv4(10, 0, 0, byte(i)), DstIP: packet.IPv4(10, 1, 0, 1), DstPort: 80, Proto: packet.ProtoUDP}
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := newExactSet()
		ref := map[packet.FlowKey]*Entry{}
		for i, op := range ops {
			k := keys[int(op/4)%len(keys)]
			switch op % 4 {
			case 0, 1:
				e := &Entry{Rule: Rule{Match: ExactMatch(k)}, ID: uint64(i)}
				if old := s.put(k, e); old != ref[k] {
					t.Fatalf("op %d: put replaced %v, model %v", i, old, ref[k])
				}
				ref[k] = e
			case 2:
				if e := ref[k]; e != nil {
					if !s.drop(e) {
						t.Fatalf("op %d: drop missed a live rule", i)
					}
					delete(ref, k)
				} else if s.drop(&Entry{Rule: Rule{Match: ExactMatch(k)}}) {
					t.Fatalf("op %d: drop of an absent rule succeeded", i)
				}
			default:
				if got := s.find(k, k.Hash()); got != ref[k] {
					t.Fatalf("op %d: find = %v, model %v", i, got, ref[k])
				}
			}
			tab := s.tab.Load()
			filled := 0
			for j := range tab.slots {
				if tab.slots[j].e.Load() != nil {
					filled++
				}
			}
			if n := int(s.n.Load()); n != len(ref) || tab.used != filled || filled-s.tombstones() != n || tab.used*5 > len(tab.slots)*4 {
				t.Fatalf("op %d: %d rules, %d used of %d slots (%d filled, %d tombstones), model %d",
					i, n, tab.used, len(tab.slots), filled, s.tombstones(), len(ref))
			}
			for _, k := range keys {
				if got := s.find(k, k.Hash()); got != ref[k] {
					t.Fatalf("op %d: %v resolves to %v, model %v", i, k, got, ref[k])
				}
			}
		}
	})
}

// TestFlatTabProbeLength pins the probe lengths a full-size array sees:
// 262 144 keys with sequential source addresses, the shape of a resident
// population, at the 4/5 load limit, tombstones included (one key in
// eight removed), must average at most 3.5 probes per hit, where an
// ideal random hash averages 3.0. The longest run is capped loosely, at
// 512, because an ideal random hash already reaches 120–340 at this load
// and size.
func TestFlatTabProbeLength(t *testing.T) {
	const n = 1 << 18
	s := new(exactSet)
	s.tab.Store(&flatTab{slots: make([]slot, (n*5+3)/4)})
	keys := make([]packet.FlowKey, n)
	entries := make([]*Entry, n)
	for i := range keys {
		keys[i] = packet.FlowKey{
			SrcIP: packet.IPv4(10, byte(i>>16), byte(i>>8), byte(i)), DstIP: packet.IPv4(172, 16, 0, 1),
			SrcPort: uint16(1024 + i*7919%60000), DstPort: 80, Proto: packet.ProtoUDP,
		}
		entries[i] = &Entry{Rule: Rule{Match: ExactMatch(keys[i])}}
		s.put(keys[i], entries[i])
	}
	for i := 0; i < n; i += 8 {
		s.drop(entries[i])
	}
	tab := s.tab.Load()
	if tab.used != n || s.tombstones() != n/8 {
		t.Fatalf("layout: %d used, %d tombstones; want %d, %d", tab.used, s.tombstones(), n, n/8)
	}
	total, longest := 0, 0
	for i, k := range keys {
		if i%8 == 0 {
			continue
		}
		j, probes := tab.home(k.Hash()), 1
		for tab.slots[j].e.Load() != entries[i] {
			j, probes = (j+1)%len(tab.slots), probes+1
		}
		total, longest = total+probes, max(longest, probes)
	}
	if mean := float64(total) / float64(n-n/8); mean > 3.5 || longest > 512 {
		t.Fatalf("probe length mean %.2f (max 3.5), longest %d (max 512)", mean, longest)
	}
}
