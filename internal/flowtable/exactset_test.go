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
	if base.n != resident {
		t.Fatalf("base holds %d rules, want %d", base.n, resident)
	}

	rules = rules[:batch]
	for i := range rules {
		rules[i] = Rule{Scope: scope, Match: ExactMatch(key(resident + i)), Actions: []Action{Out(1)}, IdleTimeout: time.Second}
	}
	if _, err := tb.AddBatch(rules); err != nil {
		t.Fatal(err)
	}
	if s := set(); s.base != base || s.delta.n != batch {
		t.Fatalf("AddBatch of %d rebuilt the base (same=%v, delta=%d)", batch, s.base == base, s.delta.n)
	}

	tb.Advance(2 * time.Second)
	if n := len(tb.Sweep()); n != batch {
		t.Fatalf("swept %d, want %d", n, batch)
	}
	if s := set(); s.base != base || s.delta.n != 0 || s.n != resident {
		t.Fatalf("sweep of the batch rebuilt the base (same=%v, delta=%d, rules=%d)", s.base == base, s.delta.n, s.n)
	}
}

// TestFoldPatchesOrRebuilds pins which fold a scope gets, structurally:
// a fold whose rules still fit the base's array at most twice over
// copies that array and patches it, so its length stays; one that has
// grown past the array, or shrunk to under half of it, rebuilds it at a
// 4/5 load. Every surviving rule stays reachable either way.
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
	set := func() *exactSet { return tb.shards[shardIndex(scope)].snap.Load().exact[scope] }
	check := func(step string, live, slots int) {
		t.Helper()
		s := set()
		if s.delta.n != 0 || s.n != live || len(s.base.slots) != slots {
			t.Fatalf("%s: %d rules, delta %d, base %d slots; want %d rules folded into %d slots", step, s.n, s.delta.n, len(s.base.slots), live, slots)
		}
		for i := len(ids) - live; i < len(ids); i++ {
			if e, err := tb.Lookup(scope, key(i)); err != nil || e.ID != ids[i] {
				t.Fatalf("%s: rule %d lost (%v, %v)", step, i, e, err)
			}
		}
	}
	install(0, 4096)
	check("first fold", 4096, 5120)
	// 1024 deletes overflow the delta's 768-rule budget; 3072 rules need
	// 3840 slots, and 5120 is under twice that: patched in place.
	if err := tb.Delete(ids[:1024]...); err != nil {
		t.Fatal(err)
	}
	check("patched", 3072, 5120)
	// 2048 more deletes leave 1024 rules, under half the array: rebuilt.
	if err := tb.Delete(ids[1024:3072]...); err != nil {
		t.Fatal(err)
	}
	check("shrunk", 1024, 1280)
	// 1024 new rules are past the array: rebuilt larger.
	install(4096, 5120)
	check("grown", 2048, 2560)
}

// FuzzFlatTab runs set, remove and find against a plain map on tables
// small enough that probe runs wrap past the end of the array, backward
// shifts carry keys across it, and sets grow the array. Each input byte
// is one operation on one of 24 keys.
func FuzzFlatTab(f *testing.F) {
	f.Add([]byte{0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 1, 5, 9, 2, 6})
	seq := make([]byte, 96)
	for i := range seq {
		seq[i] = byte(i * 5)
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab flatTab
		ref := map[packet.FlowKey]*Entry{}
		for i, op := range ops {
			k := packet.FlowKey{SrcIP: packet.IPv4(10, 0, 0, op/4%24), DstIP: packet.IPv4(10, 1, 0, 1), DstPort: 80, Proto: packet.ProtoUDP}
			switch op % 4 {
			case 0, 1:
				e := &Entry{ID: uint64(i)}
				if old := tab.set(k, k.Hash(), e); old != ref[k] {
					t.Fatalf("op %d: set replaced %v, model %v", i, old, ref[k])
				}
				ref[k] = e
			case 2:
				if _, ok := ref[k]; ok { // remove's contract: k is present
					tab.remove(k, k.Hash())
					delete(ref, k)
				}
			default:
				if got := tab.find(k, k.Hash()); got != ref[k] {
					t.Fatalf("op %d: find = %v, model %v", i, got, ref[k])
				}
			}
			if tab.n != len(ref) || len(tab.slots)*4 < tab.n*5 {
				t.Fatalf("op %d: %d keys in %d slots, model %d keys", i, tab.n, len(tab.slots), len(ref))
			}
			for k, e := range ref {
				if got := tab.find(k, k.Hash()); got != e {
					t.Fatalf("op %d: %v lost (find = %v)", i, k, got)
				}
			}
		}
	})
}

// TestFlatTabProbeLength pins the probe lengths a full-size base sees:
// 262 144 keys with sequential source addresses, the shape of a resident
// population, at the 4/5 load a fold leaves, must average at most 3.5
// probes per hit, where an ideal random hash averages 3.0. The longest
// run is capped loosely, at 512, because an ideal random hash already
// reaches 120–340 at this load and size.
func TestFlatTabProbeLength(t *testing.T) {
	const n = 1 << 18
	tab := flatTab{slots: make([]slot, (n*5+3)/4)}
	keys := make([]packet.FlowKey, n)
	for i := range keys {
		keys[i] = packet.FlowKey{
			SrcIP: packet.IPv4(10, byte(i>>16), byte(i>>8), byte(i)), DstIP: packet.IPv4(172, 16, 0, 1),
			SrcPort: uint16(1024 + i*7919%60000), DstPort: 80, Proto: packet.ProtoUDP,
		}
		tab.set(keys[i], keys[i].Hash(), &Entry{})
	}
	total, longest := 0, 0
	for _, k := range keys {
		i, probes := tab.home(k.Hash()), 1
		for tab.slots[i].key != k {
			i, probes = (i+1)%len(tab.slots), probes+1
		}
		total, longest = total+probes, max(longest, probes)
	}
	if mean := float64(total) / n; mean > 3.5 || longest > 512 {
		t.Fatalf("probe length mean %.2f (max 3.5), longest %d (max 512)", mean, longest)
	}
}
