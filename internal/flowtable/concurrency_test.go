package flowtable

import (
	"sync"
	"sync/atomic"
	"testing"

	"sdnfv/internal/packet"
)

// TestLookupBatch checks the batched resolver against the single-shot one
// across hits, misses, and scope changes mid-batch.
func TestLookupBatch(t *testing.T) {
	tb := New()
	k1, k2 := key(1), key(2)
	_, _ = tb.Add(Rule{Scope: Port(0), Match: ExactMatch(k1), Actions: []Action{Forward(10)}})
	_, _ = tb.Add(Rule{Scope: ServiceID(3), Match: MatchAll, Actions: []Action{Out(1)}})

	scopes := []ServiceID{Port(0), Port(0), ServiceID(3), ServiceID(7)}
	keys := []packet.FlowKey{k1, k2, k1, k1}
	out := make([]*Entry, len(scopes))
	hits := tb.LookupBatch(scopes, keys, out)
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
	if out[0] == nil || out[0].Actions[0] != Forward(10) {
		t.Fatalf("out[0] = %+v", out[0])
	}
	if out[1] != nil {
		t.Fatalf("out[1] should miss, got %+v", out[1])
	}
	if out[2] == nil || out[2].Actions[0] != Out(1) {
		t.Fatalf("out[2] = %+v", out[2])
	}
	if out[3] != nil {
		t.Fatalf("out[3] should miss, got %+v", out[3])
	}
	st := tb.Stats()
	if st.Lookups != 4 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 4 lookups / 2 misses", st)
	}
}

// TestAddBatch checks multi-shard batch installation and the all-or-nothing
// validation.
func TestAddBatch(t *testing.T) {
	tb := New()
	rules := []Rule{
		{Scope: Port(0), Match: MatchAll, Actions: []Action{Forward(1)}},
		{Scope: ServiceID(1), Match: MatchAll, Actions: []Action{Forward(2)}},
		{Scope: ServiceID(2), Match: ExactMatch(key(1)), Actions: []Action{Out(1)}},
	}
	ids, err := tb.AddBatch(rules)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}
	seen := map[uint64]bool{}
	for _, id := range ids {
		if id == 0 || seen[id] {
			t.Fatalf("bad/duplicate id in %v", ids)
		}
		seen[id] = true
	}
	if tb.Len() != 3 {
		t.Fatalf("Len = %d", tb.Len())
	}
	// A batch containing an invalid rule installs nothing.
	_, err = tb.AddBatch([]Rule{
		{Scope: ServiceID(5), Match: MatchAll, Actions: []Action{Forward(9)}},
		{Scope: ServiceID(6), Match: MatchAll},
	})
	if err == nil {
		t.Fatal("empty-action rule accepted")
	}
	if tb.Len() != 3 {
		t.Fatalf("partial batch installed: Len = %d", tb.Len())
	}
	// Deleting batch-installed rules works like singly-added ones.
	if err := tb.Delete(ids[2]); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len after delete = %d", tb.Len())
	}
}

// TestEntryImmutableAfterUpdate is the regression test for the seed's
// in-place mutation: UpdateDefault must publish fresh entries, never
// rewrite an entry a lock-free reader may already hold.
func TestEntryImmutableAfterUpdate(t *testing.T) {
	tb := New()
	_, _ = tb.Add(Rule{Scope: ServiceID(1), Match: MatchAll,
		Actions: []Action{Forward(2), Forward(3)}})
	before, err := tb.Lookup(ServiceID(1), key(1))
	if err != nil {
		t.Fatal(err)
	}
	if n := tb.UpdateDefault(ServiceID(1), MatchAll, Forward(3), true); n != 1 {
		t.Fatalf("UpdateDefault = %d", n)
	}
	if d, _ := before.Default(); d != Forward(2) {
		t.Fatalf("held entry mutated in place: default now %v", d)
	}
	after, _ := tb.Lookup(ServiceID(1), key(1))
	if d, _ := after.Default(); d != Forward(3) {
		t.Fatalf("update not visible to new lookups: %v", d)
	}
	if before.ID != after.ID {
		t.Fatalf("rewrite changed the rule ID: %d -> %d", before.ID, after.ID)
	}

	if n := tb.UpdateDefault(ServiceID(1), MatchAll, Forward(2), true); n != 1 {
		t.Fatalf("second UpdateDefault = %d", n)
	}
	if d, _ := after.Default(); d != Forward(3) {
		t.Fatalf("second update mutated a published entry: %v", d)
	}
}

// TestSpecializeAtomicWithRewrite is the regression test for the seed's
// TOCTOU: specializeDefault dropped the lock between reading the governing
// rule and installing the exact rule, so a table write landing in that
// window was silently lost — the exact rule resurrected a stale action
// list. Specialization (an exact-match UpdateDefault, as SkipMe and
// ChangeDefault issue) races the writes the controller path makes:
//
//   - AddBatch installing a per-flow rule [3 5]. Both serializations end
//     with that rule's actions and default 3; a lost write leaves the
//     wildcard's [2 3 4].
//   - Delete of the flow's exact rule [2 3]. Delete-then-specialize
//     leaves an exact copy of the wildcard (default 3); specialize-then-
//     delete leaves no exact rule (the wildcard answers, default 2). A
//     lost write resurrects [2 3].
func TestSpecializeAtomicWithRewrite(t *testing.T) {
	k := key(3)
	wildcard := Rule{Scope: ServiceID(1), Match: MatchAll,
		Actions: []Action{Forward(2), Forward(3), Forward(4)}}
	race := func(tb *Table, write func()) {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			write()
		}()
		go func() {
			defer wg.Done()
			tb.UpdateDefault(ServiceID(1), ExactMatch(k), Forward(3), true)
		}()
		wg.Wait()
	}
	for iter := 0; iter < 500; iter++ {
		tb := New()
		_, _ = tb.Add(wildcard)
		race(tb, func() {
			_, _ = tb.AddBatch([]Rule{{Scope: ServiceID(1), Match: ExactMatch(k),
				Actions: []Action{Forward(3), Forward(5)}}})
		})
		e, err := tb.Lookup(ServiceID(1), k)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Match.IsExact() {
			t.Fatalf("iter %d: specialization lost, governing rule %v", iter, e.Match)
		}
		if d, _ := e.Default(); d != Forward(3) {
			t.Fatalf("iter %d: specialized default = %v", iter, d)
		}
		if e.Allows(Forward(2)) || !e.Allows(Forward(5)) {
			t.Fatalf("iter %d: installed rule lost to a stale specialization: %v", iter, e.Actions)
		}

		tb = New()
		_, _ = tb.Add(wildcard)
		id, _ := tb.Add(Rule{Scope: ServiceID(1), Match: ExactMatch(k),
			Actions: []Action{Forward(2), Forward(3)}})
		race(tb, func() { _ = tb.Delete(id) })
		e, err = tb.Lookup(ServiceID(1), k)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := e.Default()
		switch {
		case e.Match.IsExact() && d == Forward(3) && e.Allows(Forward(4)):
			// delete, then specialize from the wildcard
		case !e.Match.IsExact() && d == Forward(2):
			// specialize the exact rule, then delete it
		default:
			t.Fatalf("iter %d: deleted rule resurrected: %v default %v", iter, e.Actions, d)
		}
	}
}

// TestConcurrentTableChurn exercises every mutation primitive against a
// storm of lock-free lookups; run with -race. Readers assert snapshot
// consistency: every returned entry must actually match the key, and its
// action list must never be empty or torn.
func TestConcurrentTableChurn(t *testing.T) {
	tb := New()
	const scopeCount = 8
	for s := 0; s < scopeCount; s++ {
		_, _ = tb.Add(Rule{Scope: ServiceID(s), Match: MatchAll,
			Actions: []Action{Forward(100), Forward(101)}})
	}
	var stopFlag atomic.Bool
	var wg sync.WaitGroup

	// Lock-free readers: single lookups and batches.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			scopes := make([]ServiceID, 16)
			keys := make([]packet.FlowKey, 16)
			out := make([]*Entry, 16)
			for i := 0; !stopFlag.Load(); i++ {
				scope := ServiceID((i + r) % scopeCount)
				k := key(byte(i))
				if e, err := tb.Lookup(scope, k); err == nil {
					if len(e.Actions) == 0 || !e.Match.Matches(k) {
						t.Errorf("torn entry: %+v", e)
						return
					}
				}
				for j := range scopes {
					scopes[j] = ServiceID((i + j) % scopeCount)
					keys[j] = key(byte(i + j))
				}
				tb.LookupBatch(scopes, keys, out)
				for j, e := range out {
					if e != nil && !e.Match.Matches(keys[j]) {
						t.Errorf("batch returned non-matching entry %+v for %v", e, keys[j])
						return
					}
				}
			}
		}(r)
	}

	// Writers: add/delete exact rules, rewrite defaults, rewrite dests,
	// specialize flows.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ids []uint64
			for i := 0; !stopFlag.Load(); i++ {
				scope := ServiceID((i + w) % scopeCount)
				k := key(byte(i ^ w))
				switch i % 5 {
				case 0:
					id, err := tb.Add(Rule{Scope: scope, Match: ExactMatch(k),
						Actions: []Action{Forward(100), Drop()}})
					if err == nil {
						ids = append(ids, id)
					}
				case 1:
					if len(ids) > 0 {
						_ = tb.Delete(ids[0])
						ids = ids[1:]
					}
				case 2:
					tb.UpdateDefault(scope, MatchAll, Forward(101), true)
				case 3:
					tb.UpdateDefault(scope, ExactMatch(k), Forward(101), true)
				case 4:
					_, _ = tb.AddBatch([]Rule{{Scope: scope, Match: MatchAll,
						Actions: []Action{Forward(101), Forward(100)}}})
					tb.UpdateDefault(scope, MatchAll, Forward(100), true)
				}
				_ = tb.ScopesWithActionTo(MatchAll, ServiceID(100))
			}
		}(w)
	}

	// Observers: stats, dump, len.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopFlag.Load() {
			st := tb.Stats()
			if st.Rules < 0 {
				t.Errorf("negative rule count: %+v", st)
				return
			}
			_ = tb.Dump()
			_ = tb.Len()
		}
	}()

	for i := 0; i < 2000; i++ {
		_, _ = tb.Lookup(ServiceID(i%scopeCount), key(byte(i)))
	}
	stopFlag.Store(true)
	wg.Wait()
}

// BenchmarkLookupParallel measures the lock-free lookup under reader
// parallelism (the seed's RWMutex serialized counter writes here).
func BenchmarkLookupParallel(b *testing.B) {
	tb := New()
	keys := make([]packet.FlowKey, 256)
	for i := range keys {
		keys[i] = key(byte(i))
		keys[i].SrcPort = uint16(i)
		_, _ = tb.Add(Rule{Scope: Port(0), Match: ExactMatch(keys[i]), Actions: []Action{Forward(1)}})
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := tb.Lookup(Port(0), keys[i&255]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkLookupBatch measures the amortized per-packet cost of the
// batched resolver over a 64-descriptor burst.
func BenchmarkLookupBatch(b *testing.B) {
	tb := New()
	keys := make([]packet.FlowKey, 256)
	for i := range keys {
		keys[i] = key(byte(i))
		keys[i].SrcPort = uint16(i)
		_, _ = tb.Add(Rule{Scope: Port(0), Match: ExactMatch(keys[i]), Actions: []Action{Forward(1)}})
	}
	const burst = 64
	scopes := make([]ServiceID, burst)
	bkeys := make([]packet.FlowKey, burst)
	out := make([]*Entry, burst)
	for i := range scopes {
		scopes[i] = Port(0)
		bkeys[i] = keys[i%256]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += burst {
		if hits := tb.LookupBatch(scopes, bkeys, out); hits != burst {
			b.Fatalf("hits = %d", hits)
		}
	}
}
