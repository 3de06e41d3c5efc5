package flowtable

import (
	"errors"
	"testing"
	"testing/quick"

	"sdnfv/internal/packet"
)

func key(n byte) packet.FlowKey {
	return packet.FlowKey{
		SrcIP: packet.IPv4(10, 0, 0, n), DstIP: packet.IPv4(10, 0, 1, 1),
		SrcPort: 1000 + uint16(n), DstPort: 80, Proto: packet.ProtoUDP,
	}
}

func TestServiceIDPortEncoding(t *testing.T) {
	p := Port(3)
	if !p.IsPort() || p.PortNum() != 3 {
		t.Fatalf("Port(3) = %v", p)
	}
	s := ServiceID(7)
	if s.IsPort() {
		t.Fatal("plain service id claims to be a port")
	}
	if p.String() != "port:3" || s.String() != "svc:7" {
		t.Fatalf("strings: %s %s", p, s)
	}
}

func TestExactMatchWins(t *testing.T) {
	tb := New()
	k := key(1)
	if _, err := tb.Add(Rule{Scope: Port(0), Match: MatchAll,
		Actions: []Action{Forward(10)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Add(Rule{Scope: Port(0), Match: ExactMatch(k),
		Actions: []Action{Forward(20)}}); err != nil {
		t.Fatal(err)
	}
	e, err := tb.Lookup(Port(0), k)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := e.Default(); d != Forward(20) {
		t.Fatalf("exact rule shadowed: %v", d)
	}
	e, err = tb.Lookup(Port(0), key(2))
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := e.Default(); d != Forward(10) {
		t.Fatalf("wildcard fallback broken: %v", d)
	}
}

func TestSpecificityOrdering(t *testing.T) {
	tb := New()
	k := key(5)
	// srcIP-only rule vs fully wildcard: srcIP wins.
	_, _ = tb.Add(Rule{Scope: Port(0), Match: MatchAll, Actions: []Action{Forward(1)}})
	_, _ = tb.Add(Rule{Scope: Port(0), Match: MatchSrcIP(k.SrcIP), Actions: []Action{Forward(2)}})
	e, err := tb.Lookup(Port(0), k)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := e.Default(); d != Forward(2) {
		t.Fatalf("most-specific did not win: %v", d)
	}
}

func TestPriorityBreaksTies(t *testing.T) {
	tb := New()
	k := key(6)
	_, _ = tb.Add(Rule{Scope: Port(0), Match: MatchSrcIP(k.SrcIP), Priority: 1, Actions: []Action{Forward(1)}})
	_, _ = tb.Add(Rule{Scope: Port(0), Match: MatchDstIP(k.DstIP), Priority: 9, Actions: []Action{Forward(2)}})
	e, err := tb.Lookup(Port(0), k)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := e.Default(); d != Forward(2) {
		t.Fatalf("priority ignored: %v", d)
	}
}

func TestScopesAreIsolated(t *testing.T) {
	tb := New()
	_, _ = tb.Add(Rule{Scope: ServiceID(1), Match: MatchAll, Actions: []Action{Forward(2)}})
	if _, err := tb.Lookup(ServiceID(3), key(1)); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("lookup crossed scopes: %v", err)
	}
}

func TestDelete(t *testing.T) {
	tb := New()
	id, _ := tb.Add(Rule{Scope: Port(0), Match: ExactMatch(key(1)), Actions: []Action{Drop()}})
	id2, _ := tb.Add(Rule{Scope: Port(0), Match: MatchAll, Actions: []Action{Forward(1)}})
	if err := tb.Delete(id); err != nil {
		t.Fatal(err)
	}
	if e, err := tb.Lookup(Port(0), key(1)); err != nil {
		t.Fatal(err)
	} else if d, _ := e.Default(); d != Forward(1) {
		t.Fatalf("deleted rule still matched: %v", d)
	}
	if err := tb.Delete(id2); err != nil {
		t.Fatal(err)
	}
	if err := tb.Delete(999); !errors.Is(err, ErrNoRule) {
		t.Fatalf("deleting unknown rule: %v", err)
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after deletes", tb.Len())
	}

	// Several ids at once, across shards and rule kinds, in one call. An
	// unknown id among them reports ErrNoRule; the known ones still go.
	var ids []uint64
	for i := 0; i < 4; i++ {
		id, _ := tb.Add(Rule{Scope: ServiceID(i), Match: ExactMatch(key(byte(i))), Actions: []Action{Drop()}})
		ids = append(ids, id)
	}
	keep, _ := tb.Add(Rule{Scope: ServiceID(1), Match: MatchAll, Actions: []Action{Forward(1)}})
	gone, _ := tb.Add(Rule{Scope: ServiceID(2), Match: MatchAll, Actions: []Action{Forward(2)}})
	if err := tb.Delete(ids[0], ids[1], gone); err != nil {
		t.Fatal(err)
	}
	if err := tb.Delete(ids[2], 999, ids[3]); !errors.Is(err, ErrNoRule) {
		t.Fatalf("multi-id delete with an unknown id: %v", err)
	}
	if tb.Len() != 1 || tb.AnyEntry(ServiceID(1)).ID != keep {
		t.Fatalf("after multi-id deletes: Len = %d, want only rule %d", tb.Len(), keep)
	}
	if st := tb.Stats(); st.Deleted != 7 || st.Adds != uint64(st.Rules)+st.Deleted {
		t.Fatalf("counters after multi-id deletes: %+v", st)
	}
	if err := tb.Delete(); err != nil {
		t.Fatalf("Delete() of no ids: %v", err)
	}
}

func TestAddRejectsEmptyActions(t *testing.T) {
	tb := New()
	if _, err := tb.Add(Rule{Scope: Port(0), Match: MatchAll}); !errors.Is(err, ErrNoAction) {
		t.Fatalf("err = %v", err)
	}
}

func TestExactReplacementKeepsID(t *testing.T) {
	tb := New()
	k := key(9)
	id1, _ := tb.Add(Rule{Scope: Port(0), Match: ExactMatch(k), Actions: []Action{Forward(1)}})
	id2, _ := tb.Add(Rule{Scope: Port(0), Match: ExactMatch(k), Actions: []Action{Forward(2)}})
	if id1 != id2 {
		t.Fatalf("replacement changed rule id: %d -> %d", id1, id2)
	}
	e, _ := tb.Lookup(Port(0), k)
	if d, _ := e.Default(); d != Forward(2) {
		t.Fatal("replacement did not take effect")
	}
}

func TestUpdateDefaultWildcard(t *testing.T) {
	tb := New()
	_, _ = tb.Add(Rule{Scope: ServiceID(1), Match: MatchAll,
		Actions: []Action{Forward(2), Forward(3)}})
	// Constrained update to an unlisted action is refused.
	if n := tb.UpdateDefault(ServiceID(1), MatchAll, Forward(9), true); n != 0 {
		t.Fatalf("unlisted action accepted: %d", n)
	}
	if n := tb.UpdateDefault(ServiceID(1), MatchAll, Forward(3), true); n != 1 {
		t.Fatalf("UpdateDefault = %d", n)
	}
	e, _ := tb.Lookup(ServiceID(1), key(1))
	if d, _ := e.Default(); d != Forward(3) {
		t.Fatalf("default not rewritten: %v", d)
	}
	// The alternative list is preserved.
	if !e.Allows(Forward(2)) {
		t.Fatal("old default vanished from the action list")
	}
}

func TestUpdateDefaultExactSpecializes(t *testing.T) {
	tb := New()
	_, _ = tb.Add(Rule{Scope: ServiceID(1), Match: MatchAll,
		Actions: []Action{Forward(2), Forward(3)}})
	k := key(7)
	if n := tb.UpdateDefault(ServiceID(1), ExactMatch(k), Forward(3), true); n != 1 {
		t.Fatalf("specialize = %d", n)
	}
	// The targeted flow sees the new default…
	e, _ := tb.Lookup(ServiceID(1), k)
	if d, _ := e.Default(); d != Forward(3) {
		t.Fatalf("flow default: %v", d)
	}
	// …but other flows keep the old one (the Fig. 4 behaviour).
	e, _ = tb.Lookup(ServiceID(1), key(8))
	if d, _ := e.Default(); d != Forward(2) {
		t.Fatalf("wildcard default disturbed: %v", d)
	}
}

func TestScopesWithActionTo(t *testing.T) {
	tb := New()
	_, _ = tb.Add(Rule{Scope: ServiceID(1), Match: MatchAll, Actions: []Action{Forward(5)}})
	_, _ = tb.Add(Rule{Scope: ServiceID(2), Match: MatchAll, Actions: []Action{Out(0), Forward(5)}})
	_, _ = tb.Add(Rule{Scope: ServiceID(3), Match: MatchAll, Actions: []Action{Out(0)}})
	got := tb.ScopesWithActionTo(MatchAll, ServiceID(5))
	if len(got) != 2 || got[0] != ServiceID(1) || got[1] != ServiceID(2) {
		t.Fatalf("scopes = %v", got)
	}
}

func TestMatchOverlap(t *testing.T) {
	a := MatchSrcIP(packet.IPv4(1, 1, 1, 1))
	b := MatchSrcIP(packet.IPv4(2, 2, 2, 2))
	if overlaps(a, b) {
		t.Fatal("disjoint srcIP matches overlap")
	}
	if !overlaps(a, MatchAll) {
		t.Fatal("wildcard must overlap everything")
	}
	if !overlaps(a, MatchDstIP(packet.IPv4(9, 9, 9, 9))) {
		t.Fatal("orthogonal fields must overlap")
	}
}

// Property: Matches(ExactMatch(k), k) is always true and two distinct keys
// never both match each other's exact rules.
func TestExactMatchProperty(t *testing.T) {
	f := func(a, b packet.FlowKey) bool {
		ma, mb := ExactMatch(a), ExactMatch(b)
		if !ma.Matches(a) || !mb.Matches(b) {
			return false
		}
		if a != b && (ma.Matches(b) || mb.Matches(a)) {
			return false
		}
		return ma.IsExact() && ma.Specificity() == 5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: lookup after Add always finds a rule whose match accepts the
// key (most-specific-wins does not return non-matching rules).
func TestLookupSoundProperty(t *testing.T) {
	f := func(keys []packet.FlowKey, exact []bool) bool {
		tb := New()
		_, _ = tb.Add(Rule{Scope: Port(0), Match: MatchAll, Actions: []Action{Drop()}})
		for i, k := range keys {
			if i < len(exact) && exact[i] {
				_, _ = tb.Add(Rule{Scope: Port(0), Match: ExactMatch(k), Actions: []Action{Forward(1)}})
			}
		}
		for _, k := range keys {
			e, err := tb.Lookup(Port(0), k)
			if err != nil || !e.Match.Matches(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAndDump(t *testing.T) {
	tb := New()
	_, _ = tb.Add(Rule{Scope: Port(0), Match: MatchAll, Actions: []Action{Forward(1)}, Parallel: false})
	_, _ = tb.Lookup(Port(0), key(1))
	_, _ = tb.Lookup(ServiceID(9), key(1)) // miss
	st := tb.Stats()
	if st.Lookups != 2 || st.Misses != 1 || st.Rules != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if tb.Dump() == "" {
		t.Fatal("empty dump")
	}
}

func BenchmarkLookupExact(b *testing.B) {
	tb := New()
	keys := make([]packet.FlowKey, 256)
	for i := range keys {
		keys[i] = key(byte(i))
		keys[i].SrcPort = uint16(i)
		_, _ = tb.Add(Rule{Scope: Port(0), Match: ExactMatch(keys[i]), Actions: []Action{Forward(1)}})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.Lookup(Port(0), keys[i&255]); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAnyEntry(t *testing.T) {
	tb := New()
	// Empty scope: nothing to return.
	if e := tb.AnyEntry(ServiceID(40)); e != nil {
		t.Fatalf("empty scope returned %v", e)
	}
	// Exact-only scope: the lowest-id exact entry is returned — the case
	// where the zero-key lookup finds nothing (SkipMe regression).
	id1, _ := tb.Add(Rule{Scope: ServiceID(40), Match: ExactMatch(key(1)), Actions: []Action{Out(1)}})
	_, _ = tb.Add(Rule{Scope: ServiceID(40), Match: ExactMatch(key(2)), Actions: []Action{Out(2)}})
	e := tb.AnyEntry(ServiceID(40))
	if e == nil || e.ID != id1 {
		t.Fatalf("exact-only scope: got %v, want entry %d", e, id1)
	}
	// With wildcards present the least specific one wins (the scope-wide
	// default), not the most specific and not an exact entry.
	_, _ = tb.Add(Rule{Scope: ServiceID(40), Match: NewMatch(packet.FlowKey{DstPort: 80}, FieldDstPort), Actions: []Action{Drop()}})
	_, _ = tb.Add(Rule{Scope: ServiceID(40), Match: MatchAll, Actions: []Action{Forward(7)}})
	e = tb.AnyEntry(ServiceID(40))
	if e == nil || e.Match.Specificity() != 0 {
		t.Fatalf("wildcard preference: got %v", e)
	}
	if def, _ := e.Default(); def != Forward(7) {
		t.Fatalf("default = %v", def)
	}
}
