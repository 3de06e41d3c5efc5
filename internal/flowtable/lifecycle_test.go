package flowtable

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"sdnfv/internal/packet"
)

func TestIdleTimeoutLazyMiss(t *testing.T) {
	tb := New()
	k := key(1)
	if _, err := tb.Add(Rule{Scope: Port(0), Match: ExactMatch(k),
		Actions: []Action{Out(1)}, IdleTimeout: time.Second}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Lookup(Port(0), k); err != nil {
		t.Fatalf("fresh rule missed: %v", err)
	}
	tb.Advance(999 * time.Millisecond)
	if _, err := tb.Lookup(Port(0), k); err != nil {
		t.Fatalf("rule within idle window missed: %v", err)
	}
	// The hit above touched the idle clock, so a full window must elapse
	// again before expiry.
	tb.Advance(999 * time.Millisecond)
	if _, err := tb.Lookup(Port(0), k); err != nil {
		t.Fatalf("touch did not refresh idle clock: %v", err)
	}
	tb.Advance(time.Second)
	if _, err := tb.Lookup(Port(0), k); err == nil {
		t.Fatal("idle-expired rule still answers lookups")
	}
	st := tb.Stats()
	if st.ExpiredLookups == 0 {
		t.Fatal("lazy expiry not signalled in ExpiredLookups")
	}
	// The rule is expired but not yet reaped: only the sweeper removes.
	if st.Rules != 1 {
		t.Fatalf("lazy path deleted the rule: Rules=%d", st.Rules)
	}
	ev := tb.Sweep()
	if len(ev) != 1 || ev[0].Reason != EvictIdle || ev[0].Scope != Port(0) {
		t.Fatalf("sweep = %+v, want one idle eviction at port:0", ev)
	}
	if got, ok := ev[0].Match.ExactKey(); !ok || got != k {
		t.Fatalf("evicted key = %v ok=%v, want %v", got, ok, k)
	}
	if n := tb.Stats().Rules; n != 0 {
		t.Fatalf("rules after sweep = %d, want 0", n)
	}
	// Exactly-once: a second sweep finds nothing.
	if ev := tb.Sweep(); len(ev) != 0 {
		t.Fatalf("second sweep re-evicted: %+v", ev)
	}
}

func TestHardTimeoutIgnoresTraffic(t *testing.T) {
	tb := New()
	k := key(2)
	if _, err := tb.Add(Rule{Scope: Port(0), Match: ExactMatch(k),
		Actions: []Action{Out(1)}, HardTimeout: time.Second}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tb.Advance(400 * time.Millisecond)
		_, _ = tb.Lookup(Port(0), k) // traffic cannot extend a hard lease
	}
	if _, err := tb.Lookup(Port(0), k); err == nil {
		t.Fatal("hard-expired rule still answers lookups")
	}
	ev := tb.Sweep()
	if len(ev) != 1 || ev[0].Reason != EvictHard {
		t.Fatalf("sweep = %+v, want one hard eviction", ev)
	}
	if st := tb.Stats(); st.EvictedHard != 1 || st.EvictedIdle != 0 {
		t.Fatalf("eviction counters = %+v", st)
	}
}

func TestExpiredExactFallsThroughToWildcard(t *testing.T) {
	tb := New()
	k := key(3)
	_, _ = tb.Add(Rule{Scope: Port(0), Match: MatchAll, Actions: []Action{Forward(10)}})
	_, _ = tb.Add(Rule{Scope: Port(0), Match: ExactMatch(k),
		Actions: []Action{Forward(20)}, IdleTimeout: time.Second})
	tb.Advance(2 * time.Second)
	e, err := tb.Lookup(Port(0), k)
	if err != nil {
		t.Fatalf("wildcard did not answer after exact expiry: %v", err)
	}
	if d, _ := e.Default(); d != Forward(10) {
		t.Fatalf("expired exact rule still shadows wildcard: %v", d)
	}
}

func TestDefaultTimeoutsExactOnly(t *testing.T) {
	tb := New()
	tb.SetDefaultTimeouts(time.Second, 0)
	k := key(4)
	_, _ = tb.Add(Rule{Scope: Port(0), Match: MatchAll, Actions: []Action{Forward(10)}})
	_, _ = tb.Add(Rule{Scope: Port(0), Match: ExactMatch(k), Actions: []Action{Forward(20)}})
	tb.Advance(2 * time.Second)
	if len(tb.Sweep()) != 1 {
		t.Fatal("exact rule did not inherit the table default idle timeout")
	}
	// The wildcard must survive: infrastructure rules never inherit.
	if tb.Stats().Rules != 1 {
		t.Fatal("wildcard rule inherited a default timeout")
	}
	e, err := tb.Lookup(Port(0), k)
	if err != nil {
		t.Fatal("wildcard gone after sweep")
	}
	if d, _ := e.Default(); d != Forward(10) {
		t.Fatalf("wrong survivor: %v", d)
	}
}

func TestScopeTimeoutOverrideAndNegativeOptOut(t *testing.T) {
	tb := New()
	tb.SetDefaultTimeouts(time.Second, 0)
	tb.SetScopeTimeouts(Port(1), 10*time.Second, 0)
	_, _ = tb.Add(Rule{Scope: Port(0), Match: ExactMatch(key(5)), Actions: []Action{Out(1)}})
	_, _ = tb.Add(Rule{Scope: Port(1), Match: ExactMatch(key(5)), Actions: []Action{Out(1)}})
	// Negative opts out of the default entirely: this rule never expires.
	_, _ = tb.Add(Rule{Scope: Port(2), Match: ExactMatch(key(5)),
		Actions: []Action{Out(1)}, IdleTimeout: -1})
	tb.Advance(2 * time.Second)
	ev := tb.Sweep()
	if len(ev) != 1 || ev[0].Scope != Port(0) {
		t.Fatalf("sweep = %+v, want only the port:0 rule (scope override 10s, opt-out never)", ev)
	}
	tb.Advance(20 * time.Second)
	ev = tb.Sweep()
	if len(ev) != 1 || ev[0].Scope != Port(1) {
		t.Fatalf("sweep = %+v, want the scope-override rule", ev)
	}
	if tb.Stats().Rules != 1 {
		t.Fatal("opt-out rule expired")
	}
}

func TestReplacementRefreshesLease(t *testing.T) {
	tb := New()
	k := key(6)
	r := Rule{Scope: Port(0), Match: ExactMatch(k), Actions: []Action{Out(1)}, IdleTimeout: time.Second}
	id1, _ := tb.Add(r)
	tb.Advance(900 * time.Millisecond)
	id2, _ := tb.Add(r) // re-install: same ID, fresh lease
	if id1 != id2 {
		t.Fatalf("replacement changed ID: %d -> %d", id1, id2)
	}
	tb.Advance(900 * time.Millisecond)
	if len(tb.Sweep()) != 0 {
		t.Fatal("replacement did not refresh the idle lease")
	}
	tb.Advance(200 * time.Millisecond)
	if len(tb.Sweep()) != 1 {
		t.Fatal("refreshed lease never expired")
	}
}

func TestDefaultRewriteKeepsIdleClock(t *testing.T) {
	tb := New()
	k := key(7)
	_, _ = tb.Add(Rule{Scope: Port(0), Match: ExactMatch(k),
		Actions: []Action{Forward(10), Forward(11)}, IdleTimeout: time.Second})
	tb.Advance(900 * time.Millisecond)
	// UpdateDefault rewrites the entry but must share the idle clock:
	// changing a default is not flow activity.
	if n := tb.UpdateDefault(Port(0), ExactMatch(k), Forward(11), true); n != 1 {
		t.Fatalf("UpdateDefault = %d", n)
	}
	tb.Advance(200 * time.Millisecond)
	if len(tb.Sweep()) != 1 {
		t.Fatal("default rewrite reset the idle clock")
	}
}

func TestStatsLifecycleIdentity(t *testing.T) {
	tb := New()
	tb.SetDefaultTimeouts(time.Second, 0)
	var ids []uint64
	for i := 0; i < 10; i++ {
		id, err := tb.Add(Rule{Scope: Port(0), Match: ExactMatch(key(byte(i))), Actions: []Action{Out(1)}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	_, _ = tb.Add(Rule{Scope: Port(0), Match: MatchAll, Actions: []Action{Forward(10)}})
	// Replace one (no new ID, no add), delete two, expire the rest.
	_, _ = tb.Add(Rule{Scope: Port(0), Match: ExactMatch(key(0)), Actions: []Action{Out(2)}})
	for _, id := range ids[:2] {
		if err := tb.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	tb.Advance(2 * time.Second)
	tb.Sweep()
	st := tb.Stats()
	if st.Adds != 11 || st.Deleted != 2 || st.Evicted() != 8 || st.Rules != 1 {
		t.Fatalf("counters: adds=%d deleted=%d evicted=%d rules=%d", st.Adds, st.Deleted, st.Evicted(), st.Rules)
	}
	if st.Adds != uint64(st.Rules)+st.Deleted+st.Evicted() {
		t.Fatalf("identity violated: adds=%d != rules=%d + deleted=%d + evicted=%d",
			st.Adds, st.Rules, st.Deleted, st.Evicted())
	}
}

func TestSweeperBackgroundEvictsAndNotifiesOnce(t *testing.T) {
	tb := New()
	var mu sync.Mutex
	seen := map[uint64]int{}
	tb.StartSweeper(LifecycleConfig{
		SweepInterval: time.Millisecond,
		OnEvict: func(evs []Evicted) {
			mu.Lock()
			for _, ev := range evs {
				seen[ev.ID]++
			}
			mu.Unlock()
		},
	})
	defer tb.StopSweeper()
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := tb.Add(Rule{Scope: Port(i % 4), Match: ExactMatch(key(byte(i))),
			Actions: []Action{Out(1)}, IdleTimeout: 5 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for tb.Stats().Rules > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := tb.Stats().Rules; got != 0 {
		t.Fatalf("background sweeper left %d rules", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != n {
		t.Fatalf("OnEvict saw %d distinct rules, want %d", len(seen), n)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("rule %d notified %d times, want exactly once", id, c)
		}
	}
}

// TestChurnConcurrent exercises concurrent lookup/add/expire/sweep under
// the race detector: data-path readers keep resolving while rules churn
// through install → idle-expire → reap.
func TestChurnConcurrent(t *testing.T) {
	tb := New()
	tb.SetDefaultTimeouts(5*time.Millisecond, 0)
	_, _ = tb.Add(Rule{Scope: Port(0), Match: MatchAll, Actions: []Action{Forward(10)}})
	tb.StartSweeper(LifecycleConfig{SweepInterval: time.Millisecond})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scopes := make([]ServiceID, 32)
			keys := make([]packet.FlowKey, 32)
			out := make([]*Entry, 32)
			for i := range scopes {
				scopes[i] = Port(0)
				keys[i] = key(byte((w*32 + i) % 200))
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				tb.LookupBatch(scopes, keys, out)
				_, _ = tb.Lookup(Port(0), keys[0])
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = tb.Add(Rule{Scope: Port(0), Match: ExactMatch(key(byte(i % 200))), Actions: []Action{Out(1)}})
			i++
			if i%64 == 0 {
				runtime.Gosched()
			}
		}
	}()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	tb.StopSweeper()
	st := tb.Stats()
	if st.Adds != uint64(st.Rules)+st.Deleted+st.Evicted() {
		t.Fatalf("identity violated after churn: adds=%d rules=%d deleted=%d evicted=%d",
			st.Adds, st.Rules, st.Deleted, st.Evicted())
	}
}

// TestSweepCostFollowsExpiries pins the sweep's work to the expiries,
// counting entries, never time: among 100 000 rules leased for an hour, a
// sweep that reaps 64 rules leased for 10 ms examines those 64 (and at
// most a few not-yet-due neighbours), and the next sweep examines none.
func TestSweepCostFollowsExpiries(t *testing.T) {
	const resident, short = 100_000, 64
	rules := make([]Rule, resident+short)
	for i := range rules {
		k := packet.FlowKey{
			SrcIP: packet.IPv4(10, byte(i>>16), byte(i>>8), byte(i)), DstIP: packet.IPv4(10, 255, 0, 1),
			SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoUDP,
		}
		rules[i] = Rule{Scope: Port(i % 4), Match: ExactMatch(k), Actions: []Action{Out(1)}, IdleTimeout: time.Hour}
		if i >= resident {
			rules[i].IdleTimeout = 10 * time.Millisecond
		}
	}
	tb := New()
	ids, err := tb.AddBatch(rules)
	if err != nil {
		t.Fatal(err)
	}
	tb.Advance(20 * time.Millisecond)
	ev := tb.Sweep()
	if len(ev) != short {
		t.Fatalf("swept %d, want %d", len(ev), short)
	}
	for _, e := range ev {
		if !slices.Contains(ids[resident:], e.ID) || e.Reason != EvictIdle {
			t.Fatalf("evicted %+v, want only the 10 ms rules, idle", e)
		}
	}
	if v := tb.sweepVisits.Load(); v > short+4 {
		t.Fatalf("sweep examined %d entries to evict %d", v, short)
	}
	visits := tb.sweepVisits.Load()
	if ev := tb.Sweep(); len(ev) != 0 || tb.sweepVisits.Load() != visits {
		t.Fatalf("second sweep evicted %d and examined %d entries, want none", len(ev), tb.sweepVisits.Load()-visits)
	}
}

// TestExpiryBucketsAcrossWritePaths files rules through every write path
// — a lease-refreshing re-Add, UpdateDefault on an exact rule and on a
// wildcard, an exact UpdateDefault that specializes a wildcard, a Delete,
// and a hit that moves an idle clock on — and checks that each rule is
// evicted exactly once, under its own ID and reason, that the lifecycle
// identity holds, and that once everything has expired and been swept no
// shard holds a bucket: a stale filing lasts at most one timeout.
func TestExpiryBucketsAcrossWritePaths(t *testing.T) {
	const idle = 100 * time.Millisecond
	scope := Port(0)
	tb := New()
	add := func(r Rule) uint64 {
		t.Helper()
		r.Scope = scope
		id, err := tb.Add(r)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	refreshed := Rule{Match: ExactMatch(key(1)), Actions: []Action{Out(1)}, IdleTimeout: idle}
	refreshedID := add(refreshed)
	rewrittenID := add(Rule{Match: ExactMatch(key(2)), Actions: []Action{Forward(10), Forward(11)}, IdleTimeout: idle})
	deletedID := add(Rule{Match: ExactMatch(key(3)), Actions: []Action{Out(1)}, IdleTimeout: idle})
	hitID := add(Rule{Match: ExactMatch(key(4)), Actions: []Action{Out(1)}, IdleTimeout: idle})
	hardID := add(Rule{Match: ExactMatch(key(5)), Actions: []Action{Out(1)}, HardTimeout: 120 * time.Millisecond})
	wildID := add(Rule{Match: MatchSrcIP(key(6).SrcIP), Actions: []Action{Forward(1), Forward(2)}, IdleTimeout: idle})
	if _, err := tb.Add(Rule{Scope: Port(1), Match: MatchAll, Actions: []Action{Out(1)}}); err != nil {
		t.Fatal(err) // never expires, so never filed
	}

	tb.Advance(50 * time.Millisecond)
	if id := add(refreshed); id != refreshedID {
		t.Fatalf("re-Add changed the ID: %d -> %d", refreshedID, id)
	}
	if n := tb.UpdateDefault(scope, ExactMatch(key(2)), Forward(11), true); n != 1 {
		t.Fatalf("exact UpdateDefault = %d", n)
	}
	if n := tb.UpdateDefault(scope, MatchAll, Forward(2), true); n != 1 {
		t.Fatalf("wildcard UpdateDefault = %d", n)
	}
	if n := tb.UpdateDefault(scope, ExactMatch(key(6)), Forward(1), true); n != 1 {
		t.Fatalf("specializing UpdateDefault = %d", n)
	}
	specialized, err := tb.Lookup(scope, key(6))
	if err != nil || !specialized.Match.IsExact() {
		t.Fatalf("specialized rule = %v, %v", specialized, err)
	}
	if err := tb.Delete(deletedID); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Lookup(scope, key(4)); err != nil {
		t.Fatal(err)
	}

	// Deadlines: rewritten and wild at 100 ms (a default change keeps the
	// idle clock), hard at 120 ms, refreshed, hit and specialized at 150 ms.
	want := map[uint64]EvictReason{
		rewrittenID: EvictIdle, wildID: EvictIdle, hardID: EvictHard,
		refreshedID: EvictIdle, hitID: EvictIdle, specialized.ID: EvictIdle,
	}
	seen := map[uint64]int{}
	for _, step := range []struct {
		at   time.Duration
		want int
	}{{50 * time.Millisecond, 0}, {110 * time.Millisecond, 2}, {125 * time.Millisecond, 1}, {160 * time.Millisecond, 3}, {time.Hour, 0}} {
		tb.Advance(step.at - time.Duration(tb.now.Load()))
		ev := tb.Sweep()
		if len(ev) != step.want {
			t.Fatalf("at %v swept %+v, want %d rules", step.at, ev, step.want)
		}
		for _, e := range ev {
			seen[e.ID]++
			if reason, ok := want[e.ID]; !ok || reason != e.Reason || e.Scope != scope {
				t.Fatalf("at %v evicted %+v, not an expected rule and reason", step.at, e)
			}
		}
	}
	for id := range want {
		if seen[id] != 1 {
			t.Fatalf("rule %d evicted %d times, want once", id, seen[id])
		}
	}
	st := tb.Stats()
	if st.Adds != 8 || st.Rules != 1 || st.Deleted != 1 || st.Adds != uint64(st.Rules)+st.Deleted+st.Evicted() {
		t.Fatalf("identity: adds=%d rules=%d deleted=%d evicted=%d", st.Adds, st.Rules, st.Deleted, st.Evicted())
	}
	for si := range tb.shards {
		sh := &tb.shards[si]
		if len(sh.buckets.heads) != 0 || len(sh.buckets.order) != 0 || sh.due.Load() != math.MaxInt64 {
			t.Fatalf("shard %d still files %d buckets (heap %d, due %d)", si, len(sh.buckets.heads), len(sh.buckets.order), sh.due.Load())
		}
	}
}

// TestEntrySizeClass pins Entry to the 112-byte allocation size class.
// The expiry-bucket link lives inside the entry (Rule.Parallel fills the
// padding beside Scope to make room), so filing a rule costs no heap per
// rule and flowtable.heap_bytes_per_rule stays flat.
func TestEntrySizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n > 112 {
		t.Fatalf("Entry is %d bytes, past the 112-byte size class", n)
	}
}
