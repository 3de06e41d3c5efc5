// Flow lifecycle: idle/hard timeouts and two-stage eviction.
//
// Expiry is judged against a coarse clock (Table.now) that a background
// sweeper advances once per tick — the data path never reads wall time.
// Eviction is two-stage:
//
//  1. Lazy: a lookup that finds a timed-out entry treats it as a miss
//     and bumps the shard's expired counter. No locks, no deletes, no
//     notifications — the data-path thread only signals.
//  2. Sweep: a background goroutine (or an explicit Sweep call) visits
//     only the entries whose deadline has come. Each shard files every
//     timed entry it publishes, exact or wildcard, in an expiry bucket
//     for its coarse deadline (expiresBy, in 2^22 ns ≈ 4 ms buckets),
//     linked through the entry's own nextDue field, so filing allocates
//     nothing per rule, and a write's consecutive entries for one bucket
//     enter the bucket map together (one map operation for a batch of
//     rules with one lease). A sweep takes the shard writer mutex only
//     when a bucket is due, detaches the due buckets, and for each entry
//     in them drops it if the shard no longer publishes it (it was replaced,
//     rewritten or deleted since it was filed), evicts it if it is still
//     past its timeouts, and otherwise — a hit moved its idle clock on —
//     files it again at its new deadline. A deadline only moves later, so
//     an entry is always filed no later than it can expire, and the
//     sweep's cost follows the expiries, not the residents. A replaced or
//     deleted entry stays filed until its old deadline: at most one
//     timeout.
//
// The idle clock is the entry's own lastHit, so a timed rule is one heap
// object. A default rewrite (withDefault) publishes a fresh entry that
// carries the clock over, read under the shard mutex: a default change
// neither refreshes nor resets the lease. A hit that lands on the
// superseded entry after that read — a descriptor-cached pointer, or a
// lookup that loaded the entry just before the rewrite — moves only the
// superseded entry's clock, so the rule can idle out up to that much
// sooner.
//
// Evicting an exact rule turns its slot into a tombstone in place (see
// exactSet): a probe and a store, with no copy of the scope. A mass
// expiry that leaves a scope under a quarter full rebuilds it into a
// smaller array, and one that empties it drops the scope outright, so
// shard memory shrinks with the rules. Only the sweeper removes and only
// the sweeper notifies, so every eviction is observed exactly once by
// OnEvict. A write that evicts several rules is not visible atomically:
// a lookup may find some of them gone and others not yet, which no
// per-key reader can tell from the sweep running a moment later.
package flowtable

import (
	"math"
	"slices"
	"time"
)

// EvictReason says which timeout reaped a rule.
type EvictReason uint8

const (
	// EvictIdle means no packet hit the rule within its idle timeout.
	EvictIdle EvictReason = iota
	// EvictHard means the rule outlived its hard timeout.
	EvictHard
)

// String renders the reason as its OpenFlow-ish label.
func (r EvictReason) String() string {
	if r == EvictHard {
		return "hard"
	}
	return "idle"
}

// Evicted describes one rule removed by the sweeper.
type Evicted struct {
	ID     uint64
	Scope  ServiceID
	Match  Match
	Reason EvictReason
}

// LifecycleConfig configures the background sweeper.
type LifecycleConfig struct {
	// SweepInterval is the coarse clock tick and sweep period.
	// Defaults to 100ms.
	SweepInterval time.Duration
	// OnEvict, when non-nil, receives each sweep's eviction batch (only
	// non-empty batches). Called from the sweeper goroutine — it may
	// take locks and allocate, but must not call back into StopSweeper.
	// The slice is the sweeper's buffer, reused by the next tick: it is
	// valid only during the call, so copy what you keep.
	OnEvict func([]Evicted)
}

// DefaultSweepInterval is the sweeper tick when none is configured.
const DefaultSweepInterval = 100 * time.Millisecond

// quietTicks is how many ticks in a row must use under an eighth of the
// sweeper's eviction buffer before it is let go: a cohort of rules often
// expires one tick late, so single quiet ticks alternate with double ones
// under steady load.
const quietTicks = 20

// SetDefaultTimeouts sets the table-wide default idle/hard timeouts
// applied at install time to exact-match rules that carry none of their
// own. Zero disables the respective default. Wildcard rules never
// inherit defaults — infrastructure rules live until deleted unless
// explicitly given timeouts. Affects rules installed after the call.
func (t *Table) SetDefaultTimeouts(idle, hard time.Duration) {
	t.defMu.Lock()
	t.defIdle, t.defHard = idle, hard
	t.defMu.Unlock()
}

// SetScopeTimeouts overrides the default timeouts for exact-match rules
// installed at one scope, winning over the table-wide pair. A negative
// value pins the field to "no timeout" for that scope.
func (t *Table) SetScopeTimeouts(scope ServiceID, idle, hard time.Duration) {
	t.defMu.Lock()
	if t.scopeTOs == nil {
		t.scopeTOs = make(map[ServiceID]timeoutPair)
	}
	t.scopeTOs[scope] = timeoutPair{idle: idle, hard: hard}
	t.defMu.Unlock()
}

// Advance moves the coarse clock forward by d without sweeping. Tests
// and benchmarks use it to make expiry deterministic; production tables
// let the sweeper tick the clock from wall time.
func (t *Table) Advance(d time.Duration) {
	if d > 0 {
		t.now.Add(int64(d))
	}
}

// StartSweeper launches the background sweeper: each tick advances the
// coarse clock by elapsed wall time, sweeps expired entries, and hands
// the eviction batch to cfg.OnEvict. A second call before StopSweeper is
// a no-op.
func (t *Table) StartSweeper(cfg LifecycleConfig) {
	interval := cfg.SweepInterval
	if interval <= 0 {
		interval = DefaultSweepInterval
	}
	t.sweepMu.Lock()
	defer t.sweepMu.Unlock()
	if t.sweepStop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	t.sweepStop, t.sweepDone = stop, done
	go t.sweepLoop(interval, cfg.OnEvict, stop, done)
}

// StopSweeper stops the background sweeper and waits for its in-flight
// sweep (including its OnEvict call) to finish. No-op when not running.
func (t *Table) StopSweeper() {
	t.sweepMu.Lock()
	stop, done := t.sweepStop, t.sweepDone
	t.sweepStop, t.sweepDone = nil, nil
	t.sweepMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

func (t *Table) sweepLoop(interval time.Duration, onEvict func([]Evicted), stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	last := time.Now()
	var buf []Evicted // reused by every tick: OnEvict must not keep it
	quiet := 0        // ticks in a row that used under an eighth of buf
	for {
		select {
		case <-stop:
			return
		case now := <-ticker.C:
			t.Advance(now.Sub(last))
			last = now
			if buf = t.sweep(buf[:0]); len(buf) > 0 && onEvict != nil {
				onEvict(buf)
			}
			if quiet++; len(buf) >= cap(buf)/8 {
				quiet = 0
			} else if quiet == quietTicks {
				buf, quiet = nil, 0 // the load fell: let the peak's buffer go
			}
		}
	}
}

// Sweep removes every expired entry and returns them. A shard whose
// earliest bucket is not yet due is passed over without its mutex; the
// others detach their due buckets under it, so an entry replaced (its
// lease refreshed) concurrently survives, and two concurrent sweeps can
// never both collect the same entry.
func (t *Table) Sweep() []Evicted { return t.sweep(nil) }

// sweep is Sweep appending to evicted.
func (t *Table) sweep(evicted []Evicted) []Evicted {
	start := time.Now()
	now := t.now.Load()
	for si := range t.shards {
		evicted = t.sweepShard(&t.shards[si], now, evicted)
	}
	var nIdle, nHard uint64
	for _, ev := range evicted {
		if ev.Reason == EvictHard {
			nHard++
		} else {
			nIdle++
		}
	}
	if nIdle > 0 {
		t.evictedIdle.Add(nIdle)
	}
	if nHard > 0 {
		t.evictedHard.Add(nHard)
	}
	t.sweeps.Add(1)
	t.sweepNanos.Add(uint64(time.Since(start)))
	return evicted
}

// expiredAt is the sweeper's non-touching expiry check. Hard wins when
// both apply: a rule at its end of life is reported hard-expired even if
// it also idled out.
func expiredAt(e *Entry, now int64) (EvictReason, bool) {
	if e.hardAt != 0 && now >= e.hardAt {
		return EvictHard, true
	}
	return EvictIdle, expiresBy(e) <= now
}

// expiresBy is the earliest coarse-clock time at which e can expire as
// of its current idle clock, or MaxInt64 for a rule with no timeouts.
func expiresBy(e *Entry) int64 {
	at := int64(math.MaxInt64)
	if e.hardAt != 0 {
		at = e.hardAt
	}
	if e.idleNs != 0 {
		at = min(at, e.lastHit.Load()+e.idleNs)
	}
	return at
}

func (t *Table) sweepShard(sh *shard, now int64, evicted []Evicted) []Evicted {
	if now < sh.due.Load() {
		return evicted
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var again *Entry // survivors, filed again once every due bucket is detached
	visits, reaped := uint64(0), len(evicted)
	for e := sh.buckets.popDue(now); e != nil; e = sh.buckets.popDue(now) {
		for e != nil {
			link := e.nextDue
			e.nextDue = nil
			visits++
			// An entry the shard no longer holds was replaced, rewritten
			// or deleted since it was filed: it is dropped, once due. One
			// still due later in the bucket the clock is in goes back to
			// that bucket unchecked, to be judged when it expires.
			switch reason, exp := expiredAt(e, now); {
			case exp:
				if sh.remove(e) {
					evicted = append(evicted, Evicted{ID: e.ID, Scope: e.Scope, Match: e.Match, Reason: reason})
				}
			case expiresBy(e)>>bucketShift == now>>bucketShift || sh.view().holds(e):
				e.nextDue, again = again, e
			}
			e = link
		}
	}
	for again != nil {
		e := again
		again = e.nextDue
		sh.link(e)
	}
	sh.publish()
	sh.due.Store(sh.buckets.earliest())
	t.sweepVisits.Add(visits)
	if len(evicted) > reaped {
		t.modifies.Add(1)
	}
	return evicted
}

// holds reports whether s publishes e under its scope and match.
func (s *snapshot) holds(e *Entry) bool {
	if k, ok := e.Match.ExactKey(); ok {
		return s.exact[e.Scope].find(k, k.Hash()) == e
	}
	return slices.Contains(s.wild[e.Scope], e)
}

// bucketShift sets the expiry bucket width: deadlines d and d' share a
// bucket when d>>bucketShift == d'>>bucketShift, so a bucket spans 2^22
// ns ≈ 4.2 ms of the coarse clock. Narrower buckets waste fewer visits on
// not-yet-due entries in the bucket the clock is in; wider ones cost
// fewer buckets per timeout window.
const bucketShift = 22

// expiryBuckets files entries by coarse deadline: each bucket is a list
// chained through Entry.nextDue, and a min-heap orders the buckets so a
// sweep finds the due ones without looking at the rest.
type expiryBuckets struct {
	heads map[int64]*Entry // bucket -> its latest-filed entry
	order []int64          // min-heap of the buckets in heads
}

// link files the chain from head to tail, which must be in no bucket, in
// bucket b.
func (bs *expiryBuckets) link(head, tail *Entry, b int64) {
	old, ok := bs.heads[b]
	if !ok {
		if bs.heads == nil {
			bs.heads = make(map[int64]*Entry)
		}
		bs.push(b)
	}
	tail.nextDue = old
	bs.heads[b] = head
}

// popDue detaches the earliest bucket if it is due by now, and returns
// its entries, or nil.
func (bs *expiryBuckets) popDue(now int64) *Entry {
	if len(bs.order) == 0 || bs.order[0] > now>>bucketShift {
		return nil
	}
	b := bs.order[0]
	bs.pop()
	e := bs.heads[b]
	delete(bs.heads, b)
	return e
}

// earliest is the coarse-clock time the earliest bucket comes due, or
// MaxInt64 when no entry is filed.
func (bs *expiryBuckets) earliest() int64 {
	if len(bs.order) == 0 {
		return math.MaxInt64
	}
	return bs.order[0] << bucketShift
}

func (bs *expiryBuckets) push(b int64) {
	h := append(bs.order, b)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i], i = h[i], h[p], p
	}
	bs.order = h
}

func (bs *expiryBuckets) pop() {
	h := bs.order
	n := len(h) - 1
	h[0], h = h[n], h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c], i = h[c], h[i], c
	}
	bs.order = h
}

// filing is the chain of entries a write has filed in one bucket so far,
// not yet in the bucket map: head is the latest filed, tail the first.
type filing struct {
	bucket     int64
	head, tail *Entry
}

// link files e under its current deadline if it has one. Entries filed
// one after another in one bucket are chained in the shard's pending
// filing and enter the bucket map together, when the bucket changes or
// the write publishes, so a run of rules with one lease costs one map
// operation. Caller holds sh.mu; e is in no bucket.
func (sh *shard) link(e *Entry) {
	at := expiresBy(e)
	if at == math.MaxInt64 {
		return
	}
	p := &sh.pending
	if b := at >> bucketShift; p.head == nil || b != p.bucket {
		sh.fileChain()
		p.bucket, p.tail = b, e
	}
	e.nextDue, p.head = p.head, e
}

// fileChain moves the pending filing into its bucket and lowers the
// shard's due time to that bucket's start. Caller holds sh.mu.
func (sh *shard) fileChain() {
	p := &sh.pending
	if p.head == nil {
		return
	}
	sh.buckets.link(p.head, p.tail, p.bucket)
	if start := p.bucket << bucketShift; start < sh.due.Load() {
		sh.due.Store(start)
	}
	*p = filing{}
}
