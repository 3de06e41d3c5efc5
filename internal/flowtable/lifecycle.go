// Flow lifecycle: idle/hard timeouts and two-stage eviction.
//
// Expiry is judged against a coarse clock (Table.now) that a background
// sweeper advances once per tick — the data path never reads wall time.
// Eviction is two-stage:
//
//  1. Lazy: a lookup that finds a timed-out entry treats it as a miss
//     and bumps the shard's expired counter. No locks, no deletes, no
//     notifications — the data-path thread only signals.
//  2. Sweep: a background goroutine (or an explicit Sweep call) walks
//     each shard, re-checks expiry under the shard writer mutex, and
//     removes the dead entries in one batch. A scope's exact rules are a
//     shared base plus a small delta (see the package doc): the delta is
//     walked every tick, the base only once the clock reaches the
//     earliest time any base rule can expire, a bound the walk then
//     raises. Removing a base rule writes a tombstone into the delta, so
//     a sweep that reaps a few rules rebuilds only the delta; a mass
//     expiry overflows the delta's budget and folds the survivors into a
//     right-sized base, or frees the scope outright, so shard memory
//     shrinks (a flat table never shrinks in place). Only the sweeper
//     removes and only the sweeper notifies, so every eviction is
//     observed exactly once by OnEvict.
package flowtable

import (
	"math"
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
	OnEvict func([]Evicted)
}

// DefaultSweepInterval is the sweeper tick when none is configured.
const DefaultSweepInterval = 100 * time.Millisecond

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
	for {
		select {
		case <-stop:
			return
		case now := <-ticker.C:
			t.Advance(now.Sub(last))
			last = now
			if ev := t.Sweep(); len(ev) > 0 && onEvict != nil {
				onEvict(ev)
			}
		}
	}
}

// Sweep removes every expired entry and returns them. Each shard is
// first scanned lock-free against the published snapshot; only shards
// with candidates take the writer mutex, where expiry is re-checked
// against the then-current snapshot — an entry replaced (its lease
// refreshed) between scan and lock survives, and two concurrent sweeps
// can never both collect the same entry. Both walks skip a scope's base
// until one of its rules can be due.
func (t *Table) Sweep() []Evicted {
	start := time.Now()
	now := t.now.Load()
	var evicted []Evicted
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
		at = min(at, e.life.lastHit.Load()+e.idleNs)
	}
	return at
}

func (t *Table) sweepShard(sh *shard, now int64, evicted []Evicted) []Evicted {
	// Lock-free pre-scan: most ticks, most shards have nothing expired
	// and the writer mutex is never taken.
	snap := sh.snap.Load()
	if !shardHasExpired(snap, now) {
		return evicted
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.snap.Load()
	var next *snapshot
	for scope, set := range cur.exact {
		for k, e := range set.expired(now) {
			if next == nil {
				next = cur.cloneTop()
			}
			next.exactFor(scope).del(k)
			reason, _ := expiredAt(e, now)
			evicted = append(evicted, Evicted{ID: e.ID, Scope: scope, Match: e.Match, Reason: reason})
		}
	}
	for scope, ws := range cur.wild {
		dead := 0
		for _, e := range ws {
			if _, exp := expiredAt(e, now); exp {
				dead++
			}
		}
		if dead == 0 {
			continue
		}
		if next == nil {
			next = cur.cloneTop()
		}
		if dead == len(ws) {
			delete(next.wild, scope)
		} else {
			nws := make([]*Entry, 0, len(ws)-dead)
			for _, e := range ws {
				if _, exp := expiredAt(e, now); !exp {
					nws = append(nws, e)
				}
			}
			next.wild[scope] = nws
		}
		for _, e := range ws {
			if reason, exp := expiredAt(e, now); exp {
				evicted = append(evicted, Evicted{ID: e.ID, Scope: scope, Match: e.Match, Reason: reason})
			}
		}
	}
	if next != nil {
		t.modifies.Add(1)
		sh.publish(next)
	}
	return evicted
}

// shardHasExpired reports whether any entry in the published snapshot is
// past its timeouts. Read-only; may race with writers, which is fine —
// the sweep re-checks under the shard mutex.
func shardHasExpired(snap *snapshot, now int64) bool {
	for _, set := range snap.exact {
		for range set.expired(now) {
			return true
		}
	}
	for _, ws := range snap.wild {
		for _, e := range ws {
			if _, exp := expiredAt(e, now); exp {
				return true
			}
		}
	}
	return false
}
