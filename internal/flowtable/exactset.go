package flowtable

import (
	"iter"
	"math"
	"sync/atomic"

	"sdnfv/internal/packet"
)

// exactSet is one scope's exact-match rules: a large immutable base that
// every snapshot published since the last fold shares, plus a small
// copy-on-write delta holding the writes since. A writer clones only the
// delta, so installing a batch into a 262 144-rule scope copies the few
// hundred rules written since the last fold, not the scope.
type exactSet struct {
	base *exactBase
	// delta shadows base: a non-nil value adds or replaces the rule under
	// its key, a nil value marks a deleted base rule.
	delta map[packet.FlowKey]*Entry
	n     int // live rules: the delta's non-nil values plus the base keys it does not shadow
}

// exactBase is the folded bulk of an exactSet. m is never written after
// the fold that built it.
type exactBase struct {
	m map[packet.FlowKey]*Entry
	// due is a lower bound on the coarse-clock time at which any base rule
	// the delta does not shadow can expire; the sweeper skips the base
	// until the clock reaches it. Idle clocks only move forward and a
	// shadowed key stays shadowed until the next fold replaces the base,
	// so a bound once computed stays valid. Zero (a fresh fold) means
	// "scan at the next sweep".
	due atomic.Int64
}

// get resolves k in the set; a nil set holds nothing. The delta is probed
// first, and only when non-empty, so a freshly folded scope costs one map
// probe.
//
//sdnfv:hotpath
func (s *exactSet) get(k packet.FlowKey) (*Entry, bool) {
	if s == nil {
		return nil, false
	}
	if len(s.delta) != 0 {
		if e, ok := s.delta[k]; ok {
			return e, e != nil
		}
	}
	e, ok := s.base.m[k]
	return e, ok
}

// all yields every live rule: the delta's, then the base rules the delta
// does not shadow.
func (s *exactSet) all() iter.Seq2[packet.FlowKey, *Entry] {
	return func(yield func(packet.FlowKey, *Entry) bool) {
		for k, e := range s.delta {
			if e != nil && !yield(k, e) {
				return
			}
		}
		for k, e := range s.base.m {
			if _, shadowed := s.delta[k]; !shadowed && !yield(k, e) {
				return
			}
		}
	}
}

// put installs e under k in a private set and returns the rule it
// replaces, or nil.
func (s *exactSet) put(k packet.FlowKey, e *Entry) *Entry {
	old, ok := s.get(k)
	if !ok {
		s.n++
	}
	s.delta[k] = e
	return old
}

// del removes the live rule under k from a private set.
func (s *exactSet) del(k packet.FlowKey) {
	if _, inBase := s.base.m[k]; inBase {
		s.delta[k] = nil
	} else {
		delete(s.delta, k)
	}
	s.n--
}

// fold merges the delta into a fresh, right-sized base once the delta
// outgrows its budget of 256 rules plus an eighth of the base. The budget
// keeps a write's delta clone a small fraction of a large scope, while a
// fold's copy of the scope is paid for by the writes that filled the
// delta: at most eight rule copies per write, amortized.
func (s *exactSet) fold() {
	if len(s.delta) <= 256+len(s.base.m)/8 {
		return
	}
	m := s.delta // with an empty base the delta is already the whole set
	if len(s.base.m) != 0 {
		m = make(map[packet.FlowKey]*Entry, s.n)
		for k, e := range s.all() {
			m[k] = e
		}
	}
	s.base, s.delta = &exactBase{m: m}, nil
}

// expired yields the live rules past their timeouts at now. The delta is
// always walked; the base only once now reaches base.due. A base walk the
// caller does not stop raises due to the earliest time a base rule it did
// not yield can expire: the caller reaps every rule it is yielded, so the
// bound holds for the set it publishes and later sweeps skip the base
// until then.
func (s *exactSet) expired(now int64) iter.Seq2[packet.FlowKey, *Entry] {
	return func(yield func(packet.FlowKey, *Entry) bool) {
		for k, e := range s.delta {
			if e != nil && expiresBy(e) <= now && !yield(k, e) {
				return
			}
		}
		if now < s.base.due.Load() {
			return
		}
		due := int64(math.MaxInt64)
		for k, e := range s.base.m {
			if _, shadowed := s.delta[k]; shadowed {
				continue
			}
			if at := expiresBy(e); at > now {
				due = min(due, at)
			} else if !yield(k, e) {
				return
			}
		}
		s.base.due.Store(due)
	}
}
