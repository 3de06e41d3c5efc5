package flowtable

import (
	"iter"
	"math/bits"
	"sync/atomic"

	"sdnfv/internal/packet"
)

// exactSet is one scope's exact-match rules: one open-addressed slot
// array that writers change in place under the shard mutex while lookups
// read it without a lock. A slot is written once from empty to an entry;
// after that it only takes another entry under the same key (an atomic
// pointer store) or the tombstone, so a key once placed never moves and
// a probe run only ever grows. A lookup therefore finds every rule that
// was live when it loaded the array, or that rule's replacement.
//
// Tombstones still fill slots, so the load limit counts them. An insert
// that would push live rules plus tombstones past 4/5 of the array, and
// a removal that leaves the rules under a quarter of it, rebuild the
// scope into a fresh array at a 3/5 load (1⅓× the rules at the 4/5
// limit, so 16-byte slots cost 20–27 bytes per rule) and publish it with
// one atomic store. A lookup still holding the old array reads a stale
// but whole table: no writer touches an array once its successor is
// published. Each rule a write installs or removes is visible on its
// own, so a write of many rules is not visible atomically per shard; no
// reader needs it to be, because lookups are per key and writers stay
// serialized by the shard mutex.
type exactSet struct {
	tab atomic.Pointer[flatTab]
	// n counts the live rules. Writers, serialized by the shard mutex,
	// load and store it without a locked add; Len reads it lock-free.
	n atomic.Int64
	// rebuilds counts the arrays rebuild published in place of another;
	// written under the shard mutex, read by tests.
	rebuilds int
}

// flatTab is one slot array, probed linearly from the home slot that
// fastrange maps packet.FlowKey.Hash to, so its size need not be a power
// of two. The load limit leaves an empty slot to end every probe.
type flatTab struct {
	slots []slot
	used  int // slots holding an entry or a tombstone; writers only
}

// slot is one cell of a flatTab: the key's hash, written before the entry
// is first stored and never after, and the entry; nil marks it empty.
type slot struct {
	hash uint64
	e    atomic.Pointer[Entry]
}

// tombstone fills the slot of a removed rule; never returned.
var tombstone = &Entry{}

// newExactSet returns an empty set with an array of its own.
func newExactSet() *exactSet {
	s := new(exactSet)
	s.rebuild(0)
	return s
}

// find resolves k, whose hash is h, in the set; a nil set holds nothing.
//
//sdnfv:hotpath
func (s *exactSet) find(k packet.FlowKey, h uint64) *Entry {
	if s == nil {
		return nil
	}
	_, e := s.tab.Load().probe(k, h)
	return e
}

// all yields every live rule of the array current when it starts.
func (s *exactSet) all() iter.Seq[*Entry] {
	return func(yield func(*Entry) bool) {
		t := s.tab.Load()
		for i := range t.slots {
			if e := t.slots[i].e.Load(); e != nil && e != tombstone && !yield(e) {
				return
			}
		}
	}
}

// claim returns k's slot and the live rule in it, or, when k has none, an
// empty slot stamped with k's hash and counted as used, rebuilding first
// if the insert would pass the load limit. The caller stores the entry it
// publishes in the slot before anything else writes the set. Caller holds
// the shard mutex.
func (s *exactSet) claim(k packet.FlowKey) (*slot, *Entry) {
	h := k.Hash()
	t := s.tab.Load()
	sl, old := t.probe(k, h)
	if old != nil {
		return sl, old
	}
	if (t.used+1)*5 > len(t.slots)*4 {
		t = s.rebuild(int(s.n.Load()) + 1)
		sl, _ = t.probe(k, h)
	}
	sl.hash = h
	t.used++
	s.n.Store(s.n.Load() + 1)
	return sl, nil
}

// put installs e under k and returns the live rule it replaces, or nil.
// Caller holds the shard mutex.
func (s *exactSet) put(k packet.FlowKey, e *Entry) *Entry {
	sl, old := s.claim(k)
	sl.e.Store(e)
	return old
}

// drop turns e's slot into a tombstone and reports whether the set held
// e; a set left under a quarter full is rebuilt smaller. Caller holds the
// shard mutex.
func (s *exactSet) drop(e *Entry) bool {
	t := s.tab.Load()
	sl, cur := t.probe(e.Match.Key, e.Match.Key.Hash())
	if cur != e {
		return false
	}
	sl.e.Store(tombstone)
	n := s.n.Load() - 1
	if s.n.Store(n); n > 0 && n*4 < int64(len(t.slots)) {
		s.rebuild(int(n))
	}
	return true
}

// reserve makes room for the new keys among the n keys that keys yields,
// so that inserting them all takes at most this one rebuild. Caller holds
// the shard mutex.
func (s *exactSet) reserve(n int, keys iter.Seq[packet.FlowKey]) {
	t := s.tab.Load()
	if (t.used+n)*5 <= len(t.slots)*4 {
		return
	}
	fresh := 0
	for k := range keys {
		if s.find(k, k.Hash()) == nil {
			fresh++
		}
	}
	if (t.used+fresh)*5 > len(t.slots)*4 {
		s.rebuild(int(s.n.Load()) + fresh)
	}
}

// rebuild copies the live rules, without tombstones, into a fresh array
// sized for need rules at a 3/5 load, and publishes it.
func (s *exactSet) rebuild(need int) *flatTab {
	nt := &flatTab{slots: make([]slot, max(8, need*5/3))}
	if t := s.tab.Load(); t != nil {
		s.rebuilds++
		for i := range t.slots {
			sl := &t.slots[i]
			e := sl.e.Load()
			if e == nil || e == tombstone {
				continue
			}
			j := nt.home(sl.hash)
			for nt.slots[j].e.Load() != nil {
				if j++; j == len(nt.slots) {
					j = 0
				}
			}
			nt.slots[j].hash = sl.hash
			nt.slots[j].e.Store(e)
			nt.used++
		}
	}
	s.tab.Store(nt)
	return nt
}

// home is the slot a key hashing to h probes first.
//
//sdnfv:hotpath
func (t *flatTab) home(h uint64) int {
	hi, _ := bits.Mul64(h, uint64(len(t.slots)))
	return int(hi)
}

// probe returns k's slot and its live entry, or the empty slot that ends
// k's probe run and nil. A slot's hash is read only once its entry has
// been seen, so it is never read while a writer stamps it.
//
//sdnfv:hotpath
func (t *flatTab) probe(k packet.FlowKey, h uint64) (*slot, *Entry) {
	for i := t.home(h); ; {
		sl := &t.slots[i]
		if e := sl.e.Load(); e == nil || sl.hash == h && e != tombstone && e.Match.Key == k {
			return sl, e
		}
		if i++; i == len(t.slots) {
			i = 0
		}
	}
}
