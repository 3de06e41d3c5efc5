package flowtable

import (
	"iter"
	"math/bits"
	"slices"

	"sdnfv/internal/packet"
)

// exactSet is one scope's exact-match rules: a large immutable base that
// every snapshot published since the last fold shares, plus a small
// copy-on-write delta holding the writes since. A writer clones only the
// delta, so installing a batch into a 262 144-rule scope copies the few
// hundred rules written since the last fold, not the scope.
type exactSet struct {
	// base is the folded bulk of the set, never written after the fold
	// that built it.
	base *flatTab
	// delta shadows base: an entry adds or replaces the rule under its
	// key, tombstone marks a deleted base rule.
	delta flatTab
	n     int // live rules: the delta's non-tombstone entries plus the base keys it does not shadow
}

// tombstone is the delta entry that deletes a base rule; never returned.
var tombstone = &Entry{}

// find resolves k, whose hash is h, in the set; a nil set holds nothing.
// An empty delta costs no probe, so a freshly folded scope costs one.
//
//sdnfv:hotpath
func (s *exactSet) find(k packet.FlowKey, h uint64) *Entry {
	if s == nil {
		return nil
	}
	e := s.delta.find(k, h)
	if e == nil {
		return s.base.find(k, h)
	}
	if e == tombstone {
		return nil
	}
	return e
}

// shadowed reports whether the delta holds k, replacing or deleting the
// base rule under it.
func (s *exactSet) shadowed(k packet.FlowKey) bool {
	return s.delta.n != 0 && s.delta.find(k, k.Hash()) != nil
}

// all yields every live rule: the delta's, then the base rules the delta
// does not shadow.
func (s *exactSet) all() iter.Seq2[packet.FlowKey, *Entry] {
	return func(yield func(packet.FlowKey, *Entry) bool) {
		for _, sl := range s.delta.slots {
			if sl.e != nil && sl.e != tombstone && !yield(sl.key, sl.e) {
				return
			}
		}
		for _, sl := range s.base.slots {
			if sl.e != nil && !s.shadowed(sl.key) && !yield(sl.key, sl.e) {
				return
			}
		}
	}
}

// put installs e under k in a private set and returns the rule it
// replaces, or nil.
func (s *exactSet) put(k packet.FlowKey, e *Entry) *Entry {
	h := k.Hash()
	old := s.delta.set(k, h, e)
	if old == nil {
		old = s.base.find(k, h)
	}
	if old == nil || old == tombstone {
		s.n++
		return nil
	}
	return old
}

// del removes the live rule under k from a private set.
func (s *exactSet) del(k packet.FlowKey) {
	h := k.Hash()
	if s.base.find(k, h) != nil {
		s.delta.set(k, h, tombstone)
	} else {
		s.delta.remove(k, h)
	}
	s.n--
}

// fold merges the delta into a new base once the delta outgrows its
// budget of 256 rules plus an eighth of the base. The budget keeps a
// write's delta clone a small fraction of a large scope, while a fold's
// copy of the scope is paid for by the writes that filled the delta: at
// most eight rule copies per write, amortized.
//
// The folded base needs size slots for a 4/5 load. When the old base's
// array has between size and 2×size slots, the fold copies that array and
// replays the delta over it — tombstones first, so no set can grow it —
// which copies slots instead of rehashing every rule. A set that has
// grown past the array, or shrunk below half of it after a mass expiry,
// is rebuilt at exactly size slots, so shard memory follows the rules.
func (s *exactSet) fold() {
	if s.delta.n <= 256+s.base.n/8 {
		return
	}
	size := max(8, (s.n*5+3)/4)
	var tab flatTab
	if n := len(s.base.slots); n >= size && n < 2*size {
		tab = flatTab{slots: slices.Clone(s.base.slots), n: s.base.n}
		for _, sl := range s.delta.slots {
			if sl.e == tombstone {
				tab.remove(sl.key, sl.key.Hash())
			}
		}
		for _, sl := range s.delta.slots {
			if sl.e != nil && sl.e != tombstone {
				tab.set(sl.key, sl.key.Hash(), sl.e)
			}
		}
	} else {
		tab = flatTab{slots: make([]slot, size)}
		for k, e := range s.all() {
			tab.set(k, k.Hash(), e)
		}
	}
	s.base, s.delta = &tab, flatTab{}
}

// flatTab is an open-addressed hash table from FlowKey to *Entry: one
// slot array, probed linearly from the home slot fastrange maps
// packet.FlowKey.Hash to, so the size need not be a power of two. A write
// that would pass a 4/5 load doubles the array, so an empty slot ends
// every probe; deletion shifts the probe run back over the hole.
type flatTab struct {
	slots []slot
	n     int
}

// slot is one cell of a flatTab; a nil e marks it empty.
type slot struct {
	key packet.FlowKey
	e   *Entry
}

// home is the slot a key hashing to h probes first.
//
//sdnfv:hotpath
func (t *flatTab) home(h uint64) int {
	hi, _ := bits.Mul64(h, uint64(len(t.slots)))
	return int(hi)
}

// find returns the entry under k, whose hash is h, or nil.
//
//sdnfv:hotpath
func (t *flatTab) find(k packet.FlowKey, h uint64) *Entry {
	if t.n == 0 {
		return nil
	}
	i, _ := t.probe(k, h)
	return t.slots[i].e
}

// touch loads the home slot of hash h and returns a word of it.
//
//sdnfv:hotpath
func (t *flatTab) touch(h uint64) uint64 {
	if t.n == 0 {
		return 0
	}
	return uint64(t.slots[t.home(h)].key.SrcIP)
}

// probe returns the index of k's slot, or of the empty slot that ends its
// probe run, and whether k is there. The table must have a slot.
//
//sdnfv:hotpath
func (t *flatTab) probe(k packet.FlowKey, h uint64) (int, bool) {
	for i := t.home(h); ; {
		if sl := &t.slots[i]; sl.e == nil || sl.key == k {
			return i, sl.e != nil
		}
		if i++; i == len(t.slots) {
			i = 0
		}
	}
}

// set stores e under k, whose hash is h, and returns the entry it
// replaces, or nil.
func (t *flatTab) set(k packet.FlowKey, h uint64, e *Entry) *Entry {
	if (t.n+1)*5 > len(t.slots)*4 {
		t.resize(max(8, 2*len(t.slots)))
	}
	i, ok := t.probe(k, h)
	old := t.slots[i].e
	t.slots[i] = slot{key: k, e: e}
	if !ok {
		t.n++
	}
	return old
}

// resize rehashes every key into a fresh array of size slots.
func (t *flatTab) resize(size int) {
	old := t.slots
	t.slots, t.n = make([]slot, size), 0
	for _, sl := range old {
		if sl.e != nil {
			t.set(sl.key, sl.key.Hash(), sl.e)
		}
	}
}

// remove deletes k, whose hash is h, which must be present. Each later
// key of the probe run whose home is no nearer to it than the hole is
// moves back into the hole, so every key stays reachable from its home.
func (t *flatTab) remove(k packet.FlowKey, h uint64) {
	hole, _ := t.probe(k, h)
	n := len(t.slots)
	for i := (hole + 1) % n; t.slots[i].e != nil; i = (i + 1) % n {
		if sl := t.slots[i]; (i-t.home(sl.key.Hash())+n)%n >= (i-hole+n)%n {
			t.slots[hole], hole = sl, i
		}
	}
	t.slots[hole] = slot{}
	t.n--
}
