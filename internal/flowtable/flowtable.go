// Package flowtable implements the per-host flow table of the SDNFV NF
// Manager (§3.3–3.4).
//
// A rule is scoped by where the packet currently is — either a NIC port
// (for packets entering the host) or the Service ID of the NF that just
// finished processing it. This mirrors the paper's repurposing of
// OpenFlow's "input port" field to carry Service IDs. Each rule matches a
// possibly-wildcarded 5-tuple and carries a list of actions:
//
//   - the FIRST action in the list is the default (taken when the NF
//     returns ActionDefault);
//   - when Parallel is set, the whole list is dispatched at once to a set
//     of read-only NFs (§3.3);
//   - otherwise the remaining actions are the alternative next hops the NF
//     may select with "Send to" (§3.4).
//
// Lookup resolution is most-specific-match-wins: an exact 5-tuple rule
// shadows a wildcard rule at the same scope, and among wildcard rules the
// one with the most concrete fields (then highest priority) wins.
//
// # Concurrency
//
// The paper forbids synchronization primitives on the packet path
// ("locks ... can take tens of nanoseconds to acquire", §4.1). The table
// is therefore sharded by scope, and each shard publishes a snapshot of
// its scopes through an atomic pointer: Lookup is one atomic load, one
// key hash and a flat-table probe, with no locks and no allocation on
// the exact-match hit path; LookupBatch probes a burst in passes so that
// its cache misses overlap. Writers serialize on a per-shard mutex.
// Entries are immutable after publication — mutations (Add, Delete,
// UpdateDefault) publish fresh entries — so a reader holding an entry
// holds a consistent, if stale, rule.
//
// A scope's exact-match rules are one open-addressed slot array that
// writers change in place (see exactSet): installing, replacing or
// evicting a rule is a probe and an atomic store, whatever the scope's
// size. The snapshot itself — the scope maps and the wildcard lists — is
// copy-on-write and republished only when a scope appears or disappears
// or a wildcard list changes. A write of many rules is therefore not
// visible atomically per shard: a lookup may see some of a batch's rules
// before the rest. No reader needs more, because lookups are per key, and
// writers stay serialized, so a read-then-write under the mutex (the
// specialization of UpdateDefault) is still one step.
package flowtable

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdnfv/internal/packet"
)

// ServiceID identifies an abstract network service (§3.2 "Service IDs").
// IDs below 0x8000 are services; IDs at or above PortBase are NIC ports.
type ServiceID uint16

// PortBase is the first ServiceID value denoting a physical NIC port
// rather than a network function.
const PortBase ServiceID = 0x8000

// Port returns the ServiceID encoding of NIC port n.
//
//sdnfv:hotpath
func Port(n int) ServiceID { return PortBase + ServiceID(n) }

// IsPort reports whether s denotes a NIC port.
//
//sdnfv:hotpath
func (s ServiceID) IsPort() bool { return s >= PortBase }

// PortNum returns the NIC port number for a port-typed ServiceID.
//
//sdnfv:hotpath
func (s ServiceID) PortNum() int { return int(s - PortBase) }

// String renders the ID as "svc:N" or "port:N".
func (s ServiceID) String() string {
	if s.IsPort() {
		return fmt.Sprintf("port:%d", s.PortNum())
	}
	return fmt.Sprintf("svc:%d", uint16(s))
}

// ActionType is what to do with a packet next.
type ActionType uint8

// Action types, in conflict-resolution priority order (§4.2): Drop beats
// Out beats Forward when parallel NFs disagree.
const (
	ActionForward ActionType = iota // deliver to a ServiceID (NF)
	ActionOut                       // transmit out a NIC port
	ActionDrop                      // discard
)

// Action is one entry in a rule's action list.
type Action struct {
	Type ActionType
	// Dest is the target ServiceID for ActionForward, or the NIC port
	// (Port-encoded) for ActionOut. Ignored for ActionDrop.
	Dest ServiceID
}

// String renders the action compactly.
func (a Action) String() string {
	switch a.Type {
	case ActionDrop:
		return "drop"
	case ActionOut:
		return "out(" + a.Dest.String() + ")"
	default:
		return "fwd(" + a.Dest.String() + ")"
	}
}

// Forward builds a forward-to-service action.
//
//sdnfv:hotpath
func Forward(s ServiceID) Action { return Action{Type: ActionForward, Dest: s} }

// Out builds a transmit-out-port action.
//
//sdnfv:hotpath
func Out(port int) Action { return Action{Type: ActionOut, Dest: Port(port)} }

// Drop builds a discard action.
//
//sdnfv:hotpath
func Drop() Action { return Action{Type: ActionDrop} }

// MatchField is a bit set naming the 5-tuple fields a Match constrains.
type MatchField uint8

// The fields of a Match, one bit each. The bit order is also the wire
// order of the openflow wildcard mask.
const (
	FieldSrcIP MatchField = 1 << iota
	FieldDstIP
	FieldSrcPort
	FieldDstPort
	FieldProto

	// FieldAll is every field: an exact 5-tuple match.
	FieldAll = FieldSrcIP | FieldDstIP | FieldSrcPort | FieldDstPort | FieldProto
)

// Match is a possibly-wildcarded 5-tuple, held by value: Mask names the
// concrete fields and Key carries their values. A field outside Mask is
// a wildcard and is held at zero in Key, so two matches selecting the
// same flows are equal as values. Building, copying and comparing a
// Match allocates nothing, and an Entry holds no pointer for it.
type Match struct {
	Key  packet.FlowKey
	Mask MatchField
}

// MatchAll is the fully wildcarded match.
var MatchAll = Match{}

// NewMatch builds a Match on the fields of k that mask names; the others
// are wildcards.
func NewMatch(k packet.FlowKey, mask MatchField) Match {
	return Match{Key: packet.FlowKey{
		SrcIP:   orZero(k.SrcIP, mask&FieldSrcIP),
		DstIP:   orZero(k.DstIP, mask&FieldDstIP),
		SrcPort: orZero(k.SrcPort, mask&FieldSrcPort),
		DstPort: orZero(k.DstPort, mask&FieldDstPort),
		Proto:   orZero(k.Proto, mask&FieldProto),
	}, Mask: mask & FieldAll}
}

// orZero is v if its field is set, else zero.
func orZero[T ~uint8 | ~uint16 | ~uint32](v T, set MatchField) T {
	if set == 0 {
		return 0
	}
	return v
}

// ExactMatch builds a Match that matches only k.
func ExactMatch(k packet.FlowKey) Match { return Match{Key: k, Mask: FieldAll} }

// MatchSrcIP builds a Match on source IP only (used by e.g. the video
// policy rules in Fig. 4 of the paper: "srcIP=B").
func MatchSrcIP(ip packet.IP) Match { return Match{Key: packet.FlowKey{SrcIP: ip}, Mask: FieldSrcIP} }

// MatchDstIP builds a Match on destination IP only.
func MatchDstIP(ip packet.IP) Match { return Match{Key: packet.FlowKey{DstIP: ip}, Mask: FieldDstIP} }

// Matches reports whether k satisfies m.
//
//sdnfv:hotpath
func (m Match) Matches(k packet.FlowKey) bool {
	return (m.Mask&FieldSrcIP == 0 || m.Key.SrcIP == k.SrcIP) &&
		(m.Mask&FieldDstIP == 0 || m.Key.DstIP == k.DstIP) &&
		(m.Mask&FieldSrcPort == 0 || m.Key.SrcPort == k.SrcPort) &&
		(m.Mask&FieldDstPort == 0 || m.Key.DstPort == k.DstPort) &&
		(m.Mask&FieldProto == 0 || m.Key.Proto == k.Proto)
}

// Specificity counts concrete fields; higher wins at equal priority.
func (m Match) Specificity() int { return bits.OnesCount8(uint8(m.Mask & FieldAll)) }

// IsExact reports whether every field is concrete.
func (m Match) IsExact() bool { return m.Mask&FieldAll == FieldAll }

// Equal reports whether two matches select the same flows: the same
// concrete fields with the same values.
func (m Match) Equal(o Match) bool { return m.Mask&FieldAll == o.Mask&FieldAll && m.Matches(o.Key) }

// ExactKey returns the single FlowKey an exact match selects, and false
// for a match with any wildcarded field. Consumers of eviction
// notifications use it to key per-flow state releases.
func (m Match) ExactKey() (packet.FlowKey, bool) {
	if !m.IsExact() {
		return packet.FlowKey{}, false
	}
	return m.Key, true
}

// String renders the match, "*" for fully wildcarded.
func (m Match) String() string {
	if m.Specificity() == 0 {
		return "*"
	}
	var parts []string
	if m.Mask&FieldSrcIP != 0 {
		parts = append(parts, "srcIP="+m.Key.SrcIP.String())
	}
	if m.Mask&FieldDstIP != 0 {
		parts = append(parts, "dstIP="+m.Key.DstIP.String())
	}
	if m.Mask&FieldSrcPort != 0 {
		parts = append(parts, fmt.Sprintf("srcPort=%d", m.Key.SrcPort))
	}
	if m.Mask&FieldDstPort != 0 {
		parts = append(parts, fmt.Sprintf("dstPort=%d", m.Key.DstPort))
	}
	if m.Mask&FieldProto != 0 {
		parts = append(parts, fmt.Sprintf("proto=%d", m.Key.Proto))
	}
	return strings.Join(parts, ",")
}

// Rule is one flow-table entry.
type Rule struct {
	// Actions: first is the default; see the package comment. First in
	// the struct so that it shares a cache line with Entry's expiry words.
	Actions []Action
	// Scope is where the packet currently is: a NIC port for fresh
	// arrivals, or the ServiceID of the NF that just released the packet.
	Scope ServiceID
	// Parallel marks the action list as a simultaneous read-only fan-out.
	// It sits beside Scope, in the padding before Match, so that Entry
	// keeps its 112-byte size class with the expiry link.
	Parallel bool
	// Match restricts which flows this rule applies to.
	Match Match
	// Priority breaks ties among equal-specificity wildcard rules.
	Priority int
	// IdleTimeout evicts the rule once no packet has hit it for this
	// long (OpenFlow idle_timeout). Zero inherits the table default for
	// exact-match rules (wildcards inherit nothing); negative opts out of
	// any default — the rule never idles out.
	IdleTimeout time.Duration
	// HardTimeout evicts the rule this long after installation regardless
	// of traffic (OpenFlow hard_timeout). Zero/negative as for IdleTimeout.
	HardTimeout time.Duration
}

// Entry is the immutable resolved form of a rule returned by lookups.
// Entries are never mutated after publication: rewriting a rule installs a
// fresh Entry with the same ID, so a pointer obtained from Lookup remains
// a consistent (if stale) snapshot forever. The lifecycle fields are the
// exceptions to full immutability: lastHit is an atomic the lookup path
// advances on every hit; nextDue is the shard writer's expiry-bucket
// link, which no reader loads. A rule is this one heap object, beside the
// action list it may share with other rules (see AddBatch). The words a
// hit reads (expiry, lastHit, Actions) lead the struct, sharing a cache
// line.
//
// Because lastHit lives in the entry, an Entry is never copied as a
// value: withDefault builds a rewrite field by field and carries the idle
// clock over under the shard mutex. A hit that reaches the superseded
// entry after that copy (a descriptor-cached pointer, or a lookup that
// loaded it just before the rewrite was published) moves only the
// superseded entry's clock, not its successor's.
type Entry struct {
	// idleNs / hardAt are the precomputed expiry parameters against the
	// table's coarse clock: idleNs is the idle window in nanoseconds and
	// hardAt the absolute coarse-clock deadline (install time + hard
	// timeout). Zero means "no such timeout" — the hot path rejects
	// expiry with one comparison and never loads the clock.
	idleNs int64
	hardAt int64
	// lastHit is the coarse-clock time of the last hit, or of the
	// install; read only when idleNs != 0.
	lastHit atomic.Int64

	Rule
	ID uint64 // table-assigned, stable for the rule's lifetime

	// nextDue chains a timed entry into its shard's expiry bucket (see
	// lifecycle.go). Only the shard writer, under the shard mutex, reads
	// or writes it.
	nextDue *Entry
}

// Default returns the rule's default action (the first in the list).
//
//sdnfv:hotpath
func (r Rule) Default() (Action, bool) {
	if len(r.Actions) == 0 {
		return Action{}, false
	}
	return r.Actions[0], true
}

// Allows reports whether a is one of the rule's listed next hops —
// "Send to … is only permitted if the destination is one of the allowable
// next hops listed in the flow table" (§3.4).
//
//sdnfv:hotpath
func (r Rule) Allows(a Action) bool {
	for _, x := range r.Actions {
		if x == a {
			return true
		}
	}
	return false
}

// Errors returned by Table operations.
var (
	ErrNoMatch  = errors.New("flowtable: no matching rule")
	ErrNoRule   = errors.New("flowtable: rule not found")
	ErrNoAction = errors.New("flowtable: rule has no actions")
)

// numShards partitions scopes across independent snapshots so that
// writers to one scope never stall readers or writers of another. Must be
// a power of two.
const numShards = 16

// shardIndex maps a scope to its shard. Service IDs are small consecutive
// integers and ports are PortBase+n, so plain masking spreads both.
//
//sdnfv:hotpath
func shardIndex(s ServiceID) int { return int(s) & (numShards - 1) }

// snapshot is the published state of one shard. Its maps and wildcard
// lists are never mutated after publication; writers clone the ones they
// change and publish a fresh snapshot. The exact sets it points to are
// the exception: they are shared by every snapshot from the one that
// added the scope on, and written in place (see exactSet), so a write of
// many exact rules is not seen atomically through a snapshot.
type snapshot struct {
	// exact[scope] -> the scope's exact-match rules
	exact map[ServiceID]*exactSet
	// wild[scope] -> wildcard entries, kept sorted most-specific-first
	wild map[ServiceID][]*Entry

	// privateWild tracks which wildcard lists this (not-yet-published)
	// snapshot already owns privately, so a batched write clones each
	// scope's list once instead of once per rule. Only the writer
	// building the snapshot touches it; publish drops it.
	privateWild map[ServiceID]bool
}

// emptySnapshot's maps are non-nil so that cloneTop's clones are too.
var emptySnapshot = &snapshot{exact: map[ServiceID]*exactSet{}, wild: map[ServiceID][]*Entry{}}

// cloneTop shallow-copies the snapshot's top-level maps so per-scope
// containers can be added, dropped or swapped without touching the
// published snapshot.
func (s *snapshot) cloneTop() *snapshot {
	return &snapshot{exact: maps.Clone(s.exact), wild: maps.Clone(s.wild)}
}

// shard is one partition of the table. The snapshot pointer is the only
// field the data path touches; mu serializes writers only. Counters are
// shard-local to spread hot-path atomic traffic.
type shard struct {
	snap atomic.Pointer[snapshot]
	mu   sync.Mutex
	// next is the write in progress's private clone of snap, made the
	// first time the write adds or drops a scope or changes a wildcard
	// list, and published by publish; nil otherwise. Guarded by mu.
	next *snapshot
	// buckets files every timed entry the shard has published by its
	// coarse deadline; guarded by mu. due is the start of the earliest
	// bucket (MaxInt64 when none), written under mu and read lock-free,
	// so a sweep passes over a shard with nothing due without the mutex.
	buckets expiryBuckets
	due     atomic.Int64
	// pending is the write's latest run of entries for one bucket, not
	// yet in buckets; guarded by mu, and empty between writes.
	pending filing
	lookups atomic.Uint64
	misses  atomic.Uint64
	// expired counts lookups that found an entry but rejected it as
	// timed out (the lazy half of eviction): each bump marks an entry
	// queued for the sweeper to reap. Data-path threads never delete —
	// that would need the writer mutex — they only signal.
	expired atomic.Uint64
	_       [64]byte // keep neighbouring shards off this cache line
}

// view is the snapshot a write under sh.mu reads: its private clone once
// it has one, else the published snapshot.
func (sh *shard) view() *snapshot {
	if sh.next != nil {
		return sh.next
	}
	return sh.snap.Load()
}

// edit returns the write's private clone, making it on first use.
func (sh *shard) edit() *snapshot {
	if sh.next == nil {
		sh.next = sh.snap.Load().cloneTop()
	}
	return sh.next
}

// publish ends every write under sh.mu: it files the entries the write
// linked that are not yet in a bucket, and makes the write's clone, if it
// made one, the shard's snapshot.
func (sh *shard) publish() {
	sh.fileChain()
	if next := sh.next; next != nil {
		next.privateWild, sh.next = nil, nil
		sh.snap.Store(next)
	}
}

// exactFor returns scope's exact set, adding an empty one to the write's
// clone when the scope has none.
func (sh *shard) exactFor(scope ServiceID) *exactSet {
	set := sh.view().exact[scope]
	if set == nil {
		set = newExactSet()
		sh.edit().exact[scope] = set
	}
	return set
}

// cloneWild replaces the write's wildcard list for scope with a private
// copy and returns it, or the existing copy when already privatized.
func (sh *shard) cloneWild(scope ServiceID) []*Entry {
	next := sh.edit()
	if next.privateWild[scope] {
		return next.wild[scope]
	}
	ws := append([]*Entry(nil), next.wild[scope]...)
	next.wild[scope] = ws
	if next.privateWild == nil {
		next.privateWild = make(map[ServiceID]bool)
	}
	next.privateWild[scope] = true
	return ws
}

// remove deletes e from the shard and reports whether the shard held it:
// an exact rule's slot becomes a tombstone in place, and a scope left
// with no exact rule, or a wildcard list that changes, goes through the
// write's clone. Caller holds sh.mu.
func (sh *shard) remove(e *Entry) bool {
	if e.Match.IsExact() {
		set := sh.view().exact[e.Scope]
		if set == nil || !set.drop(e) {
			return false
		}
		if set.n.Load() == 0 {
			delete(sh.edit().exact, e.Scope)
		}
		return true
	}
	if !slices.Contains(sh.view().wild[e.Scope], e) {
		return false
	}
	ws := slices.DeleteFunc(sh.cloneWild(e.Scope), func(w *Entry) bool { return w == e })
	if len(ws) == 0 {
		delete(sh.next.wild, e.Scope)
	} else {
		sh.next.wild[e.Scope] = ws
	}
	return true
}

// Table is a per-host flow table. The data-path Lookup is lock-free: one
// atomic snapshot load, a key hash and a linear probe of a flat table, with
// zero allocation on the exact-match hit path (§5.1). Mutations serialize
// per shard and never block readers.
type Table struct {
	shards   [numShards]shard
	nextID   atomic.Uint64
	modifies atomic.Uint64

	// now is the coarse lifecycle clock, in nanoseconds since the clock
	// started: 0 until a sweeper runs or Advance is called, advanced by
	// elapsed wall time per sweep tick. Expiry math on the lookup path is
	// one atomic load plus integer compares against it — never a
	// time.Now() syscall per packet.
	now atomic.Int64

	// Lifecycle counters (see Stats): rules created, explicitly deleted,
	// and evicted by timeout, plus sweeper activity.
	adds        atomic.Uint64
	deletes     atomic.Uint64
	evictedIdle atomic.Uint64
	evictedHard atomic.Uint64
	sweeps      atomic.Uint64
	sweepNanos  atomic.Uint64
	// sweepVisits counts the entries sweeps have examined: evicted,
	// dropped as stale, or relinked at a later deadline.
	sweepVisits atomic.Uint64

	// Default timeouts applied at install time to exact-match rules that
	// do not carry their own; per-scope overrides win over the
	// table-wide pair. Guarded by defMu — only the writer path reads
	// them, never Lookup.
	defMu    sync.RWMutex
	defIdle  time.Duration
	defHard  time.Duration
	scopeTOs map[ServiceID]timeoutPair

	// sweeper goroutine state (see lifecycle.go).
	sweepMu   sync.Mutex
	sweepStop chan struct{}
	sweepDone chan struct{}
}

// timeoutPair is a per-scope default (idle, hard) timeout override.
type timeoutPair struct {
	idle time.Duration
	hard time.Duration
}

// New returns an empty table.
func New() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i].snap.Store(emptySnapshot)
		t.shards[i].due.Store(math.MaxInt64)
	}
	return t
}

// Add installs a rule and returns its stable ID. Adding an exact rule for a
// (scope, flow) that already has one replaces it — this is how FLOW_MOD
// updates and cross-layer messages rewrite defaults. The table keeps a
// copy of r.Actions.
func (t *Table) Add(r Rule) (uint64, error) {
	if len(r.Actions) == 0 {
		return 0, ErrNoAction
	}
	r.Actions = slices.Clip(slices.Clone(r.Actions))
	sh := &t.shards[shardIndex(r.Scope)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	run := t.newScopeRun(r.Scope)
	id := t.addLocked(sh, &run, r)
	sh.publish()
	return id, nil
}

// AddBatch installs rules, taking each shard's mutex once — the batched
// writer API used when the Flow Controller installs a FLOW_MOD burst or a
// whole service graph at once. It returns the ID of every installed rule,
// in order. A rule with no actions fails the whole batch before any rule
// is installed.
//
// Each shard's rules are installed in runs of one scope, whatever their
// order in rules (a miss burst arrives as port, firewall, IDS rules per
// flow), keeping the order of the rules within a scope. A run looks up
// its scope's exact set and default timeouts once, and reserves room for
// all of its new keys first, so it rebuilds the scope's array at most
// once. Rules with equal action lists share one copy the table owns:
// entries never change their lists, so a batch of many flows with one
// next hop stores one list, not one per rule.
func (t *Table) AddBatch(rules []Rule) ([]uint64, error) {
	if len(rules) == 0 {
		return nil, nil
	}
	for _, r := range rules {
		if len(r.Actions) == 0 {
			return nil, ErrNoAction
		}
	}
	ids := make([]uint64, len(rules))
	// A stable counting sort by shard, then a stable sort by scope within
	// each shard that is not already in scope order.
	var start [numShards + 1]int
	for _, r := range rules {
		start[shardIndex(r.Scope)+1]++
	}
	for si := range numShards {
		start[si+1] += start[si]
	}
	order := make([]int, len(rules))
	next := start
	for i, r := range rules {
		si := shardIndex(r.Scope)
		order[next[si]] = i
		next[si]++
	}
	byScope := func(i, j int) int { return cmp.Compare(rules[i].Scope, rules[j].Scope) }
	var lists actionLists
	for si := range numShards {
		idxs := order[start[si]:start[si+1]]
		if len(idxs) == 0 {
			continue
		}
		if !slices.IsSortedFunc(idxs, byScope) {
			slices.SortStableFunc(idxs, byScope)
		}
		sh := &t.shards[si]
		sh.mu.Lock()
		for len(idxs) > 0 {
			n := 1
			for n < len(idxs) && rules[idxs[n]].Scope == rules[idxs[0]].Scope {
				n++
			}
			t.addRun(sh, rules, idxs[:n], ids, &lists)
			idxs = idxs[n:]
		}
		sh.publish()
		sh.mu.Unlock()
	}
	return ids, nil
}

// addRun installs rules[i] for every i in run, which all share one
// scope, and records each one's ID in ids[i]. Caller holds sh.mu.
func (t *Table) addRun(sh *shard, rules []Rule, run []int, ids []uint64, lists *actionLists) {
	sr := t.newScopeRun(rules[run[0]].Scope)
	exact := 0
	for _, i := range run {
		if rules[i].Match.IsExact() {
			exact++
		}
	}
	if exact > 0 {
		sr.exact(sh).reserve(exact, func(yield func(packet.FlowKey) bool) {
			for _, i := range run {
				if m := rules[i].Match; m.IsExact() && !yield(m.Key) {
					return
				}
			}
		})
	}
	for _, i := range run {
		r := rules[i]
		r.Actions = lists.own(r.Actions)
		ids[i] = t.addLocked(sh, &sr, r)
	}
}

// scopeRun is what a run of installs at one scope looks up once: the
// scope's default timeouts and, from the run's first exact rule on, its
// exact set.
type scopeRun struct {
	scope ServiceID
	def   timeoutPair
	set   *exactSet
}

// newScopeRun starts a run of installs at scope.
func (t *Table) newScopeRun(scope ServiceID) scopeRun {
	return scopeRun{scope: scope, def: t.defaultTimeouts(scope)}
}

// exact returns the run's exact set, adding an empty one to the write's
// clone the first time when the scope has none. Caller holds sh.mu.
func (sr *scopeRun) exact(sh *shard) *exactSet {
	if sr.set == nil {
		sr.set = sh.exactFor(sr.scope)
	}
	return sr.set
}

// actionLists hands out the action lists a write stores, copying a list
// only when it differs from the last few it copied: rules whose lists are
// equal by value then share one slice the table owns. Entries never
// change their lists (withDefault builds a new one), so sharing is safe,
// and remembering a few lists is enough for a batch installed in runs of
// one scope.
type actionLists struct {
	recent [4][]Action
	n      int
}

// own returns a table-owned list equal to acts.
func (c *actionLists) own(acts []Action) []Action {
	for _, o := range c.recent[:min(c.n, len(c.recent))] {
		if slices.Equal(o, acts) {
			return o
		}
	}
	o := slices.Clip(slices.Clone(acts))
	c.recent[c.n%len(c.recent)] = o
	c.n++
	return o
}

// addLocked installs r, whose Actions the table owns, as one of the run
// sr at r's scope, files the new entry under its deadline, and returns
// its ID. An exact rule is stored in place once complete; a wildcard one
// goes into the write's clone. Caller holds sh.mu.
func (t *Table) addLocked(sh *shard, sr *scopeRun, r Rule) uint64 {
	t.modifies.Add(1)
	e := &Entry{Rule: r}
	if r.Match.IsExact() {
		sl, old := sr.exact(sh).claim(r.Match.Key)
		if old != nil {
			e.ID = old.ID // replacement keeps identity
		} else {
			e.ID = t.nextID.Add(1)
			t.adds.Add(1)
		}
		// A replacement arms fresh timers — reinstalling a rule is how
		// OpenFlow flow-mods refresh a flow's lease.
		t.armLife(e, sr.def)
		sh.link(e)
		sl.e.Store(e)
		return e.ID
	}
	e.ID = t.nextID.Add(1)
	t.adds.Add(1)
	t.armLife(e, sr.def)
	sh.link(e)
	ws := append(sh.cloneWild(r.Scope), e)
	sortWild(ws)
	sh.next.wild[r.Scope] = ws
	return e.ID
}

// armLife precomputes e's expiry parameters from its rule timeouts,
// falling back to def, its scope's default timeouts, for exact-match
// rules. Called on the writer path (shard mutex held) before e is
// published.
func (t *Table) armLife(e *Entry, def timeoutPair) {
	idle, hard := e.IdleTimeout, e.HardTimeout
	if idle == 0 && hard == 0 && e.Match.IsExact() {
		idle, hard = def.idle, def.hard
	}
	if idle <= 0 && hard <= 0 {
		return
	}
	now := t.now.Load()
	if hard > 0 {
		e.hardAt = now + int64(hard)
	}
	if idle > 0 {
		e.idleNs = int64(idle)
		e.lastHit.Store(now)
	}
}

// defaultTimeouts resolves the effective default (idle, hard) pair for
// scope: the per-scope override when set, else the table-wide default.
func (t *Table) defaultTimeouts(scope ServiceID) timeoutPair {
	t.defMu.RLock()
	defer t.defMu.RUnlock()
	if p, ok := t.scopeTOs[scope]; ok {
		return p
	}
	return timeoutPair{idle: t.defIdle, hard: t.defHard}
}

// sortWild keeps wildcard entries most-specific-first, ties broken by
// priority (highest wins).
func sortWild(ws []*Entry) {
	sort.SliceStable(ws, func(i, j int) bool {
		si, sj := ws[i].Match.Specificity(), ws[j].Match.Specificity()
		if si != sj {
			return si > sj
		}
		return ws[i].Priority > ws[j].Priority
	})
}

// Delete removes the rules with the given IDs, scanning each shard once,
// so replacing k rules costs one pass over the table rather than k. Every
// id that names a rule is deleted; ErrNoRule reports that at least one
// named none.
func (t *Table) Delete(ids ...uint64) error {
	want := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	found := 0
	for si := range t.shards {
		if found == len(want) {
			break
		}
		sh := &t.shards[si]
		sh.mu.Lock()
		cur := sh.snap.Load()
		for _, set := range cur.exact {
			for e := range set.all() {
				if want[e.ID] && sh.remove(e) {
					found++
				}
			}
		}
		for _, ws := range cur.wild {
			for _, e := range ws {
				if want[e.ID] && sh.remove(e) {
					found++
				}
			}
		}
		sh.publish()
		sh.mu.Unlock()
	}
	t.modifies.Add(uint64(found))
	t.deletes.Add(uint64(found))
	if found < len(want) {
		return ErrNoRule
	}
	return nil
}

// lookupSnap resolves k against one published snapshot, ignoring expiry.
func lookupSnap(snap *snapshot, scope ServiceID, k packet.FlowKey) *Entry {
	if e := snap.exact[scope].find(k, k.Hash()); e != nil {
		return e
	}
	for _, e := range snap.wild[scope] {
		if e.Match.Matches(k) {
			return e
		}
	}
	return nil
}

// liveTouch reports whether e is still within its timeouts, advancing
// its idle clock on a hit. The overwhelmingly common case — an entry
// with no timeouts — costs two integer compares and never loads the
// clock. The touch stores the coarse now only when it changed, so a
// burst of hits within one tick writes the cache line once, not per
// packet; concurrent writers all store the same value.
//
//sdnfv:hotpath
func (t *Table) liveTouch(e *Entry) bool {
	if e.hardAt == 0 && e.idleNs == 0 {
		return true
	}
	now := t.now.Load()
	if e.hardAt != 0 && now >= e.hardAt {
		return false
	}
	if e.idleNs != 0 {
		last := e.lastHit.Load()
		if now-last >= e.idleNs {
			return false
		}
		if last != now {
			e.lastHit.Store(now)
		}
	}
	return true
}

// EntryLive reports whether a previously returned entry is still within
// its timeouts, touching its idle clock exactly as a table hit would.
// The data plane uses it to validate descriptor-cached entries: a cached
// pointer bypasses Lookup, so without this check an expired flow would
// keep forwarding on stale state forever.
//
//sdnfv:hotpath
func (t *Table) EntryLive(e *Entry) bool { return t.liveTouch(e) }

// lookupWildLive scans the sorted wildcard entries for scope, skipping
// expired ones so a dead specific rule falls through to the broader rule
// beneath it. The second result reports whether any expired entry was
// encountered (the lazy-eviction signal).
//
//sdnfv:hotpath
func (t *Table) lookupWildLive(snap *snapshot, scope ServiceID, k packet.FlowKey) (*Entry, bool) {
	sawExpired := false
	for _, e := range snap.wild[scope] {
		if !e.Match.Matches(k) {
			continue
		}
		if t.liveTouch(e) {
			return e, sawExpired
		}
		sawExpired = true
	}
	return nil, sawExpired
}

// Lookup resolves the entry governing a packet at scope with flow key k.
// It is lock-free and allocation-free — a snapshot load, a key hash and a
// flat-table probe on the exact-match hit path — and safe for any number
// of data-path threads alongside writers. An entry past its idle or hard
// timeout is treated as a miss (and the expiry signalled to the sweeper);
// the data-path thread never deletes, so the path stays lock-free.
//
//sdnfv:hotpath
func (t *Table) Lookup(scope ServiceID, k packet.FlowKey) (*Entry, error) {
	sh := &t.shards[shardIndex(scope)]
	sh.lookups.Add(1)
	snap := sh.snap.Load()
	e, expired := t.lookupLive(snap, scope, k, snap.exact[scope].find(k, k.Hash()))
	if expired {
		sh.expired.Add(1)
	}
	if e != nil {
		return e, nil
	}
	sh.misses.Add(1)
	return nil, ErrNoMatch
}

// lookupChunk is how many descriptors each LookupBatch pass carries.
const lookupChunk = 64

// LookupBatch resolves out[i] for every (scopes[i], keys[i]) pair, writing
// nil on a miss, and returns the number of hits. The three slices must
// have equal length. Like DPDK rte_hash's bulk lookup, it works through
// the burst 64 descriptors at a time in passes whose cache misses are
// independent, so they overlap: hash every key, load every home slot,
// then the key of the entry in it, probe, load each hit's expiry word,
// then its idle clock and default action, and only then check expiry and
// fall back to the wildcards. A run
// of descriptors sharing a scope — an RX burst from one port — loads the
// snapshot once, and the per-shard counters are updated once per batch,
// amortizing hot-path atomics across the burst (§4.1).
//
//sdnfv:hotpath
func (t *Table) LookupBatch(scopes []ServiceID, keys []packet.FlowKey, out []*Entry) int {
	var (
		nLookups, nMisses, nExpired [numShards]uint32
		snaps                       [lookupChunk]*snapshot
		tabs                        [lookupChunk]*flatTab
		hashes                      [lookupChunk]uint64
		sink                        uint64
	)
	hits := 0
	for lo := 0; lo < len(scopes); lo += lookupChunk {
		n := min(lookupChunk, len(scopes)-lo)
		scopes, keys, out := scopes[lo:lo+n], keys[lo:lo+n], out[lo:lo+n]
		for i, scope := range scopes {
			if i == 0 || scope != scopes[i-1] {
				snaps[i], tabs[i] = t.shards[shardIndex(scope)].snap.Load(), nil
				if set := snaps[i].exact[scope]; set != nil {
					tabs[i] = set.tab.Load()
				}
			} else {
				snaps[i], tabs[i] = snaps[i-1], tabs[i-1]
			}
			hashes[i] = keys[i].Hash()
		}
		for i, tab := range tabs[:n] {
			if out[i] = nil; tab != nil {
				out[i] = tab.slots[tab.home(hashes[i])].e.Load()
			}
		}
		for _, e := range out {
			if e != nil {
				sink += uint64(e.Match.Key.SrcIP)
			}
		}
		for i, tab := range tabs[:n] {
			if out[i] = nil; tab != nil {
				_, out[i] = tab.probe(keys[i], hashes[i])
			}
		}
		for _, e := range out {
			if e != nil {
				sink += uint64(e.hardAt)
			}
		}
		for _, e := range out {
			if e == nil {
				continue
			}
			sink += uint64(e.lastHit.Load())
			sink += uint64(e.Actions[0].Dest) // every rule has an action
		}
		for i, scope := range scopes {
			si := shardIndex(scope)
			nLookups[si]++
			e, expired := t.lookupLive(snaps[i], scope, keys[i], out[i])
			out[i] = e
			if expired {
				nExpired[si]++
			}
			if e != nil {
				hits++
			} else {
				nMisses[si]++
			}
		}
	}
	keep(sink)
	for si := range nLookups {
		if nLookups[si] > 0 {
			t.shards[si].lookups.Add(uint64(nLookups[si]))
		}
		if nMisses[si] > 0 {
			t.shards[si].misses.Add(uint64(nMisses[si]))
		}
		if nExpired[si] > 0 {
			t.shards[si].expired.Add(uint64(nExpired[si]))
		}
	}
	return hits
}

// keep consumes LookupBatch's early loads. It is opaque to the compiler,
// which therefore cannot prove those loads dead and drop them.
//
//go:noinline
//sdnfv:hotpath
func keep(uint64) {}

// lookupLive resolves k against one published snapshot given exact, the
// scope's exact-match entry for k or nil: it rejects timed-out entries,
// falls back to the wildcard rules, and reports whether any expired entry
// was encountered.
//
//sdnfv:hotpath
func (t *Table) lookupLive(snap *snapshot, scope ServiceID, k packet.FlowKey, exact *Entry) (*Entry, bool) {
	expired := false
	if exact != nil {
		if t.liveTouch(exact) {
			return exact, false
		}
		expired = true
	}
	e, exp := t.lookupWildLive(snap, scope, k)
	return e, expired || exp
}

// UpdateDefault rewrites the default (first) action of rules at scope that
// apply to flows matching f, constrained to actions already present in the
// rule's list when constrain is true. It returns the number of rules
// changed or created. This is the primitive beneath ChangeDefault (§3.4).
//
// When f is an exact flow and the governing rule at scope is a wildcard,
// the wildcard is left untouched and a flow-specific rule is created with
// the new default — the per-flow specialization of the paper's Fig. 4
// ("two additional flows ... are given distinct rules"), so other flows
// sharing the wildcard are unaffected.
//
// Rewritten rules keep their IDs; the entries themselves are replaced, so
// previously returned pointers keep showing the pre-update actions.
func (t *Table) UpdateDefault(scope ServiceID, f Match, newDefault Action, constrain bool) int {
	sh := &t.shards[shardIndex(scope)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f.IsExact() {
		return t.specializeDefaultLocked(sh, scope, f, newDefault, constrain)
	}
	cur := sh.snap.Load()
	n := 0
	rewrite := func(e *Entry) (*Entry, bool) {
		if !overlaps(e.Match, f) {
			return e, false
		}
		if constrain && !e.Allows(newDefault) {
			return e, false
		}
		n++
		ne := e.withDefault(newDefault)
		sh.link(ne)
		return ne, true
	}
	if set := cur.exact[scope]; set != nil {
		for e := range set.all() {
			if ne, changed := rewrite(e); changed {
				set.put(e.Match.Key, ne)
			}
		}
	}
	for i, e := range cur.wild[scope] {
		if ne, changed := rewrite(e); changed {
			sh.cloneWild(scope)[i] = ne
		}
	}
	if n == 0 {
		return 0
	}
	t.modifies.Add(1)
	sh.publish()
	return n
}

// withDefault returns a fresh, unlinked entry (same ID) whose default is
// a, with the previous actions preserved as alternatives. It keeps e's
// timeouts and carries e's idle clock over as it stands now: a default
// change is not flow activity, so it neither refreshes nor resets the
// lease. The entry is built field by field, because a struct copy would
// copy lastHit non-atomically. Caller holds the shard mutex; a hit that
// touches e after the copy is not carried over (see Entry).
func (e *Entry) withDefault(a Action) *Entry {
	acts := make([]Action, 0, len(e.Actions)+1)
	acts = append(acts, a)
	for _, x := range e.Actions {
		if x != a {
			acts = append(acts, x)
		}
	}
	ne := &Entry{idleNs: e.idleNs, hardAt: e.hardAt, Rule: e.Rule, ID: e.ID}
	ne.Actions = acts
	ne.lastHit.Store(e.lastHit.Load())
	return ne
}

// specializeDefaultLocked installs (or rewrites) the exact-flow rule for f
// at scope so its default becomes newDefault, inheriting the remaining
// action list from the rule currently governing the flow. The caller
// holds the shard mutex, so the read of the governing rule and the install
// are one atomic step — a concurrent UpdateDefault can land entirely
// before or entirely after, never in between (the seed version dropped the
// lock here and could lose such an update).
func (t *Table) specializeDefaultLocked(sh *shard, scope ServiceID, f Match, newDefault Action, constrain bool) int {
	key := f.Key
	gov := lookupSnap(sh.view(), scope, key)
	if gov == nil {
		return 0
	}
	if constrain && !gov.Allows(newDefault) {
		return 0
	}
	spec := gov.withDefault(newDefault)
	if gov.Match.IsExact() {
		// The governing rule IS the exact rule for f: rewrite it in
		// place, keeping its ID and — withDefault carries it over — its
		// idle clock. A default change is not flow activity, so it must
		// not refresh the idle lease.
		t.modifies.Add(1)
		sh.link(spec)
		sh.exactFor(scope).put(key, spec)
		sh.publish()
		return 1
	}
	run := t.newScopeRun(scope)
	t.addLocked(sh, &run, Rule{
		Scope:       scope,
		Match:       f,
		Actions:     spec.Actions,
		Parallel:    gov.Parallel,
		Priority:    gov.Priority,
		IdleTimeout: gov.IdleTimeout,
		HardTimeout: gov.HardTimeout,
	})
	sh.publish()
	return 1
}

// AnyEntry returns some entry installed at scope, or nil when the scope
// has no rules. Wildcard rules are preferred — the least specific one
// wins, since it is the scope-wide default that governs the most flows —
// and a scope holding only exact-match rules falls back to the
// exact-match entry with the lowest table id (deterministic across
// calls). Used to discover a scope's default action (SkipMe, §3.4)
// without knowing any concrete flow key. Lock-free: it reads the
// published snapshot.
func (t *Table) AnyEntry(scope ServiceID) *Entry {
	snap := t.shards[shardIndex(scope)].snap.Load()
	if ws := snap.wild[scope]; len(ws) > 0 {
		// Sorted most-specific-first, so the last entry is the most
		// general default at this scope.
		return ws[len(ws)-1]
	}
	var best *Entry
	if set := snap.exact[scope]; set != nil {
		for e := range set.all() {
			if best == nil || e.ID < best.ID {
				best = e
			}
		}
	}
	return best
}

// ScopesWithActionTo returns the scopes whose rules carry a forward action
// targeting dest for flows matching f. Used by RequestMe to find "all
// nodes that have an edge to S". Lock-free: it scans the published
// snapshots.
func (t *Table) ScopesWithActionTo(f Match, dest ServiceID) []ServiceID {
	seen := map[ServiceID]bool{}
	consider := func(scope ServiceID, e *Entry) {
		if seen[scope] || !overlaps(e.Match, f) {
			return
		}
		for _, a := range e.Actions {
			if a.Type == ActionForward && a.Dest == dest {
				seen[scope] = true
				return
			}
		}
	}
	for si := range t.shards {
		snap := t.shards[si].snap.Load()
		for scope, set := range snap.exact {
			for e := range set.all() {
				consider(scope, e)
			}
		}
		for scope, ws := range snap.wild {
			for _, e := range ws {
				consider(scope, e)
			}
		}
	}
	out := make([]ServiceID, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// overlaps reports whether the flow sets of a and b intersect: disjoint
// only if some field concrete in both differs.
func overlaps(a, b Match) bool {
	return Match{Key: a.Key, Mask: a.Mask & b.Mask}.Matches(b.Key)
}

// Len returns the total number of installed rules.
func (t *Table) Len() int {
	n := 0
	for si := range t.shards {
		snap := t.shards[si].snap.Load()
		for _, set := range snap.exact {
			n += int(set.n.Load())
		}
		for _, ws := range snap.wild {
			n += len(ws)
		}
	}
	return n
}

// Stats reports cumulative table activity. The lifecycle counters
// satisfy the identity Adds == Rules + Deleted + Evicted: every rule
// ever created is either still installed, was explicitly deleted, or was
// evicted by a timeout — replacements keep their ID and count in
// Modifies only.
type Stats struct {
	Lookups  uint64 `metric:"lookups_total" help:"Flow table lookups."`
	Misses   uint64 `metric:"misses_total" help:"Flow table lookup misses."`
	Modifies uint64 `metric:"modifies_total" help:"Flow table rule modifications."`
	Rules    int    `metric:"entries" help:"Live entries in the flow table."`

	// Adds counts rules created (new IDs assigned); replacements of an
	// existing exact rule are not adds.
	Adds uint64 `metric:"adds_total" help:"Flow table rules created (new rule IDs)."`
	// Deleted counts rules removed by an explicit Delete call.
	Deleted uint64 `metric:"deletes_total" help:"Flow table rules removed by explicit Delete."`
	// EvictedIdle / EvictedHard count rules reaped by the sweeper after
	// their idle / hard timeout. Evicted is the sum.
	EvictedIdle uint64 `metric:"evictions_total,reason=idle" help:"Rules evicted by the lifecycle sweeper, by timeout reason."`
	EvictedHard uint64 `metric:"evictions_total,reason=hard" help:"Rules evicted by the lifecycle sweeper, by timeout reason."`
	// ExpiredLookups counts lookups that observed (and rejected) a
	// timed-out entry before the sweeper reaped it — the lazy half of
	// eviction. These lookups also count in Misses unless a broader
	// live rule answered.
	ExpiredLookups uint64 `metric:"expired_lookups_total" help:"Lookups that observed a timed-out entry before the sweeper reaped it."`
	// Sweeps counts background sweep passes; SweepNanos is their total
	// duration, so SweepNanos/Sweeps is the mean sweep latency.
	Sweeps     uint64 `metric:"sweeps_total" help:"Background eviction sweep passes."`
	SweepNanos uint64 `metric:"sweep_nanos_total" help:"Cumulative sweep-pass duration in nanoseconds."`
}

// Evicted returns the total number of timeout-evicted rules.
func (s Stats) Evicted() uint64 { return s.EvictedIdle + s.EvictedHard }

// Stats returns a snapshot of table counters.
func (t *Table) Stats() Stats {
	st := Stats{
		Modifies:    t.modifies.Load(),
		Rules:       t.Len(),
		Adds:        t.adds.Load(),
		Deleted:     t.deletes.Load(),
		EvictedIdle: t.evictedIdle.Load(),
		EvictedHard: t.evictedHard.Load(),
		Sweeps:      t.sweeps.Load(),
		SweepNanos:  t.sweepNanos.Load(),
	}
	for si := range t.shards {
		st.Lookups += t.shards[si].lookups.Load()
		st.Misses += t.shards[si].misses.Load()
		st.ExpiredLookups += t.shards[si].expired.Load()
	}
	return st
}

// Dump renders the table for debugging, one rule per line, grouped and
// ordered deterministically.
func (t *Table) Dump() string {
	var lines []string
	for si := range t.shards {
		snap := t.shards[si].snap.Load()
		for scope, set := range snap.exact {
			for e := range set.all() {
				lines = append(lines, fmt.Sprintf("%s %s -> %s", scope, e.Match.Key, actionsString(e)))
			}
		}
		for scope, ws := range snap.wild {
			for _, e := range ws {
				lines = append(lines, fmt.Sprintf("%s %s -> %s", scope, e.Match, actionsString(e)))
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func actionsString(e *Entry) string {
	parts := make([]string, len(e.Actions))
	for i, a := range e.Actions {
		parts[i] = a.String()
	}
	s := "(" + strings.Join(parts, ", ") + ")"
	if e.Parallel {
		s += " [parallel]"
	}
	return s
}
