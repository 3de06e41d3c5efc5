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
// is therefore sharded by scope, and each shard publishes an immutable
// snapshot through an atomic pointer: Lookup is one atomic load, one key
// hash and a flat-table probe (two while the scope has unfolded writes),
// with no locks and no allocation on the exact-match hit path; LookupBatch
// probes a burst in passes so that its cache misses overlap. Entries are
// immutable after publication — mutations (Add, Delete, UpdateDefault)
// build fresh entries and a fresh snapshot under a per-shard writer mutex,
// then publish it atomically. Readers always observe a consistent
// snapshot; a stale one at worst, never a torn one.
//
// A scope's exact-match rules are a flat open-addressed base table that
// every snapshot shares plus a small copy-on-write delta table of the
// writes since (a sentinel tombstone entry deletes a base key), so a write
// copies the delta, not the scope. Once the delta outgrows 256 rules plus
// an eighth of the base, the write that overflowed it folds both into a
// fresh base at a 4/5 load.
package flowtable

import (
	"errors"
	"fmt"
	"maps"
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

// Match is a possibly-wildcarded 5-tuple. Nil fields are wildcards.
type Match struct {
	SrcIP   *packet.IP
	DstIP   *packet.IP
	SrcPort *uint16
	DstPort *uint16
	Proto   *uint8
}

// MatchAll is the fully wildcarded match.
var MatchAll = Match{}

// ExactMatch builds a Match that matches only k.
func ExactMatch(k packet.FlowKey) Match {
	src, dst := k.SrcIP, k.DstIP
	sp, dp, pr := k.SrcPort, k.DstPort, k.Proto
	return Match{SrcIP: &src, DstIP: &dst, SrcPort: &sp, DstPort: &dp, Proto: &pr}
}

// MatchSrcIP builds a Match on source IP only (used by e.g. the video
// policy rules in Fig. 4 of the paper: "srcIP=B").
func MatchSrcIP(ip packet.IP) Match { v := ip; return Match{SrcIP: &v} }

// MatchDstIP builds a Match on destination IP only.
func MatchDstIP(ip packet.IP) Match { v := ip; return Match{DstIP: &v} }

// Matches reports whether k satisfies m.
//
//sdnfv:hotpath
func (m Match) Matches(k packet.FlowKey) bool {
	if m.SrcIP != nil && *m.SrcIP != k.SrcIP {
		return false
	}
	if m.DstIP != nil && *m.DstIP != k.DstIP {
		return false
	}
	if m.SrcPort != nil && *m.SrcPort != k.SrcPort {
		return false
	}
	if m.DstPort != nil && *m.DstPort != k.DstPort {
		return false
	}
	if m.Proto != nil && *m.Proto != k.Proto {
		return false
	}
	return true
}

// Specificity counts concrete fields; higher wins at equal priority.
func (m Match) Specificity() int {
	n := 0
	if m.SrcIP != nil {
		n++
	}
	if m.DstIP != nil {
		n++
	}
	if m.SrcPort != nil {
		n++
	}
	if m.DstPort != nil {
		n++
	}
	if m.Proto != nil {
		n++
	}
	return n
}

// IsExact reports whether every field is concrete.
func (m Match) IsExact() bool { return m.Specificity() == 5 }

// Equal reports whether two matches select the same flows. Pointer fields
// compare by pointed-to value, not identity, so two ExactMatch results for
// the same key are equal.
func (m Match) Equal(o Match) bool {
	return eqField(m.SrcIP, o.SrcIP) && eqField(m.DstIP, o.DstIP) &&
		eqField(m.SrcPort, o.SrcPort) && eqField(m.DstPort, o.DstPort) &&
		eqField(m.Proto, o.Proto)
}

func eqField[T comparable](a, b *T) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// ExactKey returns the single FlowKey an exact match selects, and false
// for a match with any wildcarded field. Consumers of eviction
// notifications use it to key per-flow state releases.
func (m Match) ExactKey() (packet.FlowKey, bool) {
	if !m.IsExact() {
		return packet.FlowKey{}, false
	}
	return m.exactKey(), true
}

// exactKey converts an exact match to its FlowKey.
func (m Match) exactKey() packet.FlowKey {
	return packet.FlowKey{SrcIP: *m.SrcIP, DstIP: *m.DstIP, SrcPort: *m.SrcPort, DstPort: *m.DstPort, Proto: *m.Proto}
}

// String renders the match, "*" for fully wildcarded.
func (m Match) String() string {
	if m.Specificity() == 0 {
		return "*"
	}
	var parts []string
	if m.SrcIP != nil {
		parts = append(parts, "srcIP="+m.SrcIP.String())
	}
	if m.DstIP != nil {
		parts = append(parts, "dstIP="+m.DstIP.String())
	}
	if m.SrcPort != nil {
		parts = append(parts, fmt.Sprintf("srcPort=%d", *m.SrcPort))
	}
	if m.DstPort != nil {
		parts = append(parts, fmt.Sprintf("dstPort=%d", *m.DstPort))
	}
	if m.Proto != nil {
		parts = append(parts, fmt.Sprintf("proto=%d", *m.Proto))
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
	// Match restricts which flows this rule applies to.
	Match Match
	// Parallel marks the action list as a simultaneous read-only fan-out.
	Parallel bool
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
// one exception to full immutability: life.lastHit is an atomic the
// lookup path advances on every hit, shared across rewrites of the same
// rule so a default change does not reset the idle clock. The words a hit
// reads (expiry, life, Actions) lead the struct, sharing a cache line.
type Entry struct {
	// idleNs / hardAt are the precomputed expiry parameters against the
	// table's coarse clock: idleNs is the idle window in nanoseconds and
	// hardAt the absolute coarse-clock deadline (install time + hard
	// timeout). Zero means "no such timeout" — the hot path rejects
	// expiry with one comparison and never loads the clock.
	idleNs int64
	hardAt int64
	// life holds the mutable last-hit clock; nil unless idleNs != 0.
	life *entryLife

	Rule
	ID uint64 // table-assigned, stable for the rule's lifetime
}

// entryLife is the mutable half of an entry's lifecycle, held behind a
// pointer so entry rewrites (withDefault), which copy the Entry struct,
// keep sharing one idle clock, and so Entry itself stays copyable (no
// atomic embedded in a copied struct).
type entryLife struct {
	lastHit atomic.Int64
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

// snapshot is the immutable published state of one shard. Neither the
// maps nor anything reachable from them is mutated after publication
// (bar the sweeper's atomic base.due hint); writers clone the containers
// they need to change and publish a fresh snapshot.
type snapshot struct {
	// exact[scope] -> the scope's exact-match rules, base plus delta
	exact map[ServiceID]*exactSet
	// wild[scope] -> wildcard entries, kept sorted most-specific-first
	wild map[ServiceID][]*Entry

	// privateExact / privateWild track which per-scope containers this
	// (not-yet-published) snapshot already owns privately, so a batched
	// write clones each scope's delta once instead of once per rule. Only
	// the writer building the snapshot touches these; publish drops them.
	privateExact map[ServiceID]bool
	privateWild  map[ServiceID]bool
}

// emptySnapshot's maps are non-nil so that cloneTop's clones are too.
var emptySnapshot = &snapshot{exact: map[ServiceID]*exactSet{}, wild: map[ServiceID][]*Entry{}}

// cloneTop shallow-copies the snapshot's top-level maps so per-scope
// containers can be swapped without touching the published snapshot. The
// per-scope containers themselves still alias the published ones until
// exactFor/cloneWild replaces them.
func (s *snapshot) cloneTop() *snapshot {
	return &snapshot{exact: maps.Clone(s.exact), wild: maps.Clone(s.wild)}
}

// exactFor returns next's private exact set for scope, creating it or
// cloning the published set's delta (never its base) the first time this
// snapshot build touches the scope; a sparse delta is shrunk. next must
// already be a cloneTop result.
func (next *snapshot) exactFor(scope ServiceID) *exactSet {
	if next.privateExact[scope] {
		return next.exact[scope]
	}
	set := new(exactSet)
	if cur := next.exact[scope]; cur != nil {
		*set = *cur // shares cur's base; the delta is replaced below
	} else {
		set.base = &exactBase{}
	}
	if d := &set.delta; d.n*5 < len(d.slots) {
		d.resize(max(8, (d.n*5+3)/4)) // removals left it under 1/5 full: shrink it
	} else {
		d.slots = slices.Clone(d.slots)
	}
	next.exact[scope] = set
	if next.privateExact == nil {
		next.privateExact = make(map[ServiceID]bool)
	}
	next.privateExact[scope] = true
	return set
}

// cloneWild replaces next's wildcard slice for scope with a private copy
// and returns it, or the existing copy when already privatized. next
// must already be a cloneTop result.
func (next *snapshot) cloneWild(scope ServiceID) []*Entry {
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

// shard is one copy-on-write partition of the table. The snapshot pointer
// is the only field the data path touches; mu serializes writers only.
// Counters are shard-local to spread hot-path atomic traffic.
type shard struct {
	snap    atomic.Pointer[snapshot]
	mu      sync.Mutex
	lookups atomic.Uint64
	misses  atomic.Uint64
	// expired counts lookups that found an entry but rejected it as
	// timed out (the lazy half of eviction): each bump marks an entry
	// queued for the sweeper to reap. Data-path threads never delete —
	// that would need the writer mutex — they only signal.
	expired atomic.Uint64
	_       [64]byte // keep neighbouring shards off this cache line
}

// publish makes next the shard's snapshot. Each exact set the build
// touched is dropped when empty, so a drained scope frees its base, and
// folded when its delta is over budget. Caller holds sh.mu.
func (sh *shard) publish(next *snapshot) {
	for scope := range next.privateExact {
		if set := next.exact[scope]; set.n == 0 {
			delete(next.exact, scope)
		} else {
			set.fold()
		}
	}
	next.privateExact, next.privateWild = nil, nil
	sh.snap.Store(next)
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
	}
	return t
}

// Add installs a rule and returns its stable ID. Adding an exact rule for a
// (scope, flow) that already has one replaces it — this is how FLOW_MOD
// updates and cross-layer messages rewrite defaults.
func (t *Table) Add(r Rule) (uint64, error) {
	if len(r.Actions) == 0 {
		return 0, ErrNoAction
	}
	sh := &t.shards[shardIndex(r.Scope)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	next := sh.snap.Load().cloneTop()
	id := t.addLocked(next, r)
	sh.publish(next)
	return id, nil
}

// AddBatch installs rules, publishing at most one new snapshot per shard
// — the batched writer API used when the Flow Controller installs a
// FLOW_MOD burst or a whole service graph at once. It returns the ID of
// every installed rule, in order. A rule with no actions fails the whole
// batch before any rule is installed.
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
	var byShard [numShards][]int
	for i, r := range rules {
		si := shardIndex(r.Scope)
		byShard[si] = append(byShard[si], i)
	}
	for si, idxs := range byShard {
		if len(idxs) == 0 {
			continue
		}
		sh := &t.shards[si]
		sh.mu.Lock()
		next := sh.snap.Load().cloneTop()
		for _, i := range idxs {
			ids[i] = t.addLocked(next, rules[i])
		}
		sh.publish(next)
		sh.mu.Unlock()
	}
	return ids, nil
}

// addLocked installs r into next (a writable clone) and returns its ID.
// Caller holds the shard mutex for r.Scope.
func (t *Table) addLocked(next *snapshot, r Rule) uint64 {
	acts := make([]Action, len(r.Actions))
	copy(acts, r.Actions)
	r.Actions = acts
	t.modifies.Add(1)
	if r.Match.IsExact() {
		e := &Entry{Rule: r}
		if old := next.exactFor(r.Scope).put(r.Match.exactKey(), e); old != nil {
			e.ID = old.ID // replacement keeps identity
		} else {
			e.ID = t.nextID.Add(1)
			t.adds.Add(1)
		}
		// A replacement arms fresh timers — reinstalling a rule is how
		// OpenFlow flow-mods refresh a flow's lease.
		t.armLife(e)
		return e.ID
	}
	e := &Entry{Rule: r, ID: t.nextID.Add(1)}
	t.adds.Add(1)
	t.armLife(e)
	ws := append(next.cloneWild(r.Scope), e)
	sortWild(ws)
	next.wild[r.Scope] = ws
	return e.ID
}

// armLife precomputes e's expiry parameters from its rule timeouts,
// falling back to the table/scope defaults for exact-match rules. Called
// on the writer path (shard mutex held) before e is published.
func (t *Table) armLife(e *Entry) {
	idle, hard := e.IdleTimeout, e.HardTimeout
	if idle == 0 && hard == 0 && e.Match.IsExact() {
		idle, hard = t.defaultTimeouts(e.Scope)
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
		e.life = &entryLife{}
		e.life.lastHit.Store(now)
	}
}

// defaultTimeouts resolves the effective default (idle, hard) pair for
// scope: the per-scope override when set, else the table-wide default.
func (t *Table) defaultTimeouts(scope ServiceID) (idle, hard time.Duration) {
	t.defMu.RLock()
	defer t.defMu.RUnlock()
	if p, ok := t.scopeTOs[scope]; ok {
		return p.idle, p.hard
	}
	return t.defIdle, t.defHard
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

// Delete removes the rules with the given IDs, scanning each shard once
// and publishing at most one snapshot per shard, so replacing k rules
// costs one pass over the table rather than k. Every id that names a rule
// is deleted; ErrNoRule reports that at least one named none.
func (t *Table) Delete(ids ...uint64) error {
	want := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	doomed := func(e *Entry) bool { return want[e.ID] }
	found := 0
	for si := range t.shards {
		if found == len(want) {
			break
		}
		sh := &t.shards[si]
		sh.mu.Lock()
		cur := sh.snap.Load()
		var next *snapshot
		for scope, set := range cur.exact {
			for k, e := range set.all() {
				if doomed(e) {
					if next == nil {
						next = cur.cloneTop()
					}
					next.exactFor(scope).del(k)
					found++
				}
			}
		}
		for scope, ws := range cur.wild {
			if !slices.ContainsFunc(ws, doomed) {
				continue
			}
			if next == nil {
				next = cur.cloneTop()
			}
			nws := slices.DeleteFunc(next.cloneWild(scope), doomed)
			found += len(ws) - len(nws)
			if len(nws) == 0 {
				delete(next.wild, scope)
			} else {
				next.wild[scope] = nws
			}
		}
		if next != nil {
			sh.publish(next)
		}
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
		last := e.life.lastHit.Load()
		if now-last >= e.idleNs {
			return false
		}
		if last != now {
			e.life.lastHit.Store(now)
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
// probe, load each hit's expiry word, then its idle clock and default
// action, and only then check expiry and fall back to the wildcards. A run
// of descriptors sharing a scope — an RX burst from one port — loads the
// snapshot once, and the per-shard counters are updated once per batch,
// amortizing hot-path atomics across the burst (§4.1).
//
//sdnfv:hotpath
func (t *Table) LookupBatch(scopes []ServiceID, keys []packet.FlowKey, out []*Entry) int {
	var (
		nLookups, nMisses, nExpired [numShards]uint32
		snaps                       [lookupChunk]*snapshot
		sets                        [lookupChunk]*exactSet
		hashes                      [lookupChunk]uint64
		sink                        uint64
	)
	hits := 0
	for lo := 0; lo < len(scopes); lo += lookupChunk {
		n := min(lookupChunk, len(scopes)-lo)
		scopes, keys, out := scopes[lo:lo+n], keys[lo:lo+n], out[lo:lo+n]
		for i, scope := range scopes {
			if i == 0 || scope != scopes[i-1] {
				snaps[i] = t.shards[shardIndex(scope)].snap.Load()
				sets[i] = snaps[i].exact[scope]
			} else {
				snaps[i], sets[i] = snaps[i-1], sets[i-1]
			}
			hashes[i] = keys[i].Hash()
		}
		for i, set := range sets[:n] {
			if set != nil {
				sink += set.delta.touch(hashes[i]) + set.base.tab.touch(hashes[i])
			}
		}
		for i, set := range sets[:n] {
			out[i] = set.find(keys[i], hashes[i])
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
			if e.life != nil {
				sink += uint64(e.life.lastHit.Load())
			}
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
	var next *snapshot // cloned lazily, on the first entry actually changed
	n := 0
	rewrite := func(e *Entry) (*Entry, bool) {
		if !overlaps(e.Match, f) {
			return e, false
		}
		if constrain && !e.Allows(newDefault) {
			return e, false
		}
		n++
		return e.withDefault(newDefault), true
	}
	if set := cur.exact[scope]; set != nil {
		for k, e := range set.all() {
			ne, changed := rewrite(e)
			if !changed {
				continue
			}
			if next == nil {
				next = cur.cloneTop()
			}
			next.exactFor(scope).put(k, ne)
		}
	}
	if ws := cur.wild[scope]; ws != nil {
		var nws []*Entry
		for i, e := range ws {
			ne, changed := rewrite(e)
			if !changed {
				continue
			}
			if nws == nil {
				if next == nil {
					next = cur.cloneTop()
				}
				nws = next.cloneWild(scope)
			}
			nws[i] = ne
		}
	}
	if next == nil {
		return 0
	}
	t.modifies.Add(1)
	sh.publish(next)
	return n
}

// withDefault returns a fresh entry (same ID) whose default is a, with the
// previous actions preserved as alternatives.
func (e *Entry) withDefault(a Action) *Entry {
	acts := make([]Action, 0, len(e.Actions)+1)
	acts = append(acts, a)
	for _, x := range e.Actions {
		if x != a {
			acts = append(acts, x)
		}
	}
	ne := *e
	ne.Actions = acts
	return &ne
}

// specializeDefaultLocked installs (or rewrites) the exact-flow rule for f
// at scope so its default becomes newDefault, inheriting the remaining
// action list from the rule currently governing the flow. The caller
// holds the shard mutex, so the read of the governing rule and the install
// are one atomic step — a concurrent UpdateDefault can land entirely
// before or entirely after, never in between (the seed version dropped the
// lock here and could lose such an update).
func (t *Table) specializeDefaultLocked(sh *shard, scope ServiceID, f Match, newDefault Action, constrain bool) int {
	key := f.exactKey()
	gov := lookupSnap(sh.snap.Load(), scope, key)
	if gov == nil {
		return 0
	}
	if constrain && !gov.Allows(newDefault) {
		return 0
	}
	spec := gov.withDefault(newDefault)
	next := sh.snap.Load().cloneTop()
	if gov.Match.IsExact() {
		// The governing rule IS the exact rule for f: rewrite it in
		// place, keeping its ID and — because withDefault copies the
		// entry — its lifecycle clock. A default change is not flow
		// activity, so it must not refresh the idle lease.
		t.modifies.Add(1)
		next.exactFor(scope).put(key, spec)
		sh.publish(next)
		return 1
	}
	t.addLocked(next, Rule{
		Scope:       scope,
		Match:       f,
		Actions:     spec.Actions,
		Parallel:    gov.Parallel,
		Priority:    gov.Priority,
		IdleTimeout: gov.IdleTimeout,
		HardTimeout: gov.HardTimeout,
	})
	sh.publish(next)
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
		for _, e := range set.all() {
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
			for _, e := range set.all() {
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

// overlaps reports whether the flow sets of a and b intersect (field-wise:
// disjoint only if some concrete field differs).
func overlaps(a, b Match) bool {
	if a.SrcIP != nil && b.SrcIP != nil && *a.SrcIP != *b.SrcIP {
		return false
	}
	if a.DstIP != nil && b.DstIP != nil && *a.DstIP != *b.DstIP {
		return false
	}
	if a.SrcPort != nil && b.SrcPort != nil && *a.SrcPort != *b.SrcPort {
		return false
	}
	if a.DstPort != nil && b.DstPort != nil && *a.DstPort != *b.DstPort {
		return false
	}
	if a.Proto != nil && b.Proto != nil && *a.Proto != *b.Proto {
		return false
	}
	return true
}

// Len returns the total number of installed rules.
func (t *Table) Len() int {
	n := 0
	for si := range t.shards {
		snap := t.shards[si].snap.Load()
		for _, set := range snap.exact {
			n += set.n
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
			for k, e := range set.all() {
				lines = append(lines, fmt.Sprintf("%s %s -> %s", scope, k, actionsString(e)))
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
