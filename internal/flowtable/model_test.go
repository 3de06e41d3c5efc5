package flowtable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"sdnfv/internal/packet"
)

// The differential test drives a Table and a plain-map reference model
// with the same seeded operation sequence and compares them after every
// step. The model has no snapshots, slot arrays or tombstones: one map
// of exact rules and one list of wildcard rules per scope, with the
// table's lookup, expiry and rewrite rules written out naively.

// modelRule is one rule in the reference model.
type modelRule struct {
	id      uint64
	seq     int // creation order: breaks wildcard ties like the table's stable sort
	scope   ServiceID
	match   Match
	actions []Action
	prio    int
	idleTO  time.Duration // the rule's own timeouts, inherited by specializations
	hardTO  time.Duration
	idleNs  int64
	hardAt  int64
	lastHit int64 // last hit; a default rewrite's struct copy carries it over, as withDefault does
}

type model struct {
	now     int64
	defIdle time.Duration
	nextID  uint64
	seq     int
	exact   map[ServiceID]map[packet.FlowKey]*modelRule
	wild    map[ServiceID][]*modelRule
	adds    int
}

func newModel(defIdle time.Duration) *model {
	return &model{defIdle: defIdle, exact: map[ServiceID]map[packet.FlowKey]*modelRule{}, wild: map[ServiceID][]*modelRule{}}
}

func (m *model) arm(r *modelRule) {
	idle, hard := r.idleTO, r.hardTO
	if idle == 0 && hard == 0 && r.match.IsExact() {
		idle = m.defIdle
	}
	r.idleNs, r.hardAt, r.lastHit = 0, 0, 0
	if hard > 0 {
		r.hardAt = m.now + int64(hard)
	}
	if idle > 0 {
		r.idleNs = int64(idle)
		r.lastHit = m.now
	}
}

func (m *model) add(r Rule) {
	mr := &modelRule{scope: r.Scope, match: r.Match, actions: slices.Clone(r.Actions),
		prio: r.Priority, idleTO: r.IdleTimeout, hardTO: r.HardTimeout}
	m.arm(mr)
	if r.Match.IsExact() {
		k := r.Match.Key
		if m.exact[r.Scope] == nil {
			m.exact[r.Scope] = map[packet.FlowKey]*modelRule{}
		}
		if old := m.exact[r.Scope][k]; old != nil {
			mr.id = old.id
		} else {
			m.nextID++
			mr.id = m.nextID
			m.adds++
		}
		m.exact[r.Scope][k] = mr
		return
	}
	m.nextID++
	m.seq++
	mr.id, mr.seq = m.nextID, m.seq
	m.adds++
	ws := append(m.wild[r.Scope], mr)
	sort.Slice(ws, func(i, j int) bool {
		si, sj := ws[i].match.Specificity(), ws[j].match.Specificity()
		if si != sj {
			return si > sj
		}
		if ws[i].prio != ws[j].prio {
			return ws[i].prio > ws[j].prio
		}
		return ws[i].seq < ws[j].seq
	})
	m.wild[r.Scope] = ws
}

// expired mirrors expiredAt.
func (m *model) expired(r *modelRule) (EvictReason, bool) {
	if r.hardAt != 0 && m.now >= r.hardAt {
		return EvictHard, true
	}
	if r.idleNs != 0 && m.now-r.lastHit >= r.idleNs {
		return EvictIdle, true
	}
	return EvictIdle, false
}

// lookup mirrors Lookup: expired rules miss, a hit touches the idle clock.
func (m *model) lookup(scope ServiceID, k packet.FlowKey) *modelRule {
	touch := func(r *modelRule) bool {
		if _, exp := m.expired(r); exp {
			return false
		}
		r.lastHit = m.now
		return true
	}
	if r := m.exact[scope][k]; r != nil && touch(r) {
		return r
	}
	for _, r := range m.wild[scope] {
		if r.match.Matches(k) && touch(r) {
			return r
		}
	}
	return nil
}

// delete removes every rule whose id is in ids and reports whether all
// were found.
func (m *model) delete(ids []uint64) bool {
	want := map[uint64]bool{}
	for _, id := range ids {
		want[id] = true
	}
	found := 0
	for _, em := range m.exact {
		for k, r := range em {
			if want[r.id] {
				delete(em, k)
				found++
			}
		}
	}
	for scope, ws := range m.wild {
		n := len(ws)
		m.wild[scope] = slices.DeleteFunc(ws, func(r *modelRule) bool { return want[r.id] })
		found += n - len(m.wild[scope])
	}
	return found == len(want)
}

func withDefaultActions(acts []Action, a Action) []Action {
	out := []Action{a}
	for _, x := range acts {
		if x != a {
			out = append(out, x)
		}
	}
	return out
}

// updateDefault mirrors UpdateDefault, including exact-flow specialization
// from the governing rule (found without expiry checks, as the table does).
func (m *model) updateDefault(scope ServiceID, f Match, a Action, constrain bool) int {
	if f.IsExact() {
		k := f.Key
		gov := m.exact[scope][k]
		if gov == nil {
			for _, r := range m.wild[scope] {
				if r.match.Matches(k) {
					gov = r
					break
				}
			}
		}
		if gov == nil || (constrain && !slices.Contains(gov.actions, a)) {
			return 0
		}
		if gov.match.IsExact() {
			ng := *gov
			ng.actions = withDefaultActions(gov.actions, a)
			m.exact[scope][k] = &ng
			return 1
		}
		m.add(Rule{Scope: scope, Match: f, Actions: withDefaultActions(gov.actions, a),
			Priority: gov.prio, IdleTimeout: gov.idleTO, HardTimeout: gov.hardTO})
		return 1
	}
	n := 0
	rewrite := func(r *modelRule) *modelRule {
		if !overlaps(r.match, f) || (constrain && !slices.Contains(r.actions, a)) {
			return r
		}
		n++
		nr := *r
		nr.actions = withDefaultActions(r.actions, a)
		return &nr
	}
	for k, r := range m.exact[scope] {
		m.exact[scope][k] = rewrite(r)
	}
	for i, r := range m.wild[scope] {
		m.wild[scope][i] = rewrite(r)
	}
	return n
}

// sweep removes and returns every expired rule as "id/reason".
func (m *model) sweep() []string {
	var out []string
	for scope, em := range m.exact {
		for k, r := range em {
			if reason, exp := m.expired(r); exp {
				out = append(out, fmt.Sprintf("%d/%v", r.id, reason))
				delete(em, k)
			}
		}
		if len(em) == 0 {
			delete(m.exact, scope)
		}
	}
	for scope, ws := range m.wild {
		m.wild[scope] = slices.DeleteFunc(ws, func(r *modelRule) bool {
			reason, exp := m.expired(r)
			if exp {
				out = append(out, fmt.Sprintf("%d/%v", r.id, reason))
			}
			return exp
		})
	}
	sort.Strings(out)
	return out
}

func (m *model) len() int {
	n := 0
	for _, em := range m.exact {
		n += len(em)
	}
	for _, ws := range m.wild {
		n += len(ws)
	}
	return n
}

func (m *model) ids() []uint64 {
	var ids []uint64
	for _, em := range m.exact {
		for _, r := range em {
			ids = append(ids, r.id)
		}
	}
	for _, ws := range m.wild {
		for _, r := range ws {
			ids = append(ids, r.id)
		}
	}
	slices.Sort(ids)
	return ids
}

// modelScopes: Port(0) holds the big population; svc:16 shares its shard
// (16 & 15 == 0), svc:1 lives in another.
var modelScopes = []ServiceID{Port(0), ServiceID(16), ServiceID(1)}

const modelKeys = 1500

func modelKey(i int) packet.FlowKey {
	return packet.FlowKey{
		SrcIP: packet.IPv4(10, 0, byte(i>>8), byte(i)), DstIP: packet.IPv4(10, 1, 0, 1),
		SrcPort: uint16(2000 + i), DstPort: uint16(80 + i%3), Proto: packet.ProtoUDP,
	}
}

var modelActions = []Action{Forward(1), Forward(2), Forward(3), Out(1), Drop()}

// modelCoverage counts the structural cases a run reached, read white-box
// off the table after every step.
type modelCoverage struct {
	rebuilt, tombstones, readded, staleDue int
}

// differential drives tb and m through one step and compares them.
type differential struct {
	t    *testing.T
	rng  *rand.Rand
	tb   *Table
	m    *model
	step int
	cov  modelCoverage
	tab  *flatTab // Port(0)'s slot array at the last step
}

func (d *differential) fail(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("step %d: %s", d.step, fmt.Sprintf(format, args...))
}

func (d *differential) randRule(scope ServiceID, exact bool) Rule {
	r := Rule{Scope: scope, Priority: d.rng.Intn(3)}
	if exact {
		r.Match = ExactMatch(modelKey(d.rng.Intn(modelKeys)))
	} else {
		switch d.rng.Intn(3) {
		case 0:
			r.Match = MatchAll
		case 1:
			r.Match = NewMatch(packet.FlowKey{DstPort: uint16(80 + d.rng.Intn(3))}, FieldDstPort)
		default:
			r.Match = MatchSrcIP(modelKey(d.rng.Intn(modelKeys)).SrcIP)
		}
	}
	for _, i := range d.rng.Perm(len(modelActions))[:1+d.rng.Intn(3)] {
		r.Actions = append(r.Actions, modelActions[i])
	}
	switch d.rng.Intn(4) {
	case 0: // inherit the default (exact) or never expire (wildcard)
	case 1:
		r.IdleTimeout = time.Duration(10+d.rng.Intn(90)) * time.Millisecond
	case 2:
		r.HardTimeout = time.Duration(20+d.rng.Intn(180)) * time.Millisecond
	default:
		r.IdleTimeout = -1 // opts out of the default
	}
	return r
}

func (d *differential) randScope() ServiceID {
	if d.rng.Intn(4) == 0 {
		return modelScopes[1+d.rng.Intn(2)]
	}
	return modelScopes[0]
}

func (d *differential) addBatch(rules []Rule) {
	ids, err := d.tb.AddBatch(rules)
	if err != nil {
		d.fail("AddBatch: %v", err)
	}
	for i, r := range rules {
		d.m.add(r)
		if want := d.m.lookupID(r); ids[i] != want {
			d.fail("AddBatch id[%d] = %d, model %d", i, ids[i], want)
		}
	}
}

// lookupID is the id the model holds for a just-installed rule.
func (m *model) lookupID(r Rule) uint64 {
	if r.Match.IsExact() {
		return m.exact[r.Scope][r.Match.Key].id
	}
	return m.nextID
}

func (d *differential) delete(ids []uint64) {
	err := d.tb.Delete(ids...)
	if all := d.m.delete(ids); all != (err == nil) || (err != nil && !errors.Is(err, ErrNoRule)) {
		d.fail("Delete(%v) = %v, model found all: %v", ids, err, all)
	}
}

// randomStep applies one random operation to both sides.
func (d *differential) randomStep() { d.apply(d.rng.Intn(20)) }

// apply applies operation op, in [0, 20), to both sides, drawing its
// arguments from d.rng.
func (d *differential) apply(op int) {
	switch {
	case op < 5: // batch of exact rules, now and then a wildcard
		rules := make([]Rule, 1+d.rng.Intn(300))
		scope := d.randScope()
		for i := range rules {
			rules[i] = d.randRule(scope, d.rng.Intn(40) != 0)
		}
		d.addBatch(rules)
	case op < 7:
		r := d.randRule(d.randScope(), d.rng.Intn(8) != 0)
		id, err := d.tb.Add(r)
		if err != nil {
			d.fail("Add: %v", err)
		}
		if d.m.add(r); id != d.m.lookupID(r) {
			d.fail("Add id = %d, model %d", id, d.m.lookupID(r))
		}
	case op < 10:
		live := d.m.ids()
		var ids []uint64
		for n := 1 + d.rng.Intn(60); n > 0 && len(live) > 0; n-- {
			ids = append(ids, live[d.rng.Intn(len(live))])
		}
		if d.rng.Intn(5) == 0 {
			ids = append(ids, 1<<60) // unknown: ErrNoRule, the rest still go
		}
		d.delete(ids)
	case op < 12:
		scope, a, c := d.randScope(), modelActions[d.rng.Intn(len(modelActions))], d.rng.Intn(2) == 0
		f := ExactMatch(modelKey(d.rng.Intn(modelKeys)))
		if got, want := d.tb.UpdateDefault(scope, f, a, c), d.m.updateDefault(scope, f, a, c); got != want {
			d.fail("UpdateDefault exact = %d, model %d", got, want)
		}
	case op < 13:
		scope, a, c := d.randScope(), modelActions[d.rng.Intn(len(modelActions))], d.rng.Intn(2) == 0
		f := MatchAll
		if d.rng.Intn(2) == 0 {
			f = MatchSrcIP(modelKey(d.rng.Intn(modelKeys)).SrcIP)
		}
		if got, want := d.tb.UpdateDefault(scope, f, a, c), d.m.updateDefault(scope, f, a, c); got != want {
			d.fail("UpdateDefault wildcard = %d, model %d", got, want)
		}
	case op < 17:
		d.advance(time.Duration(d.rng.Intn(120)) * time.Millisecond)
	default:
		d.sweep()
	}
}

func (d *differential) advance(dt time.Duration) {
	d.tb.Advance(dt)
	d.m.now += int64(dt)
}

func (d *differential) sweep() {
	var got []string
	for _, ev := range d.tb.Sweep() {
		got = append(got, fmt.Sprintf("%d/%v", ev.ID, ev.Reason))
	}
	sort.Strings(got)
	if want := d.m.sweep(); !slices.Equal(got, want) {
		d.fail("Sweep evicted %v, model %v", got, want)
	}
}

// check compares every lookup, Len and the lifecycle identity, then
// records which structural cases the table is in.
func (d *differential) check() {
	d.t.Helper()
	batch := d.step%2 == 1
	scopes := make([]ServiceID, modelKeys)
	keys := make([]packet.FlowKey, modelKeys)
	out := make([]*Entry, modelKeys)
	// One burst per scope, then one that interleaves the three in runs of
	// seven, so scope and shard changes fall inside LookupBatch's 64-key
	// chunks, runs straddle their boundaries, and at 7×64 a change lands
	// on one.
	for b := range len(modelScopes) + 1 {
		for i := range keys {
			scopes[i], keys[i] = modelScopes[(i/7)%len(modelScopes)], modelKey(i)
			if b < len(modelScopes) {
				scopes[i] = modelScopes[b]
			}
		}
		if batch {
			d.tb.LookupBatch(scopes, keys, out)
		} else {
			for i, k := range keys {
				out[i], _ = d.tb.Lookup(scopes[i], k)
			}
		}
		for i, k := range keys {
			want, got := d.m.lookup(scopes[i], k), out[i]
			switch {
			case want == nil && got == nil:
			case want == nil || got == nil:
				d.fail("%v %v: table %v, model %v", scopes[i], k, got, want)
			case got.ID != want.id || !slices.Equal(got.Actions, want.actions):
				d.fail("%v %v: table id %d %v, model id %d %v", scopes[i], k, got.ID, got.Actions, want.id, want.actions)
			}
		}
	}
	st := d.tb.Stats()
	if st.Rules != d.m.len() || d.tb.Len() != st.Rules {
		d.fail("Len = %d, model %d", st.Rules, d.m.len())
	}
	if st.Adds != uint64(d.m.adds) || st.Adds != uint64(st.Rules)+st.Deleted+st.Evicted() {
		d.fail("identity: adds=%d (model %d) rules=%d deleted=%d evicted=%d",
			st.Adds, d.m.adds, st.Rules, st.Deleted, st.Evicted())
	}
	d.observe()
}

// observe records, for Port(0): a non-empty scope whose array was
// rebuilt since the last step; tombstones; a key live again in an array
// that still holds its tombstone; and a rule that was replaced while
// filed for expiry and is now due while its replacement lives, which a
// sweep must drop, not evict.
func (d *differential) observe() {
	sh := &d.tb.shards[shardIndex(Port(0))]
	set := sh.snap.Load().exact[Port(0)]
	if set == nil {
		d.tab = nil
		return
	}
	tab := set.tab.Load()
	if d.tab != nil && tab != d.tab {
		d.cov.rebuilt++
	}
	d.tab = tab
	dead := map[uint64]bool{}
	for i := range tab.slots {
		if tab.slots[i].e.Load() == tombstone {
			dead[tab.slots[i].hash] = true
			d.cov.tombstones++
		}
	}
	for i := range tab.slots {
		if e := tab.slots[i].e.Load(); e != nil && e != tombstone && dead[tab.slots[i].hash] {
			d.cov.readded++
		}
	}
	for _, e := range sh.buckets.heads {
		for ; e != nil; e = e.nextDue {
			if e.Scope == Port(0) && e.Match.IsExact() && expiresBy(e) <= d.m.now &&
				!sh.snap.Load().holds(e) && set.find(e.Match.Key, e.Match.Key.Hash()) != nil {
				d.cov.staleDue++
			}
		}
	}
}

// TestTableMatchesModel is the differential test: random Add, AddBatch,
// Delete, UpdateDefault (exact and wildcard), Advance and Sweep sequences
// against the plain-map model, with lookups, Len, the lifecycle identity
// and every sweep's evictions compared after each step. A scripted
// opening reaches the structural cases the random walk might miss: a
// key deleted and re-added beside its tombstone, and a replaced rule
// whose old lease runs out while its replacement lives.
func TestTableMatchesModel(t *testing.T) {
	steps := 400
	if testing.Short() {
		steps = 100
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			tb := New()
			tb.SetDefaultTimeouts(150*time.Millisecond, 0)
			d := &differential{t: t, rng: rand.New(rand.NewSource(seed)), tb: tb, m: newModel(150 * time.Millisecond)}
			next := func(op func()) {
				d.step++
				op()
				d.check()
			}
			// 600 rules, 100 with a short hard lease.
			rules := make([]Rule, 600)
			for i := range rules {
				rules[i] = Rule{Scope: Port(0), Match: ExactMatch(modelKey(i)), Actions: []Action{Forward(1), Forward(2)}}
				if i < 100 {
					rules[i].HardTimeout = 50 * time.Millisecond
				}
			}
			next(func() { d.addBatch(rules) })
			// Delete keys, then re-add them.
			gone := []uint64{d.m.exact[Port(0)][modelKey(200)].id, d.m.exact[Port(0)][modelKey(201)].id}
			next(func() { d.delete(gone) })
			next(func() { d.addBatch(rules[200:202]) })
			// Replace short-lease rules with long-lived ones, then let
			// the replaced rules' leases run out.
			shadow := slices.Clone(rules[:10])
			for i := range shadow {
				shadow[i].HardTimeout = time.Hour
			}
			next(func() { d.addBatch(shadow) })
			next(func() { d.advance(60 * time.Millisecond) })
			next(d.sweep)
			for range steps {
				next(d.randomStep)
			}
			if d.cov.rebuilt == 0 || d.cov.tombstones == 0 || d.cov.readded == 0 || d.cov.staleDue == 0 {
				t.Fatalf("run missed a structural case: %+v", d.cov)
			}
		})
	}
}

// FuzzTableLifecycle runs the differential test on operation sequences
// read from the fuzz input: its first eight bytes seed the draws of each
// operation's rules, keys, timeouts and clock steps, and every later byte
// applies one operation (AddBatch, Add and replace, Delete, UpdateDefault
// exact and wildcard, Advance or Sweep), after which the table and the
// model are compared. Past 64 operations the input is ignored, which
// keeps each run within a fraction of a second.
func FuzzTableLifecycle(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 5, 7, 10, 12, 17, 13, 19, 0, 8, 14, 18})
	seq := make([]byte, 48)
	for i := range seq {
		seq[i] = byte(i * 37)
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 8 {
			return
		}
		tb := New()
		tb.SetDefaultTimeouts(150*time.Millisecond, 0)
		seed := int64(binary.LittleEndian.Uint64(in))
		d := &differential{t: t, rng: rand.New(rand.NewSource(seed)), tb: tb, m: newModel(150 * time.Millisecond)}
		for _, op := range in[8:min(len(in), 8+64)] {
			d.step++
			d.apply(int(op) % 20)
			d.check()
		}
	})
}
