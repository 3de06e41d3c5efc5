package dataplane

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
)

// flowCounter is a native-batch NF that counts packets per flow in the
// engine-owned flow store — the state whose survival the scale paths must
// guarantee.
type flowCounter struct{}

func (flowCounter) Name() string   { return "flowCounter" }
func (flowCounter) ReadOnly() bool { return true }
func (flowCounter) ProcessBatch(ctx *nf.Context, batch []nf.Packet, _ []nf.Decision) {
	fs := ctx.FlowState()
	for i := range batch {
		prev, _ := fs.Get(batch[i].Key)
		n, _ := prev.(uint64)
		fs.Set(batch[i].Key, n+1)
	}
}

// flowTotals sums per-flow counts across all replicas of svc, also
// reporting how many replicas hold state for each flow.
func flowTotals(h *Host, svc flowtable.ServiceID) (totals map[packet.FlowKey]uint64, holders map[packet.FlowKey]int) {
	totals = make(map[packet.FlowKey]uint64)
	holders = make(map[packet.FlowKey]int)
	for _, rs := range h.ReplicaStats(svc) {
		fs := h.FlowState(svc, rs.Index)
		fs.Range(func(k packet.FlowKey, v any) bool {
			totals[k] += v.(uint64)
			holders[k]++
			return true
		})
	}
	return totals, holders
}

func flowFrame(t *testing.T, flow int) []byte {
	t.Helper()
	return buildFrame(t, uint16(20000+flow), []byte("scale"))
}

func addCounterChain(t *testing.T, h *Host, replicas int) {
	t.Helper()
	for i := 0; i < replicas; i++ {
		if _, err := h.AddNF(svcA, flowCounter{}, 0); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(t, h, flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
		Actions: []flowtable.Action{flowtable.Forward(svcA)}})
	mustAdd(t, h, flowtable.Rule{Scope: svcA, Match: flowtable.MatchAll,
		Actions: []flowtable.Action{flowtable.Out(1)}})
}

// TestScaleStatePreservedQuiesced is the acceptance check for the scale
// paths: with traffic quiesced around each transition, per-flow NF state
// is preserved EXACTLY across a live scale-up (state migrates to the new
// rendezvous owner) and a live scale-down (state hands off to the
// remaining owners).
func TestScaleStatePreservedQuiesced(t *testing.T) {
	const flows, perRound = 16, 25
	h, out := startHost(t, Config{LoadBalancer: LBFlowHash}, func(h *Host) {
		addCounterChain(t, h, 1)
	})
	inject := func(round int) {
		t.Helper()
		for p := 0; p < perRound; p++ {
			for f := 0; f < flows; f++ {
				frame := flowFrame(t, f)
				waitFor(t, func() bool { return h.Inject(0, frame) == nil }, "inject")
			}
		}
		waitFor(t, func() bool { return out.count() == round*perRound*flows }, "round delivered")
		if !h.WaitIdle(5 * time.Second) {
			t.Fatalf("not idle: %+v", h.Pool().Stats())
		}
	}
	check := func(stage string, replicas int, perFlow uint64) {
		t.Helper()
		if got := len(h.ReplicaStats(svcA)); got != replicas {
			t.Fatalf("%s: %d replicas, want %d", stage, got, replicas)
		}
		totals, holders := flowTotals(h, svcA)
		if len(totals) != flows {
			t.Fatalf("%s: state for %d flows, want %d", stage, len(totals), flows)
		}
		for k, n := range totals {
			if n != perFlow {
				t.Fatalf("%s: flow %s count = %d, want %d", stage, k, n, perFlow)
			}
			if holders[k] != 1 {
				t.Fatalf("%s: flow %s held by %d replicas", stage, k, holders[k])
			}
		}
	}

	inject(1)
	check("baseline", 1, perRound)

	// Live scale-up: the new replica must inherit the state of exactly
	// the flows it now owns.
	if _, err := h.AddNF(svcA, flowCounter{}, 0); err != nil {
		t.Fatalf("scale-up: %v", err)
	}
	check("after scale-up", 2, perRound)

	inject(2)
	check("after round 2", 2, 2*perRound)

	// Live scale-down of the newer replica: its state must merge back.
	if err := h.RemoveNF(svcA, 1); err != nil {
		t.Fatalf("scale-down: %v", err)
	}
	check("after scale-down", 1, 2*perRound)

	inject(3)
	check("after round 3", 1, 3*perRound)
}

// TestRemoveNFDuringTraffic retires replicas under live load: no
// descriptor may leak, every packet must be accounted for, and every
// flow's state must land on the surviving replica.
func TestRemoveNFDuringTraffic(t *testing.T) {
	const flows = 32
	h, out := startHost(t, Config{LoadBalancer: LBFlowHash, PoolSize: 512}, func(h *Host) {
		addCounterChain(t, h, 3)
	})
	frames := make([][]byte, flows)
	for f := range frames {
		frames[f] = flowFrame(t, f)
	}
	var injected atomic.Uint64
	stopGen := make(chan struct{})
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		i := 0
		for {
			select {
			case <-stopGen:
				return
			default:
			}
			if h.Inject(0, frames[i%flows]) == nil {
				injected.Add(1)
			}
			i++
		}
	}()

	time.Sleep(20 * time.Millisecond)
	if err := h.RemoveNF(svcA, 2); err != nil {
		t.Fatalf("remove replica 2: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := h.RemoveNF(svcA, 1); err != nil {
		t.Fatalf("remove replica 1: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	close(stopGen)
	<-genDone

	// Exact packet accounting: everything injected either exited or was
	// counted as an NF-queue overflow (no policy drops in this setup).
	waitFor(t, func() bool {
		st := h.Stats()
		return uint64(out.count())+st.Overflows == injected.Load()
	}, "packet accounting")
	if !h.WaitIdle(5 * time.Second) {
		t.Fatalf("descriptor leak after removals: %+v", h.Pool().Stats())
	}
	reps := h.ReplicaStats(svcA)
	if len(reps) != 1 || reps[0].Index != 0 {
		t.Fatalf("replicas = %+v, want only index 0", reps)
	}
	// Every flow's state must have been handed off to the survivor.
	totals, _ := flowTotals(h, svcA)
	if len(totals) != flows {
		t.Fatalf("state for %d flows after handoff, want %d", len(totals), flows)
	}
	for k, n := range totals {
		if n == 0 {
			t.Fatalf("flow %s lost its state", k)
		}
	}
	// The host survives a restart cycle after runtime removals.
	h.Stop()
	if err := h.Start(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	pre := out.count()
	waitFor(t, func() bool { return h.Inject(0, frames[0]) == nil }, "inject after restart")
	waitFor(t, func() bool { return out.count() == pre+1 }, "delivery after restart")
}

// TestRuntimeAddNFReceivesTraffic verifies a replica added to a running
// host joins the load-balanced set.
func TestRuntimeAddNFReceivesTraffic(t *testing.T) {
	h, out := startHost(t, Config{}, func(h *Host) {
		addCounterChain(t, h, 1)
	})
	frame := flowFrame(t, 1)
	for i := 0; i < 10; i++ {
		waitFor(t, func() bool { return h.Inject(0, frame) == nil }, "inject")
	}
	waitFor(t, func() bool { return out.count() == 10 }, "first batch")

	inst, err := h.AddNF(svcA, flowCounter{}, 0)
	if err != nil {
		t.Fatalf("runtime add: %v", err)
	}
	if inst.Index != 1 {
		t.Fatalf("new replica index = %d, want 1", inst.Index)
	}
	// Default round-robin: both replicas must now see traffic.
	for i := 0; i < 40; i++ {
		waitFor(t, func() bool { return h.Inject(0, frame) == nil }, "inject")
	}
	waitFor(t, func() bool { return out.count() == 50 }, "second batch")
	for _, rs := range h.ReplicaStats(svcA) {
		if rs.Processed == 0 {
			t.Fatalf("replica %d processed nothing: %+v", rs.Index, rs)
		}
	}
}

// TestRemoveNFStoppedHost covers the cold path: no drain needed, state
// still hands off, and addressing errors are reported.
func TestRemoveNFStoppedHost(t *testing.T) {
	h := NewHost(Config{PoolSize: 16, LoadBalancer: LBFlowHash})
	if _, err := h.AddNF(svcA, flowCounter{}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddNF(svcA, flowCounter{}, 0); err != nil {
		t.Fatal(err)
	}
	key := packet.FlowKey{SrcIP: packet.IPv4(10, 0, 0, 9), DstIP: packet.IPv4(10, 0, 0, 2), SrcPort: 9, DstPort: 80, Proto: packet.ProtoUDP}
	h.FlowState(svcA, 0).Set(key, uint64(7))
	if err := h.RemoveNF(svcA, 0); err != nil {
		t.Fatal(err)
	}
	if h.FlowState(svcA, 0) != nil {
		t.Fatal("removed replica still addressable")
	}
	v, ok := h.FlowState(svcA, 1).Get(key)
	if !ok || v.(uint64) != 7 {
		t.Fatalf("state not handed off: %v %v", v, ok)
	}
	if err := h.RemoveNF(svcA, 0); err == nil {
		t.Fatal("double remove accepted")
	}
	if err := h.RemoveNF(svcB, 0); err == nil {
		t.Fatal("unknown service accepted")
	}
	// Removing the last replica is allowed.
	if err := h.RemoveNF(svcA, 1); err != nil {
		t.Fatal(err)
	}
	if got := len(h.Instances()); got != 0 {
		t.Fatalf("%d instances left", got)
	}
}

// TestFlowHashStableAcrossScale pins the rendezvous property the
// scale paths rely on: editing the replica set only moves the flows
// owned by the added/removed replica.
func TestFlowHashStableAcrossScale(t *testing.T) {
	mk := func(n int) []*Instance {
		insts := make([]*Instance, n)
		for i := range insts {
			insts[i] = &Instance{Index: i, seq: uint64(i)}
		}
		return insts
	}
	four := mk(4)
	three := four[:3]                                       // replica seq=3 removed
	five := append(four[:4:4], &Instance{Index: 4, seq: 4}) // replica seq=4 added

	const keys = 8192
	moved := 0
	for i := 0; i < keys; i++ {
		k := packet.FlowKey{
			SrcIP:   packet.IPv4(10, byte(i>>16), byte(i>>8), byte(i)),
			DstIP:   packet.IPv4(10, 2, 0, 1),
			SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoTCP,
		}
		o4 := ownerOf(four, k)
		if o3 := ownerOf(three, k); o4 != four[3] && o3 != o4 {
			t.Fatalf("key %d moved from %d to %d though its owner was not removed", i, o4.seq, o3.seq)
		}
		if o5 := ownerOf(five, k); o5 != o4 && o5 != five[4] {
			t.Fatalf("key %d moved from %d to %d instead of the new replica", i, o4.seq, o5.seq)
		}
		if o4 == four[3] {
			moved++
		}
	}
	// The removed replica owned ~1/4 of flows; allow a generous band.
	if frac := float64(moved) / keys; frac < 0.15 || frac > 0.35 {
		t.Fatalf("removal moves %.2f of flows, want ~0.25", frac)
	}
}

// TestParJoinRoundRobinAfterJoin is the regression test for the post-join
// load-balancing bug: parJoin used a fresh round-robin counter per join,
// so every packet continuing after a parallel merge landed on the same
// replica.
func TestParJoinRoundRobinAfterJoin(t *testing.T) {
	var got [2]atomic.Uint64
	h, out := startHost(t, Config{}, func(h *Host) {
		ro := func(name string) nf.BatchFunction {
			return ppNF(name, func(*nf.Context, *nf.Packet) nf.Decision { return nf.Decision{} })
		}
		_, _ = h.AddNF(svcA, ro("pa"), 0)
		_, _ = h.AddNF(svcB, ro("pb"), 0)
		for i := 0; i < 2; i++ {
			i := i
			fn := ppNF("after", func(*nf.Context, *nf.Packet) nf.Decision {
				got[i].Add(1)
				return nf.Decision{}
			})
			_, _ = h.AddNF(svcC, fn, 0)
		}
		mustAdd(t, h, flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
			Actions:  []flowtable.Action{flowtable.Forward(svcA), flowtable.Forward(svcB)},
			Parallel: true})
		// Both members continue to C by default; C exits.
		mustAdd(t, h, flowtable.Rule{Scope: svcA, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(svcC)}})
		mustAdd(t, h, flowtable.Rule{Scope: svcB, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(svcC)}})
		mustAdd(t, h, flowtable.Rule{Scope: svcC, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(1)}})
	})
	const n = 40
	frame := buildFrame(t, 9100, []byte("join"))
	for i := 0; i < n; i++ {
		waitFor(t, func() bool { return h.Inject(0, frame) == nil }, "inject")
	}
	waitFor(t, func() bool { return out.count() == n }, "joined packets out")
	a, b := got[0].Load(), got[1].Load()
	if a+b != n {
		t.Fatalf("replicas saw %d+%d, want %d", a, b, n)
	}
	if a == 0 || b == 0 {
		t.Fatalf("post-join round robin is skewed: %d/%d", a, b)
	}
}

// TestOverflowCounterDistinct is the regression test for conflating NF
// input-ring overflows with policy drops.
func TestOverflowCounterDistinct(t *testing.T) {
	gate := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(gate)
		}
	}()
	h, out := startHost(t, Config{PoolSize: 256, RingSize: 16}, func(h *Host) {
		blocker := &nf.BatchAdapter{FnName: "blocker", RO: true,
			ProcessBatchF: func(*nf.Context, []nf.Packet, []nf.Decision) { <-gate }}
		if _, err := h.AddNF(svcA, blocker, 0); err != nil {
			t.Fatal(err)
		}
		mustAdd(t, h, flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(svcA)}})
		mustAdd(t, h, flowtable.Rule{Scope: svcA, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(1)}})
	})
	frame := buildFrame(t, 9200, nil)
	injected := 0
	// Keep offering load until the blocked replica's rings overflow.
	waitFor(t, func() bool {
		if h.Inject(0, frame) == nil {
			injected++
		}
		return h.Stats().Overflows > 0
	}, "overflow pressure")
	st := h.Stats()
	if st.Drops != 0 {
		t.Fatalf("overflow leaked into Drops: %+v", st)
	}
	if len(st.Replicas) != 1 || st.Replicas[0].OverflowDrops != st.Overflows {
		t.Fatalf("per-replica overflow mismatch: %+v vs %d", st.Replicas, st.Overflows)
	}
	close(gate)
	released = true
	waitFor(t, func() bool {
		st := h.Stats()
		return uint64(out.count())+st.Overflows == uint64(injected)
	}, "accounting after release")
	if !h.WaitIdle(5 * time.Second) {
		t.Fatalf("leak: %+v", h.Pool().Stats())
	}
}

// TestMalformedFrameDroppedWithoutCache is the regression test for
// resolveEntry ignoring packet.Parse failures when the lookup cache is
// disabled: a frame whose bytes no longer parse must be dropped, not
// dispatched by the descriptor's stale flow key.
func TestMalformedFrameDroppedWithoutCache(t *testing.T) {
	h := NewHost(Config{PoolSize: 8, DisableLookupCache: true})
	out := &collector{}
	h.BindDefault(out.fn)
	key := packet.FlowKey{SrcIP: packet.IPv4(10, 0, 0, 1), DstIP: packet.IPv4(10, 0, 0, 2), SrcPort: 1234, DstPort: 80, Proto: packet.ProtoUDP}
	if _, err := h.Table().Add(flowtable.Rule{Scope: svcA, Match: flowtable.MatchAll,
		Actions: []flowtable.Action{flowtable.Out(1)}}); err != nil {
		t.Fatal(err)
	}
	hd, err := h.Pool().Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := h.Pool().Buf(hd)
	copy(buf, []byte{0xde, 0xad}) // not a parseable frame
	_ = h.Pool().SetLength(hd, 2)
	d := Desc{H: hd, Scope: svcA, Key: key, Verb: nf.VerbDefault}
	inst := &Instance{Service: svcA, fn: NoopFn(), svcTime: newServiceTimeEWMA()}
	var rr uint64
	h.completeNF(h.snap.Load(), &d, inst, 0, &rr)
	st := h.Stats()
	if st.Drops != 1 || out.count() != 0 {
		t.Fatalf("malformed frame dispatched: drops=%d delivered=%d", st.Drops, out.count())
	}
	if st.Pool.InUse != 0 {
		t.Fatalf("buffer leaked: %+v", st.Pool)
	}
}

// TestFanOutStaleHandleDropped is the regression test for fanOut ignoring
// pool.Retain errors: a failed retain must drop the packet instead of
// fanning out copies that each release a reference the pool never
// granted.
func TestFanOutStaleHandleDropped(t *testing.T) {
	h := NewHost(Config{PoolSize: 8})
	if _, err := h.AddNF(svcA, NoopFn(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddNF(svcB, NoopFn(), 0); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	h.publishSnapLocked()
	h.mu.Unlock()
	hd, err := h.Pool().Alloc()
	if err != nil {
		t.Fatal(err)
	}
	_ = h.Pool().Release(hd) // handle is now stale: Retain must fail
	e := &flowtable.Entry{Rule: flowtable.Rule{
		Scope:    flowtable.Port(0),
		Actions:  []flowtable.Action{flowtable.Forward(svcA), flowtable.Forward(svcB)},
		Parallel: true,
	}}
	d := Desc{H: hd, Scope: flowtable.Port(0)}
	var rr uint64
	h.fanOut(h.snap.Load(), &d, e, 0, &rr)
	st := h.Stats()
	if st.Drops != 1 {
		t.Fatalf("stale-handle fan-out not dropped: %+v", st)
	}
	if st.Pool.InUse != 0 {
		t.Fatalf("refcount corrupted: %+v", st.Pool)
	}
}

// TestReplicaStatsTelemetry checks the per-replica load signals the
// autoscale layer samples.
func TestReplicaStatsTelemetry(t *testing.T) {
	h, out := startHost(t, Config{}, func(h *Host) {
		addCounterChain(t, h, 2)
	})
	frame := flowFrame(t, 3)
	const n = 64
	for i := 0; i < n; i++ {
		waitFor(t, func() bool { return h.Inject(0, frame) == nil }, "inject")
	}
	waitFor(t, func() bool { return out.count() == n }, "delivered")
	reps := h.ReplicaStats(svcA)
	if len(reps) != 2 {
		t.Fatalf("replicas = %d", len(reps))
	}
	var processed uint64
	for _, rs := range reps {
		if rs.Service != svcA || rs.Name != "flowCounter" {
			t.Fatalf("identity: %+v", rs)
		}
		processed += rs.Processed
		if rs.Processed > 0 && rs.ServiceTimeNs <= 0 {
			t.Fatalf("no service time measured: %+v", rs)
		}
	}
	if processed != n {
		t.Fatalf("processed = %d, want %d", processed, n)
	}
	// Stats() carries the same snapshot.
	st := h.Stats()
	if len(st.Replicas) != 2 {
		t.Fatalf("HostStats.Replicas = %+v", st.Replicas)
	}
}

// TestRuntimeAddInitFailureRollsBack ensures a failed Init during live
// scale-up leaves the replica set untouched.
func TestRuntimeAddInitFailureRollsBack(t *testing.T) {
	h, _ := startHost(t, Config{}, func(h *Host) {
		addCounterChain(t, h, 1)
	})
	bad := &nf.BatchAdapter{FnName: "bad", RO: true,
		InitF: func(*nf.Context) error { return fmt.Errorf("nope") }}
	if _, err := h.AddNF(svcA, bad, 0); err == nil {
		t.Fatal("failed Init accepted")
	}
	if got := len(h.ReplicaStats(svcA)); got != 1 {
		t.Fatalf("replica set changed after failed init: %d", got)
	}
}
