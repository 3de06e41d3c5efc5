package dataplane_test

// Engine-level flow-lifecycle tests: per-flow rules installed by the
// real control hierarchy expire by idle timeout, the background sweeper
// evicts them, the eviction releases the engine-owned nf.FlowState of
// the flow, and exactly one flow-removed notification per evicted rule
// climbs to the application tier.

import (
	"context"
	"testing"
	"time"

	"sdnfv/internal/app"
	"sdnfv/internal/control"
	"sdnfv/internal/controller"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
	"sdnfv/internal/traffic"
)

// flowLifeRig is the full in-process hierarchy with lifecycle defaults:
// app (per-flow exact compilation) → controller → host whose table
// expires idle flows and sweeps frequently.
type flowLifeRig struct {
	app  *app.App
	ctl  *controller.Controller
	host *dataplane.Host
	svc  flowtable.ServiceID
}

func startFlowLifeRig(t *testing.T, idle time.Duration) *flowLifeRig {
	t.Helper()
	const svcMon flowtable.ServiceID = 21
	g, err := graph.Chain("life", graph.Vertex{Service: svcMon, Name: "mon", ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	a := app.New(app.Config{IngressPort: 0, EgressPort: 1})
	if err := a.RegisterGraph(g); err != nil {
		t.Fatal(err)
	}
	ctl := controller.New(controller.Config{Workers: 4})
	ctl.SetNorthbound(a)
	ctl.Start()
	t.Cleanup(ctl.Stop)

	h := dataplane.NewHost(dataplane.Config{
		PoolSize:  512,
		TXThreads: 1,
		Control:   ctl.Session(0),
		// Short lease, fast sweep: evictions happen within tens of
		// milliseconds once a flow goes quiet.
		FlowIdleTimeout:   idle,
		FlowSweepInterval: 2 * time.Millisecond,
	})
	// The monitor NF pins per-flow state, so an eviction that fails to
	// release it is observable as a leak.
	mon := &nf.BatchAdapter{FnName: "mon", RO: true,
		ProcessBatchF: func(ctx *nf.Context, batch []nf.Packet, _ []nf.Decision) {
			for i := range batch {
				ctx.FlowState().Set(batch[i].Key, struct{}{})
			}
		}}
	if _, err := h.AddNF(svcMon, mon, 0); err != nil {
		t.Fatal(err)
	}
	h.BindDefault(func(int, []byte, *dataplane.Desc) {})
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Stop)
	return &flowLifeRig{app: a, ctl: ctl, host: h, svc: svcMon}
}

// inject pushes one frame of flow id, retrying while the NIC ring is
// full.
func (r *flowLifeRig) inject(t *testing.T, factory *traffic.Factory, id int) {
	t.Helper()
	frame, err := factory.Frame(traffic.Flow(id, 128, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	for r.host.Inject(0, frame) != nil {
		time.Sleep(5 * time.Microsecond)
	}
}

// TestFlowEvictionReleasesStateAndNotifies drives flows through the
// full hierarchy, lets them go idle, and checks the whole eviction
// contract: table rules drop, nf.FlowState is released, and the
// application receives exactly one flow-removed notice per evicted rule
// (identity against the table's own eviction counters).
func TestFlowEvictionReleasesStateAndNotifies(t *testing.T) {
	rig := startFlowLifeRig(t, 40*time.Millisecond)
	factory := traffic.NewFactory()

	const flows = 32
	for i := 1; i <= flows; i++ {
		rig.inject(t, factory, i)
	}
	fs := rig.host.FlowState(rig.svc, 0)
	waitCond(t, func() bool { return fs.Len() == flows }, "per-flow NF state for every flow")
	if rules := rig.host.Stats().Table.Rules; rules < flows {
		t.Fatalf("table has %d rules, want >= %d", rules, flows)
	}

	// Quiesce: every per-flow rule (port scope and service scope) must
	// idle out, the sweeper must reap it, and the state must follow.
	waitCond(t, func() bool { return rig.host.Stats().Table.Rules == 0 }, "all rules evicted")
	waitCond(t, func() bool { return fs.Len() == 0 }, "per-flow NF state released")

	st := rig.host.Stats().Table
	if st.EvictedIdle == 0 || st.EvictedHard != 0 {
		t.Fatalf("eviction reasons: %+v", st)
	}
	// Exactly one notification per eviction, no duplicates, no loss.
	waitCond(t, func() bool { return rig.app.FlowsRemoved() == st.Evicted() }, "flow-removed notices")
	if got := rig.app.FlowsRemoved(); got != st.Evicted() {
		t.Fatalf("app saw %d removals, table evicted %d", got, st.Evicted())
	}
	// Lifecycle accounting identity holds at the engine level too.
	if st.Adds != uint64(st.Rules)+st.Deleted+st.Evicted() {
		t.Fatalf("identity broken: %+v", st)
	}

	// A returning flow is a fresh miss: it recompiles and works.
	rig.inject(t, factory, 1)
	waitCond(t, func() bool { return fs.Len() == 1 }, "returning flow reinstalled")
}

// TestRefusedNoticesCounted: a southbound that refuses flow-removed
// notices loses none silently — every evicted rule whose notice was
// refused counts in HostStats.NoticesRefused.
func TestRefusedNoticesCounted(t *testing.T) {
	const svc flowtable.ServiceID = 21
	sb := control.SouthboundFuncs{
		ResolveFunc: func(_ context.Context, _ flowtable.ServiceID, key packet.FlowKey) ([]flowtable.Rule, error) {
			return []flowtable.Rule{
				{Scope: flowtable.Port(0), Match: flowtable.ExactMatch(key), Actions: []flowtable.Action{flowtable.Forward(svc)}},
				{Scope: svc, Match: flowtable.ExactMatch(key), Actions: []flowtable.Action{flowtable.Out(1)}},
			}, nil
		},
		NotifyFlowRemovedFunc: func(context.Context, []control.FlowRemoved) error { return control.ErrStopped },
	}
	h := dataplane.NewHost(dataplane.Config{
		PoolSize: 256, TXThreads: 1, Control: sb,
		FlowIdleTimeout: 20 * time.Millisecond, FlowSweepInterval: 2 * time.Millisecond,
	})
	if _, err := h.AddNF(svc, &nf.BatchAdapter{FnName: "noop", RO: true}, 0); err != nil {
		t.Fatal(err)
	}
	h.BindDefault(func(int, []byte, *dataplane.Desc) {})
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Stop)
	factory := traffic.NewFactory()
	const flows = 16
	for i := 1; i <= flows; i++ {
		frame, err := factory.Frame(traffic.Flow(i, 128, 0), 0)
		if err != nil {
			t.Fatal(err)
		}
		for h.Inject(0, frame) != nil {
			time.Sleep(5 * time.Microsecond)
		}
	}
	waitCond(t, func() bool { return h.Stats().TxPackets == flows }, "every flow delivered")
	// The sweeper counts a refusal after the eviction it reports, so wait
	// for both rather than reading the counters as soon as the table
	// empties.
	waitCond(t, func() bool {
		st := h.Stats()
		return st.Table.Rules == 0 && st.NoticesRefused == st.Table.Evicted()
	}, "all rules evicted and every notice refused")
	st := h.Stats()
	if st.Table.Evicted() != 2*flows || st.NoticesRefused != st.Table.Evicted() {
		t.Fatalf("evicted %d rules, %d notices refused; want %d each", st.Table.Evicted(), st.NoticesRefused, 2*flows)
	}
}

// TestFlowStateChurnNoLeak is the leak regression: waves of unique
// flows churn through install → idle-expire → evict, and after each
// wave drains the engine-owned FlowState must return to zero. Any
// eviction path that forgets to release state turns into monotonic
// growth and fails the final bound.
func TestFlowStateChurnNoLeak(t *testing.T) {
	total := 10_000
	if testing.Short() || raceEnabled {
		total = 1_000 // race scheduling makes full churn needlessly slow
	}
	rig := startFlowLifeRig(t, 15*time.Millisecond)
	factory := traffic.NewFactory()
	fs := rig.host.FlowState(rig.svc, 0)

	const wave = 250
	for base := 0; base < total; base += wave {
		for i := 1; i <= wave; i++ {
			rig.inject(t, factory, base+i)
		}
		// Every wave must drain completely: rules evicted, state freed.
		waitCond(t, func() bool { return rig.host.Stats().Table.Rules == 0 }, "wave evicted")
		waitCond(t, func() bool { return fs.Len() == 0 }, "wave state released")
	}
	st := rig.host.Stats().Table
	if st.Evicted() == 0 {
		t.Fatal("churn produced no evictions")
	}
	if st.Adds != uint64(st.Rules)+st.Deleted+st.Evicted() {
		t.Fatalf("identity broken after churn: %+v", st)
	}
	waitCond(t, func() bool { return rig.app.FlowsRemoved() == st.Evicted() }, "all notices delivered")
}
