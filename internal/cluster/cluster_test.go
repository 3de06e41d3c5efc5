package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdnfv/internal/app"
	"sdnfv/internal/control"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/nf"
	"sdnfv/internal/traffic"
)

const (
	dpLeft  control.DatapathID  = 1
	dpRight control.DatapathID  = 2
	svcL    flowtable.ServiceID = 10
	svcR    flowtable.ServiceID = 20
)

// tally counts packets per flow in the engine-owned store.
type tally struct{}

func (tally) Name() string   { return "tally" }
func (tally) ReadOnly() bool { return true }
func (tally) ProcessBatch(ctx *nf.Context, batch []nf.Packet, _ []nf.Decision) {
	fs := ctx.FlowState()
	for i := range batch {
		prev, _ := fs.Get(batch[i].Key)
		n, _ := prev.(uint64)
		fs.Set(batch[i].Key, n+1)
	}
}

// twoHostFabric builds left(svcL) → link → right(svcR) → egress with the
// app compiler producing both host tables from one global graph.
func twoHostFabric(t *testing.T) (*Fabric, *app.Deployment, map[control.DatapathID]*dataplane.Host) {
	t.Helper()
	g := graph.New("two-host")
	if err := g.AddVertex(graph.Vertex{Service: svcL, Name: "left", ReadOnly: true}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddVertex(graph.Vertex{Service: svcR, Name: "right", ReadOnly: true}); err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		from, to flowtable.ServiceID
	}{{graph.Source, svcL}, {svcL, svcR}, {svcR, graph.Sink}} {
		if err := g.AddEdge(e.from, e.to, true); err != nil {
			t.Fatal(err)
		}
	}

	f := New()
	hosts := map[control.DatapathID]*dataplane.Host{}
	for _, dp := range []control.DatapathID{dpLeft, dpRight} {
		h := dataplane.NewHost(dataplane.Config{PoolSize: 1024, RingSize: 256, TXThreads: 1})
		hosts[dp] = h
		if err := f.AddHost(dp, "h", h); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Link(dpLeft, 2, dpRight, 2); err != nil {
		t.Fatal(err)
	}
	dep := &app.Deployment{
		Graph:   g,
		Assign:  map[flowtable.ServiceID]control.DatapathID{svcL: dpLeft, svcR: dpRight},
		Ingress: dpLeft, IngressPort: 0, EgressPort: 1,
		Channels: map[app.HostPair][]app.Channel{
			{Src: dpLeft, Dst: dpRight}: {{Out: 2, In: 2}},
		},
	}
	tables, err := dep.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for dp, rules := range tables {
		if _, err := f.ReplaceRules(dp, nil, rules); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := hosts[dpLeft].AddNF(svcL, tally{}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := hosts[dpRight].AddNF(svcR, tally{}, 0); err != nil {
		t.Fatal(err)
	}
	return f, dep, hosts
}

// TestTwoHostAccounting drives concurrent traffic through a 2-host
// fabric under the race detector and requires exact packet accounting on
// both hosts: every admitted frame lands in exactly one of tx / drops /
// overflows / txdrops / rxdrops, frames refused between hosts are the
// link's drops, and neither pool leaks a buffer.
func TestTwoHostAccounting(t *testing.T) {
	f, _, hosts := twoHostFabric(t)
	var delivered atomic.Uint64
	hosts[dpRight].BindPort(1, func(_ int, _ []byte, _ *dataplane.Desc) { delivered.Add(1) })
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	const (
		injectors = 4
		perInj    = 2000
	)
	var sent atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < injectors; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			factory := traffic.NewFactory()
			for i := 0; i < perInj; i++ {
				frame, err := factory.Frame(traffic.Flow(w*64+i%16, 256, 0), 0)
				if err != nil {
					t.Error(err)
					return
				}
				for {
					if err := hosts[dpLeft].Inject(0, frame); err == nil {
						sent.Add(1)
						break
					}
					time.Sleep(time.Microsecond)
				}
			}
		}(w)
	}
	wg.Wait()
	if !f.WaitIdle(10 * time.Second) {
		t.Fatalf("cluster not idle: %+v / %+v", hosts[dpLeft].Pool().Stats(), hosts[dpRight].Pool().Stats())
	}

	want := uint64(injectors * perInj)
	if sent.Load() != want {
		t.Fatalf("sent %d, want %d", sent.Load(), want)
	}
	link := f.Links()[0]
	ls := link.Stats()
	for dp, h := range hosts {
		st := h.Stats()
		if !st.Conserved() {
			t.Fatalf("host %s accounting: rx=%d tx=%d drops=%d overflows=%d txdrops=%d rxdrops=%d",
				dp, st.RxPackets, st.TxPackets, st.Drops, st.Overflows, st.TxDrops, st.RxDrops)
		}
		if st.Pool.InUse != 0 {
			t.Fatalf("host %s pool leak: %+v", dp, st.Pool)
		}
	}
	l, r := hosts[dpLeft].Stats(), hosts[dpRight].Stats()
	// Everything admitted on the left either crossed the link or was
	// shed before the link; everything that crossed was admitted on the
	// right (the link counts its own refusals).
	if l.RxPackets != want {
		t.Fatalf("left rx=%d, want %d", l.RxPackets, want)
	}
	crossed := l.TxPackets // left's only egress is the link port
	if ls.TxFrames+ls.Drops != crossed {
		t.Fatalf("link frames %d + drops %d != left tx %d", ls.TxFrames, ls.Drops, crossed)
	}
	if r.RxPackets != ls.TxFrames {
		t.Fatalf("right rx=%d, link delivered %d", r.RxPackets, ls.TxFrames)
	}
	if got := delivered.Load(); got != r.TxPackets {
		t.Fatalf("delivered %d != right tx %d", got, r.TxPackets)
	}
}

// TestUpdateDefaultConstrained verifies the downstream applier refuses
// an action the host's rules do not already list (§3.4).
func TestUpdateDefaultConstrained(t *testing.T) {
	f, _, hosts := twoHostFabric(t)
	_ = hosts
	// svcL's rule lists only the link egress; forwarding to svcR locally
	// is not an installed action on the left host.
	if err := f.UpdateDefault(dpLeft, svcL, flowtable.MatchAll, flowtable.Forward(svcR)); err == nil {
		t.Fatal("constrained update accepted an unlisted action")
	}
	// The listed action is accepted.
	link := f.Links()[0]
	if err := f.UpdateDefault(dpLeft, svcL, flowtable.MatchAll, flowtable.Out(link.OutPort)); err != nil {
		t.Fatal(err)
	}
	if err := f.UpdateDefault(99, svcL, flowtable.MatchAll, flowtable.Drop()); err == nil {
		t.Fatal("unknown datapath accepted")
	}
}

// TestKillHost is the chaos primitive's contract: the victim goes dead
// (Alive false, Start will not revive it), frames wired toward it count
// as link drops instead of vanishing, and the survivor's exact
// accounting still holds.
func TestKillHost(t *testing.T) {
	f, _, hosts := twoHostFabric(t)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	if !f.Alive(dpLeft) || !f.Alive(dpRight) {
		t.Fatal("fresh hosts not alive")
	}
	if err := f.KillHost(dpRight); err != nil {
		t.Fatal(err)
	}
	if f.Alive(dpRight) {
		t.Fatal("killed host still alive")
	}
	if err := f.KillHost(dpRight); err == nil {
		t.Fatal("double kill accepted")
	}
	if err := f.KillHost(99); err == nil {
		t.Fatal("unknown victim accepted")
	}

	// Traffic still enters the survivor; the dead peer refuses delivery
	// and the wire counts every refusal.
	factory := traffic.NewFactory()
	const n = 200
	sent := 0
	for i := 0; i < n; i++ {
		frame, err := factory.Frame(traffic.Flow(i%16, 256, 0), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := hosts[dpLeft].Inject(0, frame); err == nil {
			sent++
		}
	}
	if !f.WaitIdle(10 * time.Second) {
		t.Fatalf("survivor not idle: %+v", hosts[dpLeft].Pool().Stats())
	}
	l := hosts[dpLeft].Stats()
	if !l.Conserved() {
		t.Fatalf("survivor accounting: %+v", l)
	}
	ls := f.Links()[0].Stats()
	if ls.TxFrames != 0 {
		t.Fatalf("dead host accepted %d frames", ls.TxFrames)
	}
	if ls.Drops != l.TxPackets {
		t.Fatalf("link drops %d != survivor tx %d", ls.Drops, l.TxPackets)
	}

	// Start skips the corpse (and must not error on a half-dead fabric).
	hosts[dpLeft].Stop()
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
}

// TestReplaceRules swaps a host's installed rule set atomically enough
// for the reconciler: old ids gone, new rules in force, returned ids
// usable for the next swap.
func TestReplaceRules(t *testing.T) {
	f, _, hosts := twoHostFabric(t)
	tbl := hosts[dpLeft].Table()
	before := tbl.Len()

	ids, err := f.ReplaceRules(dpLeft, nil, []flowtable.Rule{
		{Scope: flowtable.Port(7), Match: flowtable.MatchAll, Actions: []flowtable.Action{flowtable.Forward(svcL)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || tbl.Len() != before+1 {
		t.Fatalf("install: ids=%v len=%d (before %d)", ids, tbl.Len(), before)
	}

	ids2, err := f.ReplaceRules(dpLeft, ids, []flowtable.Rule{
		{Scope: flowtable.Port(8), Match: flowtable.MatchAll, Actions: []flowtable.Action{flowtable.Forward(svcL)}},
		{Scope: flowtable.Port(9), Match: flowtable.MatchAll, Actions: []flowtable.Action{flowtable.Forward(svcL)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids2) != 2 || tbl.Len() != before+2 {
		t.Fatalf("swap: ids=%v len=%d (before %d)", ids2, tbl.Len(), before)
	}
	// Deleting already-deleted ids is tolerated; emptying works.
	if _, err := f.ReplaceRules(dpLeft, append(ids, ids2...), nil); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != before {
		t.Fatalf("clear left %d rules, want %d", tbl.Len(), before)
	}
	if _, err := f.ReplaceRules(99, nil, nil); err == nil {
		t.Fatal("unknown datapath accepted")
	}
}
