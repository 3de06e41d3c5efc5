package experiments

import (
	"strings"
	"time"

	"sdnfv/internal/app"
	"sdnfv/internal/control"
	"sdnfv/internal/controller"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/reconcile"
	"sdnfv/internal/spec"
	"sdnfv/internal/traffic"
)

// ChurnResult is the flow-lifecycle experiment on the real engine: a
// long run of short-lived flows (plus a small persistent hot set)
// streams through the full app → controller → host hierarchy, booted
// through reconcile.Boot from a one-host spec with idle timeouts armed.
// Per-flow exact rules install on first packet and are reaped by the
// background sweeper once each flow goes quiet, so the live rule count
// plateaus far below the total number of distinct flows offered — the
// table is sized for concurrency, not history.
// After the drain the eviction accounting must be exact: the add/
// delete/evict identity holds, the engine-owned per-flow NF state is
// empty, and the app saw exactly one flow-removed notice per eviction.
type ChurnResult struct {
	Waves         []int
	DistinctSoFar []int
	LiveRules     []int
	EvictedSoFar  []uint64

	TotalFlows int
	HotFlows   int
	PeakLive   int
	LiveCap    int

	Adds        uint64
	Deleted     uint64
	EvictedIdle uint64
	EvictedHard uint64
	Notices     uint64
	FinalRules  int
	FinalState  int
	IdentityOK  bool
	NoticesOK   bool
	PlateauOK   bool
	DrainOK     bool
}

// Name implements Result.
func (*ChurnResult) Name() string { return "churn" }

// Render implements Result.
func (r *ChurnResult) Render() string {
	var b strings.Builder
	b.WriteString("Flow churn: per-flow rules vs idle eviction through the real engine\n")
	rows := make([][]string, 0, len(r.Waves))
	for i := range r.Waves {
		rows = append(rows, []string{
			f0(float64(r.Waves[i])), f0(float64(r.DistinctSoFar[i])),
			f0(float64(r.LiveRules[i])), f0(float64(r.EvictedSoFar[i])),
		})
	}
	b.WriteString(table([]string{"wave", "distinct flows", "live rules", "evicted"}, rows))
	b.WriteString("plateau: total-flows=" + f0(float64(r.TotalFlows)) +
		" hot=" + f0(float64(r.HotFlows)) +
		" peak-live-rules=" + f0(float64(r.PeakLive)) +
		" cap=" + f0(float64(r.LiveCap)) +
		" ok=" + boolStr(r.PlateauOK) + "\n")
	b.WriteString("drain: rules=" + f0(float64(r.FinalRules)) +
		" state=" + f0(float64(r.FinalState)) +
		" ok=" + boolStr(r.DrainOK) + "\n")
	b.WriteString("accounting: adds=" + f0(float64(r.Adds)) +
		" deleted=" + f0(float64(r.Deleted)) +
		" evicted-idle=" + f0(float64(r.EvictedIdle)) +
		" evicted-hard=" + f0(float64(r.EvictedHard)) +
		" notices=" + f0(float64(r.Notices)) +
		" identity=" + boolStr(r.IdentityOK) +
		" notices-match=" + boolStr(r.NoticesOK) +
		" ok=" + boolStr(r.IdentityOK && r.NoticesOK) + "\n")
	return b.String()
}

func boolStr(v bool) string {
	if v {
		return "true"
	}
	return "false"
}

// Churn runs the experiment (~1 s wall time). Seed varies the flow key
// population; the qualitative shape — bounded live rules, exact
// lifecycle accounting — is seed-independent.
func Churn(seed int64) *ChurnResult {
	const (
		svcMon  flowtable.ServiceID = 31
		hot                         = 16  // persistent flows re-offered every wave
		waves                       = 30  // one-shot flow generations
		perWave                     = 200 // fresh flows per wave
		idle                        = 60 * time.Millisecond
		waveGap                     = 15 * time.Millisecond
	)

	sp := &spec.Spec{
		Version: spec.Version, Name: "churn",
		Hosts: []spec.Host{{Name: "host1", Datapath: 1}},
		Services: []spec.Service{
			{Name: "mon", ID: svcMon, NF: "mon", ReadOnly: true, Placement: []string{"host1"}},
		},
		Edges: []spec.Edge{
			{From: spec.EndpointIngress, To: "mon", Default: true},
			{From: "mon", To: spec.EndpointEgress, Default: true},
		},
		Ingress:      spec.IngressSpec{Host: "host1", Port: 0},
		EgressPort:   1,
		FlowTimeouts: &spec.FlowTimeouts{IdleMs: int(idle / time.Millisecond)},
	}
	// The monitor pins per-flow state, making state leaks observable.
	reg := spec.NewNFRegistry()
	must(reg.Register("mon", func() nf.BatchFunction {
		return &nf.BatchAdapter{FnName: "mon", RO: true,
			ProcessBatchF: func(ctx *nf.Context, batch []nf.Packet, _ []nf.Decision) {
				for i := range batch {
					ctx.FlowState().Set(batch[i].Key, struct{}{})
				}
			}}
	}))

	// A per-flow app (exact rules, no deployment) behind this
	// experiment's controller resolves every new flow's first packet;
	// Boot hands the host that controller's session as its southbound.
	g, err := sp.Graph()
	must(err)
	a := app.New(app.Config{IngressPort: 0, EgressPort: 1})
	must(a.RegisterGraph(g))
	ctl := controller.New(controller.Config{Workers: 4})
	ctl.SetNorthbound(a)
	ctl.Start()
	defer ctl.Stop()

	c, err := reconcile.Boot(sp, reg, fastBoot, func(dp control.DatapathID) control.Southbound {
		return ctl.Session(dp)
	})
	must(err)
	defer c.Close()
	host := c.Hosts["host1"]

	factory := traffic.NewFactory()
	inject := func(id int) {
		frame, err := factory.Frame(traffic.Flow(id, 128, 0), 0)
		must(err)
		must(c.Inject(frame))
	}

	res := &ChurnResult{HotFlows: hot, TotalFlows: hot + waves*perWave}
	base := int(seed) * 1_000_000
	for w := 0; w < waves; w++ {
		for h := 0; h < hot; h++ {
			inject(base + h)
		}
		for i := 0; i < perWave; i++ {
			inject(base + hot + w*perWave + i)
		}
		time.Sleep(waveGap)
		st := host.Stats().Table
		res.Waves = append(res.Waves, w)
		res.DistinctSoFar = append(res.DistinctSoFar, hot+(w+1)*perWave)
		res.LiveRules = append(res.LiveRules, st.Rules)
		res.EvictedSoFar = append(res.EvictedSoFar, st.Evicted())
		if st.Rules > res.PeakLive {
			res.PeakLive = st.Rules
		}
	}

	// The app compiles a handful of rules per flow (port scope + service
	// scope); a flow stays live for roughly idle/waveGap waves after its
	// last packet, plus up to one sweeper tick. The cap leaves generous
	// slack for that and for slow CI machines — what matters is that it
	// is far below rules-for-every-flow-ever.
	wavesInFlight := int(idle/waveGap) + 4
	res.LiveCap = 4 * (hot + wavesInFlight*perWave)
	res.PlateauOK = res.PeakLive > 0 && res.PeakLive <= res.LiveCap

	// Quiesce: every flow (hot set included) idles out; the sweeper must
	// reap every rule and release every byte of per-flow NF state.
	c.Fabric.WaitIdle(5 * time.Second)
	fs := host.FlowState(svcMon, 0)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if host.Stats().Table.Rules == 0 && fs.Len() == 0 &&
			a.FlowsRemoved() == host.Stats().Table.Evicted() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	st := host.Stats().Table
	res.Adds, res.Deleted = st.Adds, st.Deleted
	res.EvictedIdle, res.EvictedHard = st.EvictedIdle, st.EvictedHard
	res.Notices = a.FlowsRemoved()
	res.FinalRules, res.FinalState = st.Rules, fs.Len()
	res.DrainOK = res.FinalRules == 0 && res.FinalState == 0
	res.IdentityOK = st.Adds == uint64(st.Rules)+st.Deleted+st.Evicted()
	res.NoticesOK = res.Notices == st.Evicted() && st.Evicted() > 0
	return res
}

func init() {
	register("churn", func(seed int64) Result { return Churn(seed) })
}
