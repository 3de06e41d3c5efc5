package experiments

import (
	"strings"
	"sync/atomic"
	"time"

	"sdnfv/internal/autoscale"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/metrics"
	"sdnfv/internal/nf"
	"sdnfv/internal/orchestrator"
	"sdnfv/internal/packet"
	"sdnfv/internal/traffic"
)

// ScaleResult is the dynamic NF scaling experiment: a load ramp against
// the REAL engine (not the simulator) with the autoscale policy loop
// closed over the manager's per-replica telemetry. The offered rate
// triples past a single replica's capacity, the controller boots
// replicas through the orchestrator (standby fast path), latency
// recovers, and once the ramp subsides the controller retires the extra
// replicas through the flow-state-safe drain. Because it runs in wall
// time its series are not bit-repeatable, but its qualitative shape —
// scale-up under pressure, scale-down after, per-flow state intact — is
// what the paper's §5 scenarios claim and what the test asserts.
type ScaleResult struct {
	Times      []float64
	OfferedPps []float64
	Replicas   []int
	Backlog    []int
	P95Us      []float64

	// UpAt is the first scale-up decision, DownAt the last scale-down.
	UpAt, DownAt float64
	// PeakReplicas/FinalReplicas bracket the elasticity excursion.
	PeakReplicas, FinalReplicas int
	// Delivered counts packets that exited; Overflows counts packets
	// shed while under-provisioned.
	Delivered, Overflows uint64
	// FlowsTracked/FlowsTotal report per-flow NF state surviving the
	// transitions; StateCoverage is (state-counted packets)/Delivered.
	FlowsTracked, FlowsTotal int
	StateCoverage            float64
	// HighP95Before/HighP95After compare p95 latency in the overloaded
	// window right after the ramp starts vs right before it ends (µs).
	HighP95Before, HighP95After float64
}

// Name implements Result.
func (*ScaleResult) Name() string { return "scale" }

// Render implements Result.
func (r *ScaleResult) Render() string {
	var b strings.Builder
	b.WriteString("Dynamic NF scaling: load ramp vs replica count and p95 latency (real engine)\n")
	rows := make([][]string, 0, len(r.Times))
	for i := range r.Times {
		rows = append(rows, []string{
			f2(r.Times[i]), f0(r.OfferedPps[i] / 1e3), f0(float64(r.Replicas[i])),
			f0(float64(r.Backlog[i])), f0(r.P95Us[i]),
		})
	}
	b.WriteString(table([]string{"t (s)", "offered (kpps)", "replicas", "backlog", "p95 (us)"}, rows))
	b.WriteString("scale-up at " + f2(r.UpAt) + " s, last scale-down at " + f2(r.DownAt) +
		" s; peak replicas " + f0(float64(r.PeakReplicas)) +
		", final " + f0(float64(r.FinalReplicas)) + "\n")
	b.WriteString("overload p95: " + f0(r.HighP95Before) + " us before scaling, " +
		f0(r.HighP95After) + " us after\n")
	b.WriteString("flow state after both transitions: " + f0(float64(r.FlowsTracked)) + "/" +
		f0(float64(r.FlowsTotal)) + " flows tracked, coverage " +
		f2(r.StateCoverage*100) + "% of delivered\n")
	return b.String()
}

// scaleWorker is the scaled NF: it blocks for a fixed per-packet service
// time (one sleep per burst, so replica capacity is known and replicas
// genuinely parallelize even on a single-core machine — sleeping
// replicas overlap, spinning ones would just timeshare) and counts
// packets per flow in the engine-owned store (so state survival across
// scaling is observable).
type scaleWorker struct{ serviceNs int64 }

// Name implements nf.BatchFunction.
func (*scaleWorker) Name() string { return "scale-worker" }

// ReadOnly implements nf.BatchFunction.
func (*scaleWorker) ReadOnly() bool { return true }

// ProcessBatch implements nf.BatchFunction.
func (w *scaleWorker) ProcessBatch(ctx *nf.Context, batch []nf.Packet, _ []nf.Decision) {
	fs := ctx.FlowState()
	for i := range batch {
		prev, _ := fs.Get(batch[i].Key)
		n, _ := prev.(uint64)
		fs.Set(batch[i].Key, n+1)
	}
	time.Sleep(time.Duration(int64(len(batch)) * w.serviceNs))
}

// Scale runs the experiment (~2 s wall time).
func Scale(seed int64) *ScaleResult {
	const (
		svcWorker   flowtable.ServiceID = 1
		flows                           = 32
		serviceNs                       = 100_000 // ~10k pps per replica at full bursts
		lowPps                          = 2_000
		highPps                         = 30_000 // needs ~3-4 replicas
		phaseLow1                       = 0.25
		phaseHigh                       = 0.80
		phaseLow2                       = 0.70
		maxReplicas                     = 4
		sampleEvery                     = 0.05
	)

	host := dataplane.NewHost(dataplane.Config{
		PoolSize: 8192, RingSize: 512,
		LoadBalancer: dataplane.LBFlowHash,
	})
	var delivered atomic.Uint64
	var winHist atomic.Pointer[metrics.Histogram]
	winHist.Store(metrics.NewHistogram())
	host.BindDefault(func(_ int, _ []byte, d *dataplane.Desc) {
		delivered.Add(1)
		winHist.Load().Observe(float64(time.Now().UnixNano() - d.ArrivalNanos))
	})
	mustRule := func(r flowtable.Rule) {
		if _, err := host.Table().Add(r); err != nil {
			panic(err)
		}
	}
	mustRule(flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
		Actions: []flowtable.Action{flowtable.Forward(svcWorker)}})
	mustRule(flowtable.Rule{Scope: svcWorker, Match: flowtable.MatchAll,
		Actions: []flowtable.Action{flowtable.Out(1)}})
	if _, err := host.AddNF(svcWorker, &scaleWorker{serviceNs: serviceNs}, 0); err != nil {
		panic(err)
	}
	if err := host.Start(); err != nil {
		panic(err)
	}
	defer host.Stop()

	// Control hierarchy: orchestrator with a standby pool (fast boots,
	// §5.2), autoscale policy loop over the manager's telemetry.
	clock := autoscale.NewRealClock()
	orch := orchestrator.New(orchestrator.Config{
		BootDelaySec: 0.5, StandbyDelaySec: 0.01, Standby: maxReplicas,
	}, clock)
	orch.AddHost(dataplane.NamedHost{Name: "host1", Host: host})
	ctrl := autoscale.New(autoscale.Config{
		Min: 1, Max: maxReplicas,
		UpBacklog: 64, DownBacklog: 8,
		UpStreak: 1, DownStreak: 4,
		IntervalSec: 0.01, CooldownSec: 0.05,
	},
		autoscale.ServiceSource{Host: host, Service: svcWorker, Orch: orch},
		autoscale.OrchestratorActuator{
			Orch: orch, HostName: "host1", Host: host, Service: svcWorker,
			NewNF: func() nf.BatchFunction { return &scaleWorker{serviceNs: serviceNs} },
		}, clock)
	ctrl.Start()
	defer ctrl.Stop()

	// Pre-built frames, one per flow (seed varies the flow keys).
	factory := traffic.NewFactory()
	frames := make([][]byte, flows)
	for f := range frames {
		spec := traffic.Flow(int(seed)*flows+f, 512, 0)
		raw, err := factory.Frame(spec, 0)
		if err != nil {
			panic(err)
		}
		frames[f] = append([]byte(nil), raw...)
	}

	res := &ScaleResult{FlowsTotal: flows, PeakReplicas: 1, FinalReplicas: 1}
	rateAt := func(t float64) float64 {
		switch {
		case t < phaseLow1:
			return lowPps
		case t < phaseLow1+phaseHigh:
			return highPps
		case t < phaseLow1+phaseHigh+phaseLow2:
			return lowPps
		default:
			return 0
		}
	}
	sample := func(now float64) {
		reps := host.ReplicaStats(svcWorker)
		backlog := 0
		for _, r := range reps {
			backlog += r.QueueDepth
		}
		h := winHist.Swap(metrics.NewHistogram())
		res.Times = append(res.Times, now)
		res.OfferedPps = append(res.OfferedPps, rateAt(now))
		res.Replicas = append(res.Replicas, len(reps))
		res.Backlog = append(res.Backlog, backlog)
		res.P95Us = append(res.P95Us, h.Quantile(0.95)/1e3)
		if len(reps) > res.PeakReplicas {
			res.PeakReplicas = len(reps)
		}
	}

	// Drive the ramp: keep cumulative injections on the rate integral,
	// sampling telemetry every 50 ms.
	start := time.Now()
	var sent, cum float64
	nextSample := sampleEvery
	lastT := 0.0
	for {
		now := time.Since(start).Seconds()
		if now >= phaseLow1+phaseHigh+phaseLow2 {
			break
		}
		cum += rateAt(lastT) * (now - lastT)
		lastT = now
		for sent < cum {
			f := int(sent) % flows
			_ = host.Inject(0, frames[f]) // failures count as shed load
			sent++
		}
		for now >= nextSample {
			sample(now)
			nextSample += sampleEvery
		}
		time.Sleep(200 * time.Microsecond)
	}

	// Tail: let the queue drain and the controller shrink back to Min.
	host.WaitIdle(5 * time.Second)
	tailDeadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(tailDeadline) {
		now := time.Since(start).Seconds()
		if now >= nextSample {
			sample(now)
			nextSample += sampleEvery
		}
		if len(host.ReplicaStats(svcWorker)) == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	sample(time.Since(start).Seconds())
	ctrl.Stop()

	res.FinalReplicas = len(host.ReplicaStats(svcWorker))
	res.Delivered = delivered.Load()
	res.Overflows = host.Stats().Overflows
	for _, ev := range ctrl.Events() {
		switch ev.Decision {
		case autoscale.Up:
			if res.UpAt == 0 {
				res.UpAt = ev.At
			}
		case autoscale.Down:
			res.DownAt = ev.At
		}
	}

	// Per-flow state after both transitions: every flow tracked, counts
	// covering (nearly) all delivered packets. Live transitions may lose
	// a handful of counts in the copy window (see README); quiesced
	// transitions are exact.
	var stateSum uint64
	seen := map[packet.FlowKey]bool{}
	for _, rs := range host.ReplicaStats(svcWorker) {
		host.FlowState(svcWorker, rs.Index).Range(func(k packet.FlowKey, v any) bool {
			stateSum += v.(uint64)
			seen[k] = true
			return true
		})
	}
	res.FlowsTracked = len(seen)
	if res.Delivered > 0 {
		res.StateCoverage = float64(stateSum) / float64(res.Delivered)
	}

	// Overload p95 before vs after the replicas came online: first and
	// last sampled windows inside the high phase.
	for i, tm := range res.Times {
		if tm >= phaseLow1+2*sampleEvery && tm < phaseLow1+phaseHigh {
			if res.HighP95Before == 0 {
				res.HighP95Before = res.P95Us[i]
			}
			res.HighP95After = res.P95Us[i]
		}
	}
	return res
}

func init() {
	register("scale", func(seed int64) Result { return Scale(seed) })
}
