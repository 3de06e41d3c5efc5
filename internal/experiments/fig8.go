package experiments

import (
	"fmt"
	"strings"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/metrics"
	"sdnfv/internal/nf"
	"sdnfv/internal/nfs"
	"sdnfv/internal/packet"
	"sdnfv/internal/sim"
	"sdnfv/internal/traffic"
)

// Fig8Result is the Ant Flow Detector experiment (§5.2, Fig. 8): two flows
// share a congested slow link; when Flow 1 drops its rate it is
// reclassified as an "ant" and its default path is changed to a fast link,
// cutting its latency — and relieving Flow 2 as well. When Flow 1 ramps
// back up it is reclassified as an elephant and returns to the slow link.
type Fig8Result struct {
	// Times (s) with per-second mean latency (µs) for each flow.
	Times []float64
	Flow1 []float64
	Flow2 []float64
	// AntWindow is [start, end) of the detected ant phase (reclassification
	// times observed in the run).
	AntWindow [2]float64
	// reclassifications counts the detector's verdict changes.
	reclassifications uint64
}

// The services of Fig. 8: the Ant Detector, and the slow and fast links
// its ChangeDefault messages choose between.
const (
	fig8Detector flowtable.ServiceID = iota + 1
	fig8Slow
	fig8Fast
)

// Name implements Result.
func (*Fig8Result) Name() string { return "fig8" }

// Render implements Result.
func (r *Fig8Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 8: ant-flow reclassification and latency (µs)\n")
	rows := make([][]string, 0, len(r.Times))
	for i := range r.Times {
		if int(r.Times[i])%10 != 0 { // print every 10 s for readability
			continue
		}
		rows = append(rows, []string{f0(r.Times[i]), f2(r.Flow1[i]), f2(r.Flow2[i])})
	}
	b.WriteString(table([]string{"t (s)", "Flow1 (µs)", "Flow2 (µs)"}, rows))
	b.WriteString("ant phase: [")
	b.WriteString(f2(r.AntWindow[0]))
	b.WriteString(", ")
	b.WriteString(f2(r.AntWindow[1]))
	b.WriteString("] s\n")
	fmt.Fprintf(&b, "reclassifications: %d\n", r.reclassifications)
	return b.String()
}

// Fig8 runs the experiment. Rates are scaled down ~100× from the paper's
// testbed (shape depends only on utilization ratios); the slow link runs
// near saturation when both flows are elephants.
func Fig8(seed int64) *Fig8Result {
	env := sim.NewEnv(seed)
	sink := sim.NewSink(env)

	// Slow link: 40 Mbps, 50 µs propagation. Fast link: 400 Mbps, 20 µs.
	slow := sim.NewLink(env, 40e6, 50e-6, 2048, sink)
	fast := sim.NewLink(env, 400e6, 20e-6, 2048, sink)

	// Flow 1: 64 B packets, high→low→high rate. Flow 2: 1024 B constant.
	f1 := traffic.Flow(1, 64, 0)
	f2k := traffic.Flow(2, 1024, 0)
	f1Profile := traffic.OnOffProfile{
		Times: []float64{0, 51, 105},
		Rates: []float64{12e6, 0.8e6, 12e6},
	}
	const f2Rate = 24e6

	// The Ant Detector NF (§5.2) classifies each flow over a two-second
	// window; its ChangeDefault messages move the flow between the links.
	links := map[flowtable.ServiceID]sim.Stage{fig8Slow: slow, fig8Fast: fast}
	dests := map[packet.FlowKey]sim.Stage{f1.Key: slow, f2k.Key: slow}
	var antStart, antEnd float64
	ant := &nfs.AntDetector{
		WindowSec: 2, Now: env.Now, AntBpsLimit: 2e6, SmallPacketBytes: 256,
		FastPath: fig8Fast, SlowPath: fig8Slow,
	}
	classify, err := newSimNF(ant, fig8Detector, func(m nf.Message) {
		if m.Kind != nf.MsgChangeDefault {
			return
		}
		dests[m.Flows.Key] = links[m.T]
		if m.T == fig8Fast && antStart == 0 {
			antStart = env.Now()
		} else if m.T == fig8Slow && antStart > 0 && antEnd == 0 {
			antEnd = env.Now()
		}
	})
	must(err)
	detector := sim.StageFunc(func(p *sim.Packet) {
		classify.process(p)
		dests[p.Key].Accept(p)
	})

	src1 := sim.NewCBRSource(env, f1.Key, 64, f1Profile.RateAt, detector)
	src2 := sim.NewCBRSource(env, f2k.Key, 1024, func(sim.Time) float64 { return f2Rate }, detector)
	src1.Start()
	src2.Start()

	// Per-second latency sampling.
	res := &Fig8Result{}
	lat1 := metrics.NewHistogram()
	lat2 := metrics.NewHistogram()
	sink.OnPacket = func(p *sim.Packet) {
		us := (env.Now() - p.Born) * 1e6
		if p.Key == f1.Key {
			lat1.Observe(us)
		} else {
			lat2.Observe(us)
		}
	}
	env.Every(1.0, func() bool {
		res.Times = append(res.Times, env.Now())
		res.Flow1 = append(res.Flow1, lat1.Mean())
		res.Flow2 = append(res.Flow2, lat2.Mean())
		lat1 = metrics.NewHistogram()
		lat2 = metrics.NewHistogram()
		return true
	})

	env.Run(180)
	src1.Stop()
	src2.Stop()
	if antEnd == 0 {
		antEnd = 180
	}
	res.AntWindow = [2]float64{antStart, antEnd}
	res.reclassifications = ant.Reclassifications()
	return res
}

func init() {
	register("fig8", func(seed int64) Result { return Fig8(seed) })
}
