package experiments

import (
	"strings"

	"sdnfv/internal/metrics"
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
}

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

	// Ant Detector: windowed per-flow rate/size classification (the same
	// policy as nfs.AntDetector, §5.2) steering flows between links.
	type flowState struct {
		bytes, packets float64
		winStart       float64
		isAnt          bool
	}
	states := map[uint64]*flowState{}
	dests := map[uint64]sim.Stage{}
	var antStart, antEnd float64
	classify := func(p *sim.Packet) sim.Stage {
		id := p.Key.Hash()
		st, ok := states[id]
		if !ok {
			st = &flowState{winStart: env.Now()}
			states[id] = st
			dests[id] = slow
		}
		st.bytes += float64(p.Bytes)
		st.packets++
		const window = 2.0 // paper: two-second observation interval
		if env.Now()-st.winStart >= window {
			rate := st.bytes * 8 / (env.Now() - st.winStart)
			meanSize := st.bytes / st.packets
			ant := rate <= 2e6 && meanSize <= 256
			if ant != st.isAnt {
				st.isAnt = ant
				if ant {
					dests[id] = fast // ChangeDefault to the fast path
					if antStart == 0 {
						antStart = env.Now()
					}
				} else {
					dests[id] = slow
					if antStart > 0 && antEnd == 0 {
						antEnd = env.Now()
					}
				}
			}
			st.winStart = env.Now()
			st.bytes, st.packets = 0, 0
		}
		return dests[id]
	}
	detector := sim.NewNFStage(env, 4096, func(*sim.Packet) sim.Time {
		return 200e-9
	}, classify)

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
	return res
}

func init() {
	register("fig8", func(seed int64) Result { return Fig8(seed) })
}
