package experiments

import (
	"strings"

	"sdnfv/internal/sim"
	"sdnfv/internal/traffic"
)

// Fig1Result is the OVS + controller bottleneck experiment (Fig. 1):
// maximum lossless throughput vs the percentage of packets that must
// consult the SDN controller, for 256 B and 1000 B packets.
type Fig1Result struct {
	// Pcts is the x axis (percent of packets punted).
	Pcts []float64
	// Gbps1000 and Gbps256 are the measured max throughputs.
	Gbps1000 []float64
	Gbps256  []float64
}

// Name implements Result.
func (*Fig1Result) Name() string { return "fig1" }

// Render implements Result.
func (r *Fig1Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 1: max throughput vs % packets to SDN controller\n")
	rows := make([][]string, len(r.Pcts))
	for i := range r.Pcts {
		rows[i] = []string{f0(r.Pcts[i]), f2(r.Gbps1000[i]), f2(r.Gbps256[i])}
	}
	b.WriteString(table([]string{"% to ctrl", "1000B (Gbps)", "256B (Gbps)"}, rows))
	return b.String()
}

// fig1Config mirrors the paper's testbed: a 10 GbE port, an OVS-class
// software switch, and a single-threaded POX-class controller.
type fig1Config struct {
	lineRateGbps float64
	// switchPps is the software switch's forwarding capacity.
	switchPps float64
	// ctrlService is the controller's per-request processing time
	// (POX, single python thread: O(10⁻⁴) s).
	ctrlService float64
	ctrlRTT     float64
}

func defaultFig1Config() fig1Config {
	return fig1Config{
		lineRateGbps: 10,
		switchPps:    4.8e6, // OVS kernel path, single box
		ctrlService:  180e-6,
		ctrlRTT:      200e-6,
	}
}

// fig1MaxThroughput finds, by bisection on offered load, the highest
// throughput sustained with <1% loss for the given packet size and punt
// fraction.
func fig1MaxThroughput(cfg fig1Config, seed int64, pktBytes int, missFrac float64) float64 {
	lossAt := func(offeredGbps float64) float64 {
		env := sim.NewEnv(seed)
		sink := sim.NewSink(env)
		ctrl := sim.NewControllerModel(env, cfg.ctrlService, cfg.ctrlRTT, 512)
		sw := sim.NewOVSSwitch(env, cfg.switchPps, missFrac, ctrl, sink)
		key := traffic.Flow(0, pktBytes, 0).Key
		src := sim.NewCBRSource(env, key, pktBytes, func(sim.Time) float64 {
			return offeredGbps * 1e9
		}, sw)
		src.Start()
		const horizon = 0.12 // seconds of simulated traffic
		env.Run(horizon)
		src.Stop()
		env.Run(horizon + 0.05) // drain
		sent := float64(src.Emitted.Value())
		got := float64(sink.Packets.Value())
		if sent == 0 {
			return 0
		}
		return 1 - got/sent
	}
	// "Max throughput" is the highest offered rate the system sustains
	// near-losslessly (0.2% tolerance covers drain-window edge effects).
	lo, hi := 0.0, cfg.lineRateGbps
	for iter := 0; iter < 9; iter++ {
		mid := (lo + hi) / 2
		if lossAt(mid) < 0.002 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Fig1 runs the experiment.
func Fig1(seed int64) *Fig1Result {
	cfg := defaultFig1Config()
	pcts := []float64{0, 1, 2, 5, 10, 15, 20, 25}
	res := &Fig1Result{Pcts: pcts}
	for _, p := range pcts {
		res.Gbps1000 = append(res.Gbps1000, fig1MaxThroughput(cfg, seed, 1000, p/100))
		res.Gbps256 = append(res.Gbps256, fig1MaxThroughput(cfg, seed, 256, p/100))
	}
	return res
}

func init() {
	register("fig1", func(seed int64) Result { return Fig1(seed) })
}
