package experiments

import (
	"strings"

	"sdnfv/internal/sim"
)

// Fig10Result is the flow-setup scalability comparison (§5.3, Fig. 10):
// completed flow setups per second versus offered new-flow rate. In the
// SDN design the controller must see the first two packets of every flow
// (connection ACK + HTTP reply) before installing a rule; in SDNFV only
// the first packet's header goes to the controller while the Video
// Detector and Policy Engine decide locally.
type Fig10Result struct {
	OfferedPerSec []float64
	SDNFVOut      []float64
	SDNOut        []float64
}

// Name implements Result.
func (*Fig10Result) Name() string { return "fig10" }

// Render implements Result.
func (r *Fig10Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 10: completed flow setups/s vs offered new flows/s\n")
	rows := make([][]string, len(r.OfferedPerSec))
	for i := range r.OfferedPerSec {
		rows[i] = []string{f0(r.OfferedPerSec[i]), f0(r.SDNFVOut[i]), f0(r.SDNOut[i])}
	}
	b.WriteString(table([]string{"new flows/s", "SDNFV", "SDN"}, rows))
	return b.String()
}

// fig10Run measures completed setups/s at one offered rate.
//
// SDN mode: every new flow costs the single-threaded controller one unit
// of work covering its first two packets (the connection ACK and the HTTP
// reply both traverse the controller, which hosts the Video Detector and
// Policy Engine); flows arriving to a full controller queue are lost. The
// controller therefore plateaus near 1/serviceTime ≈ 1100 flows/s. SDNFV
// mode: flow decisions are made by local NFs at data-plane speed, so the
// pipeline sustains ≈9× that rate (the paper's measured gap) before the
// controller becomes the next bottleneck.
func fig10Run(seed int64, offered float64, sdnfv bool) float64 {
	env := sim.NewEnv(seed)
	completed := 0

	// POX-class controller: ~0.9 ms of work per new flow, single server.
	ctrl := sim.NewControllerModel(env, 900e-6, 200e-6, 256)
	// Local NF pipeline: Video Detector + Policy Engine at data-plane
	// speed.
	nfPipeline := sim.NewQueue(env, 4096)
	const nfSetupCost = 100e-6 // two local NF decisions per flow

	const horizon = 4.0
	count := func() {
		if env.Now() <= horizon {
			completed++
		}
	}
	arrive := func() {
		if sdnfv {
			nfPipeline.Offer(nfSetupCost, count)
			return
		}
		// A full controller queue loses the flow (control.ErrQueueFull).
		_ = ctrl.Submit(count)
	}

	interval := 1 / offered
	var schedule func()
	t := 0.0
	schedule = func() {
		arrive()
		t += interval
		if t < horizon {
			env.After(interval, schedule)
		}
	}
	env.After(0, schedule)
	env.Run(horizon + 1) // drain
	return float64(completed) / horizon
}

// Fig10 runs the sweep.
func Fig10(seed int64) *Fig10Result {
	res := &Fig10Result{
		OfferedPerSec: []float64{250, 500, 1000, 2000, 4000, 6000, 8000, 10000, 12000},
	}
	for _, r := range res.OfferedPerSec {
		res.SDNFVOut = append(res.SDNFVOut, fig10Run(seed, r, true))
		res.SDNOut = append(res.SDNOut, fig10Run(seed, r, false))
	}
	return res
}

func init() {
	register("fig10", func(seed int64) Result { return Fig10(seed) })
}
