package experiments

import (
	"strings"

	"sdnfv/internal/sim"
)

// Fig11Result is the dynamic video policy experiment (§5.3, Fig. 11): 400
// concurrent video flows (mean lifetime 40 s); between t=60 s and t=240 s
// policy requires all video traffic to pass the transcoder, which halves
// each flow's rate. SDNFV rewrites the defaults of existing flows
// (RequestMe + ChangeDefault), so output drops to the target almost
// immediately; the SDN controller only influences new flows, so its output
// converges with the slow time constant of flow turnover — and lags again
// when the policy lifts.
type Fig11Result struct {
	Times    []float64
	SDNFVOut []float64 // packets/s
	SDNOut   []float64
}

// Name implements Result.
func (*Fig11Result) Name() string { return "fig11" }

// Render implements Result.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 11: output rate under a policy change at t=60..240 s (packets/s)\n")
	rows := make([][]string, 0)
	for i := range r.Times {
		if int(r.Times[i])%15 != 0 {
			continue
		}
		rows = append(rows, []string{f0(r.Times[i]), f0(r.SDNFVOut[i]), f0(r.SDNOut[i])})
	}
	b.WriteString(table([]string{"t (s)", "SDNFV", "SDN"}, rows))
	return b.String()
}

// fig11Flow is one video session.
type fig11Flow struct {
	rate float64 // packets/s
	// throttled routes the flow through the transcoder (drops half).
	throttled bool
}

// fig11Run simulates one control design.
func fig11Run(seed int64, sdnfv bool) (times, out []float64) {
	env := sim.NewEnv(seed)
	const (
		nFlows       = 400
		meanLifetime = 40.0
		pktPerSec    = 20.0 // per-flow packet rate (scaled from testbed)
		policyOn     = 60.0
		policyOff    = 240.0
		horizon      = 350.0
	)
	throttling := func() bool {
		t := env.Now()
		return t >= policyOn && t < policyOff
	}

	flows := make(map[int]*fig11Flow, nFlows)
	nextID := 0
	var birth func()
	birth = func() {
		id := nextID
		nextID++
		// A new flow's first packets traverse the policy path in both
		// designs, so its throttle state always matches current policy.
		f := &fig11Flow{rate: pktPerSec, throttled: throttling()}
		flows[id] = f
		life := env.Exp(meanLifetime)
		env.After(life, func() {
			delete(flows, id)
			birth() // replaced by a fresh flow (constant population)
		})
	}
	for i := 0; i < nFlows; i++ {
		birth()
	}

	// Policy transitions: SDNFV pulls every active flow back through the
	// Policy Engine (RequestMe) and rewrites its default within one packet
	// round (~sub-second); the SDN design cannot touch established flows.
	applyAll := func(throttle bool) {
		for _, f := range flows {
			f.throttled = throttle
		}
	}
	if sdnfv {
		env.At(policyOn+0.5, func() { applyAll(true) })
		env.At(policyOff+0.5, func() { applyAll(false) })
	}

	env.Every(1.0, func() bool {
		rate := 0.0
		for _, f := range flows {
			r := f.rate
			if f.throttled {
				r /= 2 // transcoder drops every other packet
			}
			rate += r
		}
		times = append(times, env.Now())
		out = append(out, rate)
		return env.Now() < horizon
	})
	env.Run(horizon)
	return times, out
}

// Fig11 runs both designs on the same seed (same churn sequence).
func Fig11(seed int64) *Fig11Result {
	t1, sdnfvOut := fig11Run(seed, true)
	_, sdnOut := fig11Run(seed, false)
	return &Fig11Result{Times: t1, SDNFVOut: sdnfvOut, SDNOut: sdnOut}
}

func init() {
	register("fig11", func(seed int64) Result { return Fig11(seed) })
}
