package experiments

import (
	"context"
	"fmt"
	"strings"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/nfs"
	"sdnfv/internal/orchestrator"
	"sdnfv/internal/sim"
	"sdnfv/internal/traffic"
)

// Fig9Result is the DDoS detection and mitigation experiment (§5.2,
// Fig. 9): a detector VM aggregates traffic across flows; when incoming
// volume crosses the threshold it alarms through the Message channel, the
// orchestrator boots a Scrubber VM (≈7.75 s), the scrubber issues
// RequestMe, and outgoing traffic returns to the normal level while the
// attack keeps rising.
type Fig9Result struct {
	Times    []float64
	Incoming []float64 // Gbps
	Outgoing []float64 // Gbps
	// DetectedAt is when the alarm fired; ScrubberAt when the new VM came
	// online.
	DetectedAt, ScrubberAt float64
	// alarms counts the detector's alarms; dropped and passed the
	// Scrubber's verdicts.
	alarms, dropped, passed uint64
}

// Name implements Result.
func (*Fig9Result) Name() string { return "fig9" }

// Render implements Result.
func (r *Fig9Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 9: DDoS detection and scrubbing (Gbps)\n")
	rows := make([][]string, 0)
	for i := range r.Times {
		if int(r.Times[i])%10 != 0 {
			continue
		}
		rows = append(rows, []string{f0(r.Times[i]), f2(r.Incoming[i]), f2(r.Outgoing[i])})
	}
	b.WriteString(table([]string{"t (s)", "Incoming", "Outgoing"}, rows))
	b.WriteString("detected at " + f2(r.DetectedAt) + " s; scrubber online at " + f2(r.ScrubberAt) + " s\n")
	fmt.Fprintf(&b, "alarms: %d; scrubber dropped %d, passed %d\n", r.alarms, r.dropped, r.passed)
	return b.String()
}

// The services of Fig. 9.
const (
	fig9Detector flowtable.ServiceID = iota + 1
	fig9Scrubber
)

// Fig9 runs the experiment. Rates are scaled 1:100 against the paper's
// Gbps axis (reported values are scaled back), preserving the threshold
// crossing time and the mitigation shape.
func Fig9(seed int64) *Fig9Result {
	const scale = 100.0 // sim bps × scale = reported bps
	env := sim.NewEnv(seed)
	sink := sim.NewSink(env)
	inMeter := &rateAccum{}
	outMeter := &rateAccum{}
	res := &Fig9Result{}

	// Normal traffic: constant 500 Mbps (paper units). Attack: starts low
	// at t=30 s and ramps up steadily past the threshold.
	normal := traffic.Flow(1, 1000, 0)
	attack := traffic.Flow(2, 1000, 0)

	// The Scrubber NF drops the attack flow. Its launch-time RequestMe
	// makes it the default next hop of the detector's traffic.
	var scrubber *simNF
	var rerouted bool
	scrub := &nfs.Scrubber{
		Malicious:     func(p *nf.Packet) bool { return p.Key == attack.Key },
		AnnounceFlows: &flowtable.MatchAll,
	}
	orch := orchestrator.New(orchestrator.Config{BootDelaySec: 7.75}, env)
	orch.AddHost(simHost(func(svc flowtable.ServiceID, fn nf.BatchFunction) (err error) {
		scrubber, err = newSimNF(fn, svc, func(m nf.Message) {
			if m.Kind == nf.MsgRequestMe {
				rerouted = true
				res.ScrubberAt = env.Now()
			}
		})
		return err
	}))

	// The DDoS Detector NF watches the aggregate volume over a one-second
	// window and alarms once at the threshold (3.2 Gbps in paper units):
	// Message → NF Manager → SDNFV Application → the orchestrator boots
	// the Scrubber (Fig. 2 step 5) with the paper's measured 7.75 s delay.
	ddos := &nfs.DDoSDetector{ThresholdBps: 3.2e9 / scale, WindowSec: 1, Now: env.Now}
	detect, err := newSimNF(ddos, fig9Detector, func(m nf.Message) {
		if m.Kind == nf.MsgData && m.Key == "ddos.alarm" {
			res.DetectedAt = env.Now()
			must(orch.Instantiate(context.Background(), "host1", fig9Scrubber, scrub, nil))
		}
	})
	must(err)
	detector := sim.StageFunc(func(p *sim.Packet) {
		inMeter.add(p.Bytes)
		detect.process(p)
		if rerouted && scrubber.process(p).Verb == nf.VerbDiscard {
			return
		}
		outMeter.add(p.Bytes)
		sink.Accept(p)
	})

	normSrc := sim.NewCBRSource(env, normal.Key, 1000, func(sim.Time) float64 {
		return 500e6 / scale
	}, detector)
	ramp := traffic.RampProfile{
		Times: []float64{30, 200},
		Rates: []float64{0.2e9 / scale, 4.5e9 / scale},
	}
	attackSrc := sim.NewCBRSource(env, attack.Key, 1000, func(t sim.Time) float64 {
		if t < 30 {
			return 0
		}
		return ramp.RateAt(t)
	}, detector)
	normSrc.Start()
	attackSrc.Start()

	env.Every(1.0, func() bool {
		res.Times = append(res.Times, env.Now())
		res.Incoming = append(res.Incoming, inMeter.takeRate(env.Now())*scale/1e9)
		res.Outgoing = append(res.Outgoing, outMeter.takeRate(env.Now())*scale/1e9)
		return true
	})
	env.Run(200)
	normSrc.Stop()
	attackSrc.Stop()
	res.alarms = ddos.Alarms()
	res.dropped, res.passed = scrub.Dropped(), scrub.Passed()
	return res
}

// rateAccum integrates bytes between samples.
type rateAccum struct {
	bytes float64
	last  float64
}

func (r *rateAccum) add(b int) { r.bytes += float64(b) }

// takeRate returns bits/s since the previous sample and resets.
func (r *rateAccum) takeRate(now float64) float64 {
	dt := now - r.last
	if dt <= 0 {
		return 0
	}
	bps := r.bytes * 8 / dt
	r.bytes = 0
	r.last = now
	return bps
}

// simHost is the simulated host1, whose launches it hands to the func.
type simHost func(flowtable.ServiceID, nf.BatchFunction) error

// HostName implements orchestrator.HostHandle.
func (simHost) HostName() string { return "host1" }

// Launch implements orchestrator.HostHandle.
func (h simHost) Launch(_ context.Context, svc flowtable.ServiceID, fn nf.BatchFunction) error {
	return h(svc, fn)
}

func init() {
	register("fig9", func(seed int64) Result { return Fig9(seed) })
}
