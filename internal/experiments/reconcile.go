package experiments

import (
	"fmt"
	"strings"
	"time"

	"sdnfv/internal/acmatch"
	"sdnfv/internal/autoscale"
	"sdnfv/internal/nf"
	"sdnfv/internal/nfs"
	"sdnfv/internal/orchestrator"
	"sdnfv/internal/reconcile"
	"sdnfv/internal/spec"
	"sdnfv/internal/traffic"
)

// reconcileSpecJSON is the declarative desired state driving the whole
// experiment — it boots through reconcile.Boot exactly as `sdnfv-host
// -spec` would boot it. The video
// service lists host-C first and host-A as fallback, which is the knob
// the chaos phase turns: killing host-C makes host-A the first live
// placement candidate and the reconciler must converge onto it.
const reconcileSpecJSON = `{
  "version": 1,
  "name": "chaos-chain",
  "hosts": [
    {"name": "host-A", "datapath": 1},
    {"name": "host-B", "datapath": 2},
    {"name": "host-C", "datapath": 3}
  ],
  "services": [
    {"name": "firewall", "id": 1, "nf": "firewall", "placement": ["host-A"]},
    {"name": "ids", "id": 2, "nf": "ids", "read_only": true, "placement": ["host-B", "host-A"]},
    {"name": "video", "id": 3, "nf": "video", "read_only": true, "placement": ["host-C", "host-A"], "scale": {"min": 1, "max": 2}}
  ],
  "edges": [
    {"from": "ingress", "to": "firewall", "default": true},
    {"from": "firewall", "to": "ids", "default": true},
    {"from": "ids", "to": "video", "default": true},
    {"from": "video", "to": "egress", "default": true}
  ],
  "ingress": {"host": "host-A", "port": 0},
  "egress_port": 1,
  "links": [
    {"a": {"host": "host-A", "port": 2}, "b": {"host": "host-B", "port": 2}},
    {"a": {"host": "host-B", "port": 3}, "b": {"host": "host-C", "port": 2}},
    {"a": {"host": "host-B", "port": 4}, "b": {"host": "host-A", "port": 3}}
  ]
}`

// ReconcileResult is the declarative-orchestration chaos experiment:
// a spec is booted, the reconcile loop converges an
// empty three-host cluster onto it (boots through the orchestrator,
// incremental recompile, tracked rule install), traffic proves the
// chain, then host-C is killed mid-run and the loop must re-place the
// video hop on its fallback host, reroute the chain around the corpse,
// and resume its autoscaler there — with exact packet accounting on
// every surviving host afterwards.
type ReconcileResult struct {
	Generation  uint64
	Converged   bool
	Drift       int
	DriftEvents uint64
	ActionsOK   uint64
	ActionsFail uint64

	// Ticks to converge from an empty cluster / after the host kill.
	TicksFromScratch int
	TicksAfterKill   int
	// ConvergeSec is the reconciler's own measure of the kill episode.
	ConvergeSec float64

	// Placement after convergence (service -> host) and where the video
	// autoscaler runs after failover.
	Placement  map[string]string
	VideoScale string

	// Phase 1: chain A→B→C with the spec's preferred placement.
	Phase1Sent      uint64
	Phase1Delivered uint64
	// Phase 2: after host-C died, the same chain must exit at host-A.
	Phase2Sent      uint64
	Phase2Delivered uint64

	// Survivor accounting: rx == tx+drops+overflows+txdrops+rxdrops and
	// a leak-free pool on every host still alive.
	HostNames    []string
	Rx, Tx       []uint64
	Drops        []uint64
	AccountingOK bool
}

// Name implements Result.
func (*ReconcileResult) Name() string { return "reconcile" }

// Render implements Result.
func (r *ReconcileResult) Render() string {
	var b strings.Builder
	b.WriteString("Declarative reconcile: spec booted through reconcile.Boot, host-C killed mid-run\n\n")
	b.WriteString(fmt.Sprintf("generation %d: converged in %d ticks from empty cluster\n",
		r.Generation, r.TicksFromScratch))
	b.WriteString(fmt.Sprintf("placement: %v\n", r.Placement))
	b.WriteString(fmt.Sprintf("phase 1 (firewall@A -> ids@B -> video@C): sent %d, delivered %d\n",
		r.Phase1Sent, r.Phase1Delivered))
	b.WriteString(fmt.Sprintf("host-C killed: reconverged in %d ticks (%.3f s), drift events %d, video autoscaler now on %s\n",
		r.TicksAfterKill, r.ConvergeSec, r.DriftEvents, r.VideoScale))
	b.WriteString(fmt.Sprintf("phase 2 (video re-placed on host-A): sent %d, delivered %d\n",
		r.Phase2Sent, r.Phase2Delivered))
	rows := make([][]string, len(r.HostNames))
	for i, n := range r.HostNames {
		rows[i] = []string{n, f0(float64(r.Rx[i])), f0(float64(r.Tx[i])), f0(float64(r.Drops[i]))}
	}
	b.WriteString("\n" + table([]string{"survivor", "rx", "tx", "drops"}, rows))
	b.WriteString(fmt.Sprintf("\nreconcile status: converged=%v drift=%d actions ok=%d failed=%d\n",
		r.Converged, r.Drift, r.ActionsOK, r.ActionsFail))
	b.WriteString(fmt.Sprintf("survivor accounting: ok=%v\n", r.AccountingOK))
	return b.String()
}

// Reconcile runs the experiment (~1 s wall time).
func Reconcile(seed int64) *ReconcileResult {
	const (
		flows      = 32
		frameBytes = 512
		phase1N    = 4000
		phase2N    = 4000
	)
	res := &ReconcileResult{}

	// --- NF registry: how the spec's binding names resolve to code.
	sigs := acmatch.New([]string{"ATTACK-SIGNATURE"})
	nfReg := spec.NewNFRegistry()
	must(nfReg.Register("firewall", func() nf.BatchFunction { return &nfs.Firewall{DefaultAllow: true} }))
	must(nfReg.Register("ids", func() nf.BatchFunction { return &nfs.IDS{Matcher: sigs, Scrubber: 3} }))
	must(nfReg.Register("video", func() nf.BatchFunction { return &nfs.VideoDetector{PolicyEngine: 3, Bypass: 3} }))

	// --- Parse the spec.
	sp, err := spec.Parse([]byte(reconcileSpecJSON))
	if err != nil {
		panic(err)
	}

	// --- One boot path: the same reconcile.Boot sdnfv-host uses
	// assembles controller → fabric → three hosts → links → app →
	// orchestrator → reconciler and converges the empty cluster onto the
	// spec (boots through the orchestrator, incremental recompile,
	// tracked rule install).
	c, err := reconcile.Boot(sp, nfReg, reconcile.Timings{
		Reconcile: reconcile.Config{IntervalSec: 0.02, BackoffSec: 0.05, PendingSec: 0.5, QueueDepth: 16},
		// Long interval + high thresholds: the loops exist (bounds are
		// live, failover moves them) but stay quiet during the short run.
		Scale: autoscale.Config{IntervalSec: 3600, UpBacklog: 1 << 30, CooldownSec: 3600},
		Orch:  orchestrator.Config{BootDelaySec: 0.005, StandbyDelaySec: 0.005, Standby: 1},
	}, nil)
	if err != nil {
		panic(err)
	}
	defer c.Close()
	res.TicksFromScratch = int(c.Reconciler.Status().Ticks)

	// --- Phase 1 traffic through the spec's preferred placement; the
	// chain's egress is on host-C.
	factory := traffic.NewFactory()
	inject := func(n int) uint64 {
		for i := 0; i < n; i++ {
			fs := traffic.Flow(int(seed)*flows+i%flows, frameBytes, 0)
			frame, err := factory.Frame(fs, time.Now().UnixNano())
			if err != nil {
				panic(err)
			}
			if err := c.Inject(frame); err != nil {
				panic(err)
			}
		}
		if !c.Fabric.WaitIdle(20 * time.Second) {
			panic("reconcile: traffic never drained")
		}
		return uint64(n)
	}
	res.Phase1Sent = inject(phase1N)
	res.Phase1Delivered = c.Delivered("host-C")

	// --- Chaos: kill host-C mid-run. The reconciler must observe the
	// death as drift, boot a replacement video replica on host-A, move
	// the autoscaler with it, and reroute the chain B→A.
	before := c.Reconciler.Status()
	if err := c.Fabric.KillHost(c.Datapaths["host-C"]); err != nil {
		panic(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := c.Reconciler.Status()
		if st.DriftEvents > before.DriftEvents && st.Converged {
			res.TicksAfterKill = int(st.Ticks - before.Ticks)
			break
		}
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("reconcile: no convergence after the host kill: %+v", st))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// --- Phase 2: same ingress, chain now exits at host-A.
	deliveredA := c.Delivered("host-A")
	res.Phase2Sent = inject(phase2N)
	res.Phase2Delivered = c.Delivered("host-A") - deliveredA

	st := c.Reconciler.Status()
	res.Generation = st.Generation
	res.Converged = st.Converged
	res.Drift = len(st.Drift)
	res.DriftEvents = st.DriftEvents
	res.ActionsOK = st.ActionsOK
	res.ActionsFail = st.ActionsFailed
	res.ConvergeSec = st.LastConvergeSec
	res.Placement = st.Placement
	_, res.VideoScale = c.Actuators.Scaler("video")

	// --- Survivor accounting: the exact identity on every live host.
	res.AccountingOK = true
	for _, name := range sp.HostNames() {
		if !c.Fabric.Alive(c.Datapaths[name]) {
			continue
		}
		st := c.Hosts[name].Stats()
		res.HostNames = append(res.HostNames, name)
		res.Rx = append(res.Rx, st.RxPackets)
		res.Tx = append(res.Tx, st.TxPackets)
		res.Drops = append(res.Drops, st.Drops+st.Overflows+st.TxDrops+st.RxDrops)
		if !st.Conserved() || st.Pool.InUse != 0 {
			res.AccountingOK = false
		}
	}
	return res
}

func init() {
	register("reconcile", func(seed int64) Result { return Reconcile(seed) })
}
