package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"sdnfv/internal/acmatch"
	"sdnfv/internal/app"
	"sdnfv/internal/control"
	"sdnfv/internal/controller"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/metrics"
	"sdnfv/internal/nf"
	"sdnfv/internal/nfs"
	"sdnfv/internal/orchestrator"
	"sdnfv/internal/placement"
	"sdnfv/internal/reconcile"
	"sdnfv/internal/spec"
	"sdnfv/internal/traffic"
)

// ClusterResult is the multi-host service-chain experiment: the full
// SDNFV hierarchy (Fig. 2) with one controller managing THREE NF hosts.
// The placement engine (§3.5) assigns a firewall → IDS → video-detector
// chain across the hosts; the assignment becomes a spec that
// reconcile.Boot brings up, booting each NF through the orchestrator on
// the host the placement chose, and the application compiles the global
// service graph into per-host flow tables — cross-host hops egress onto
// fabric links and resume at the correct Service-ID scope on the peer.
// Every host resolves its own flow-table misses through its
// per-datapath controller session, so the first packet at each host
// pulls exactly that host's rules. Mid-run a ChangeDefault re-routes the
// video hop from host C to a standby detector on host A, demonstrating
// runtime cross-host chain steering; end-to-end latency is compared
// against the identical chain on a single host.
type ClusterResult struct {
	// HostNames/Rx/Tx/... are per-host counters after the run, in
	// chain order (A, B, C).
	HostNames []string
	Rx, Tx    []uint64
	Drops     []uint64
	Overflows []uint64
	TxDrops   []uint64
	Misses    []uint64

	// PlacementNodes is the topology node each chain position landed on.
	PlacementNodes []int

	// Phase 1: chain A→B→C.
	Phase1Sent       uint64
	Phase1DeliveredC uint64
	// Phase 2 (after the reroute): chain A→B→A.
	Phase2Sent       uint64
	Phase2DeliveredA uint64
	Phase2DeliveredC uint64

	// Latency (µs) of the cross-host chain vs the same chain single-host.
	ClusterP50Us, ClusterP95Us float64
	SingleP50Us, SingleP95Us   float64

	// LinkFrames/LinkDrops aggregate the fabric links.
	LinkFrames, LinkDrops uint64

	// AccountingOK reports the conservation identity (HostStats.Conserved)
	// and a leak-free pool on every host after the cluster went idle.
	AccountingOK bool
}

// Name implements Result.
func (*ClusterResult) Name() string { return "cluster" }

// Render implements Result.
func (r *ClusterResult) Render() string {
	var b strings.Builder
	b.WriteString("Multi-host service chain: firewall@A -> IDS@B -> video@C, rerouted to video'@A at runtime\n")
	b.WriteString(fmt.Sprintf("placement (line topology, 1 core/node): chain positions on nodes %v\n\n", r.PlacementNodes))
	rows := make([][]string, len(r.HostNames))
	for i, n := range r.HostNames {
		rows[i] = []string{
			n, f0(float64(r.Rx[i])), f0(float64(r.Tx[i])), f0(float64(r.Drops[i])),
			f0(float64(r.Overflows[i])), f0(float64(r.TxDrops[i])), f0(float64(r.Misses[i])),
		}
	}
	b.WriteString(table([]string{"host", "rx", "tx", "drops", "overflows", "txdrops", "misses"}, rows))
	b.WriteString(fmt.Sprintf("\nphase 1 (A->B->C): sent %d, delivered at C egress %d\n",
		r.Phase1Sent, r.Phase1DeliveredC))
	b.WriteString(fmt.Sprintf("phase 2 (ChangeDefault ids->video'): sent %d, delivered at A egress %d (C egress +%d)\n",
		r.Phase2Sent, r.Phase2DeliveredA, r.Phase2DeliveredC))
	b.WriteString(fmt.Sprintf("fabric links: %d frames forwarded, %d dropped\n", r.LinkFrames, r.LinkDrops))
	b.WriteString(fmt.Sprintf("end-to-end latency: cluster p50 %.1f us / p95 %.1f us; single-host p50 %.1f us / p95 %.1f us\n",
		r.ClusterP50Us, r.ClusterP95Us, r.SingleP50Us, r.SingleP95Us))
	b.WriteString(fmt.Sprintf("packet accounting across hosts: ok=%v\n", r.AccountingOK))
	return b.String()
}

// Cluster chain services, ports and traffic.
const (
	svcFW     flowtable.ServiceID = 1
	svcIDS    flowtable.ServiceID = 2
	svcVideo  flowtable.ServiceID = 3
	svcVideoB flowtable.ServiceID = 4 // standby detector on host A

	clusterIngress    = 0
	clusterEgress     = 1
	clusterFlows      = 32
	clusterFrameBytes = 512
)

// fastBoot is the control-loop timing of the experiments booted through
// reconcile.Boot: quick reconcile ticks and millisecond VM boots (the
// orchestrator's zero value is the paper's 7.75 s cold boot, and Boot
// would block on it).
var fastBoot = reconcile.Timings{
	Reconcile: reconcile.Config{IntervalSec: 0.02},
	Orch:      orchestrator.Config{BootDelaySec: 0.01, StandbyDelaySec: 0.01, Standby: 1},
}

// clusterSpec declares the firewall → IDS → video chain plus the
// non-default edge IDS → video' the runtime reroute selects, each
// service pinned to the named host; the standby detector video' sits
// with the firewall on the ingress host.
func clusterSpec(hosts []spec.Host, fw, ids, video string, links []spec.Link) *spec.Spec {
	on := func(host string) []string { return []string{host} }
	return &spec.Spec{
		Version: spec.Version, Name: "cluster-chain", Hosts: hosts,
		Services: []spec.Service{
			{Name: "firewall", ID: svcFW, NF: "firewall", Placement: on(fw)},
			{Name: "ids", ID: svcIDS, NF: "ids", ReadOnly: true, Placement: on(ids)},
			{Name: "video", ID: svcVideo, NF: "video", ReadOnly: true, Placement: on(video)},
			{Name: "video-standby", ID: svcVideoB, NF: "video-standby", ReadOnly: true, Placement: on(fw)},
		},
		Edges: []spec.Edge{
			{From: spec.EndpointIngress, To: "firewall", Default: true},
			{From: "firewall", To: "ids", Default: true},
			{From: "ids", To: "video", Default: true},
			{From: "ids", To: "video-standby"},
			{From: "video", To: spec.EndpointEgress, Default: true},
			{From: "video-standby", To: spec.EndpointEgress, Default: true},
		},
		Ingress:    spec.IngressSpec{Host: fw, Port: clusterIngress},
		EgressPort: clusterEgress,
		Links:      links,
	}
}

// clusterNFs binds the spec's NF names to their implementations.
func clusterNFs() *spec.NFRegistry {
	sigs := acmatch.New([]string{"ATTACK-SIGNATURE"})
	reg := spec.NewNFRegistry()
	for name, factory := range map[string]func() nf.BatchFunction{
		"firewall": func() nf.BatchFunction { return &nfs.Firewall{DefaultAllow: true} },
		"ids":      func() nf.BatchFunction { return &nfs.IDS{Matcher: sigs, Scrubber: svcVideoB} },
		"video":    func() nf.BatchFunction { return &nfs.VideoDetector{PolicyEngine: svcVideo, Bypass: svcVideo} },
		"video-standby": func() nf.BatchFunction {
			return &nfs.VideoDetector{PolicyEngine: svcVideoB, Bypass: svcVideoB}
		},
	} {
		must(reg.Register(name, factory))
	}
	return reg
}

// latencySink counts the frames a host delivers and records each one's
// end-to-end latency from the timestamp the generator embedded in the
// payload (it survives host crossings; per-host arrival stamps do not).
// Each run has one delivering host with one TX thread, so the histogram
// has a single writer.
type latencySink struct {
	hist      *metrics.Histogram
	delivered atomic.Uint64
}

func newLatencySink() *latencySink { return &latencySink{hist: metrics.NewHistogram()} }

func (s *latencySink) observe(_ int, data []byte, _ *dataplane.Desc) {
	s.delivered.Add(1)
	if ts, ok := traffic.ExtractTimestamp(data); ok {
		s.hist.Observe(float64(time.Now().UnixNano() - ts))
	}
}

// clusterInject offers n timestamped frames through the cluster's
// windowed Inject and waits for the cluster to drain. Every 8 frames it
// pauses 50 µs (~150 kpps), so the latency measured is per-hop chain
// latency, not self-inflicted queueing.
func clusterInject(c *reconcile.Cluster, seed int64, n int) uint64 {
	factory := traffic.NewFactory()
	for i := 0; i < n; i++ {
		fs := traffic.Flow(int(seed)*clusterFlows+i%clusterFlows, clusterFrameBytes, 0)
		frame, err := factory.Frame(fs, time.Now().UnixNano())
		must(err)
		must(c.Inject(frame))
		if i%8 == 7 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	if !c.Fabric.WaitIdle(20 * time.Second) {
		panic("cluster: traffic never drained — packets still in flight")
	}
	return uint64(n)
}

// Cluster runs the experiment (~1-2 s wall time).
func Cluster(seed int64) *ClusterResult {
	const (
		phase1N   = 8000
		phase2N   = 6000
		baselineN = 8000
	)
	res := &ClusterResult{}

	// --- Placement (§3.5) decides which host runs which chain hop: a
	// 3-node line with one core each forces the chain to spread, exactly
	// the multi-node placements the engine computes.
	tp := placement.Line(3, 1, 10e9, 50e-6)
	pspec := placement.Spec{FlowsPerCore: map[placement.Service]int{1: 1, 2: 1, 3: 1}}
	asg, err := placement.SolveGreedy(tp, []placement.Flow{{
		Ingress: 0, Egress: 2, Chain: []placement.Service{1, 2, 3}, BandwidthBps: 1e9,
	}}, pspec)
	if err != nil || !asg.Accepted[0] {
		panic(fmt.Sprintf("cluster placement failed: %v", err))
	}
	// The assignment becomes the spec: hosts are named by chain position
	// (host-A runs the firewall and takes ingress, host-B the IDS, host-C
	// the video detector), each announcing its topology node's datapath.
	// The links are the reconcile experiment's wiring, on ports >= 2 so
	// ingress (0) and egress (1) stay free.
	var hosts []spec.Host
	for i, n := range asg.Nodes[0] {
		res.PlacementNodes = append(res.PlacementNodes, int(n))
		hosts = append(hosts, spec.Host{Name: fmt.Sprintf("host-%c", 'A'+i), Datapath: uint64(n) + 1})
	}
	link := func(a string, ap int, b string, bp int) spec.Link {
		return spec.Link{A: spec.Endpoint{Host: a, Port: ap}, B: spec.Endpoint{Host: b, Port: bp}}
	}
	sp := clusterSpec(hosts, "host-A", "host-B", "host-C", []spec.Link{
		link("host-A", 2, "host-B", 2),
		link("host-B", 3, "host-C", 2),
		link("host-B", 4, "host-A", 3),
	})

	// --- Application: global graph + placement = per-host tables, served
	// by this experiment's own controller, so each host pulls its table
	// through its per-datapath session on first miss.
	assign, err := sp.Place(func(string) bool { return true })
	must(err)
	dep, err := reconcile.BuildDeployment(sp, assign)
	must(err)
	a := app.New(app.Config{IngressPort: clusterIngress, EgressPort: clusterEgress, WildcardRules: true})
	must(a.RegisterGraph(dep.Graph))
	_, err = a.SetDeployment(dep)
	must(err)
	ctl := controller.New(controller.Config{Workers: 2})
	ctl.SetNorthbound(a)
	ctl.Start()
	defer ctl.Stop()

	// --- One boot path: fabric, hosts, links, and the NFs booted through
	// the orchestrator on the hosts the placement chose. The fabric is
	// the app's downstream for runtime steering.
	reg := clusterNFs()
	c, err := reconcile.Boot(sp, reg, fastBoot, func(dp control.DatapathID) control.Southbound {
		return ctl.Session(dp)
	})
	must(err)
	defer c.Close()
	a.SetDownstream(c.Fabric)
	// Phase 1 delivers at host-C: its latency sink replaces the delivery
	// counter Boot bound on the egress port.
	sinkC := newLatencySink()
	c.Hosts["host-C"].BindPort(clusterEgress, sinkC.observe)

	// --- Phase 1: the chain spans all three hosts. The first packet at
	// each host misses and pulls that host's table through its session.
	res.Phase1Sent = clusterInject(c, seed, phase1N)
	res.Phase1DeliveredC = sinkC.delivered.Load()
	res.ClusterP50Us = sinkC.hist.Quantile(0.50) / 1e3
	res.ClusterP95Us = sinkC.hist.Quantile(0.95) / 1e3

	// --- Reroute: as if the IDS on host B asked for the video hop to
	// move — the app validates the edge, translates it per host, and the
	// fabric applies the constrained default rewrite on host B.
	cd := nf.Message{Kind: nf.MsgChangeDefault, Flows: flowtable.MatchAll, S: svcIDS, T: svcVideoB}
	if err := a.HandleNFMessage(context.Background(), c.Datapaths["host-B"], svcIDS, cd); err != nil {
		panic(fmt.Sprintf("reroute rejected: %v", err))
	}

	// --- Phase 2: the chain is now A→B→A.
	res.Phase2Sent = clusterInject(c, seed, phase2N)
	res.Phase2DeliveredA = c.Delivered("host-A")
	res.Phase2DeliveredC = sinkC.delivered.Load() - res.Phase1DeliveredC

	// --- Accounting across all hosts: nothing vanished, nothing leaked.
	res.AccountingOK = true
	for _, name := range sp.HostNames() {
		st := c.Hosts[name].Stats()
		res.HostNames = append(res.HostNames, fmt.Sprintf("%s(%s)", name, c.Datapaths[name]))
		res.Rx = append(res.Rx, st.RxPackets)
		res.Tx = append(res.Tx, st.TxPackets)
		res.Drops = append(res.Drops, st.Drops)
		res.Overflows = append(res.Overflows, st.Overflows)
		res.TxDrops = append(res.TxDrops, st.TxDrops)
		res.Misses = append(res.Misses, st.Misses)
		if !st.Conserved() || st.Pool.InUse != 0 {
			res.AccountingOK = false
		}
	}
	for _, l := range c.Fabric.Links() {
		ls := l.Stats()
		res.LinkFrames += ls.TxFrames
		res.LinkDrops += ls.Drops
	}
	c.Close()

	// --- Baseline: the identical chain entirely on one host.
	res.SingleP50Us, res.SingleP95Us = clusterBaseline(seed, reg, baselineN)
	return res
}

// clusterBaseline runs the same chain booted from a one-host spec with
// Boot's in-process controller (which pre-installs the tables, so no
// miss lands in the measurement) and returns its p50/p95 end-to-end
// latency in µs.
func clusterBaseline(seed int64, reg *spec.NFRegistry, n int) (p50, p95 float64) {
	sp := clusterSpec([]spec.Host{{Name: "host-A", Datapath: 1}}, "host-A", "host-A", "host-A", nil)
	c, err := reconcile.Boot(sp, reg, fastBoot, nil)
	must(err)
	defer c.Close()
	sink := newLatencySink()
	c.Hosts["host-A"].BindPort(clusterEgress, sink.observe)
	clusterInject(c, seed, n)
	return sink.hist.Quantile(0.50) / 1e3, sink.hist.Quantile(0.95) / 1e3
}

func init() {
	register("cluster", func(seed int64) Result { return Cluster(seed) })
}
