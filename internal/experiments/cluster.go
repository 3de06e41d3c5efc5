package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"sdnfv/internal/acmatch"
	"sdnfv/internal/app"
	"sdnfv/internal/autoscale"
	"sdnfv/internal/cluster"
	"sdnfv/internal/control"
	"sdnfv/internal/controller"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/metrics"
	"sdnfv/internal/nfs"
	"sdnfv/internal/orchestrator"
	"sdnfv/internal/placement"
	"sdnfv/internal/topo"
	"sdnfv/internal/traffic"
)

// ClusterResult is the multi-host service-chain experiment: the full
// SDNFV hierarchy (Fig. 2) with one controller managing THREE NF hosts.
// The placement engine (§3.5) assigns a firewall → IDS → video-detector
// chain across the hosts, the orchestrator boots each NF on the host
// the placement chose, and the application compiles the global service
// graph into per-host flow tables — cross-host hops egress onto fabric
// links and resume at the correct Service-ID scope on the peer. Every
// host resolves its own flow-table misses through its per-datapath
// controller session, so the first packet at each host pulls exactly
// that host's rules. Mid-run a ChangeDefault re-routes the video hop
// from host C to a standby detector on host A, demonstrating runtime
// cross-host chain steering; end-to-end latency is compared against the
// identical chain on a single host.
type ClusterResult struct {
	// HostNames/Rx/Tx/... are per-host counters after the run, in
	// datapath order (A, B, C).
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

	// AccountingOK reports rx == tx+drops+overflows+txdrops and a
	// leak-free pool on every host after the cluster went idle.
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

// Cluster chain services.
const (
	svcFW     flowtable.ServiceID = 1
	svcIDS    flowtable.ServiceID = 2
	svcVideo  flowtable.ServiceID = 3
	svcVideoB flowtable.ServiceID = 4 // standby detector on host A
)

// clusterGraph builds the global service graph: the linear chain plus
// the alternative edge IDS -> video' that the runtime reroute selects.
func clusterGraph() (*graph.Graph, error) {
	g := graph.New("cluster-chain")
	for _, v := range []graph.Vertex{
		{Service: svcFW, Name: "firewall"},
		{Service: svcIDS, Name: "ids", ReadOnly: true},
		{Service: svcVideo, Name: "video", ReadOnly: true},
		{Service: svcVideoB, Name: "video-standby", ReadOnly: true},
	} {
		if err := g.AddVertex(v); err != nil {
			return nil, err
		}
	}
	type e struct {
		from, to flowtable.ServiceID
		def      bool
	}
	for _, ed := range []e{
		{graph.Source, svcFW, true},
		{svcFW, svcIDS, true},
		{svcIDS, svcVideo, true},
		{svcIDS, svcVideoB, false},
		{svcVideo, graph.Sink, true},
		{svcVideoB, graph.Sink, true},
	} {
		if err := g.AddEdge(ed.from, ed.to, ed.def); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Cluster runs the experiment (~1-2 s wall time).
func Cluster(seed int64) *ClusterResult {
	const (
		flows      = 32
		frameBytes = 512
		phase1N    = 8000
		phase2N    = 6000
		baselineN  = 8000
		ingressPt  = 0
		egressPt   = 1
	)
	res := &ClusterResult{}

	// --- Placement (§3.5) decides which host runs which chain hop: a
	// 3-node line with one core each forces the chain to spread, exactly
	// the multi-node placements the engine computes.
	tp := topo.Line(3, 1, 10e9, 50e-6)
	spec := placement.Spec{FlowsPerCore: map[placement.Service]int{1: 1, 2: 1, 3: 1}}
	asg, err := placement.SolveGreedy(tp, []placement.Flow{{
		Ingress: 0, Egress: 2, Chain: []placement.Service{1, 2, 3}, BandwidthBps: 1e9,
	}}, spec)
	if err != nil || !asg.Accepted[0] {
		panic(fmt.Sprintf("cluster placement failed: %v", err))
	}
	dpOf := func(n topo.NodeID) control.DatapathID { return control.DatapathID(n) + 1 }
	for _, n := range asg.Nodes[0] {
		res.PlacementNodes = append(res.PlacementNodes, int(n))
	}
	dpA := dpOf(asg.Nodes[0][0]) // firewall's host is also the ingress
	dpB := dpOf(asg.Nodes[0][1])
	dpC := dpOf(asg.Nodes[0][2])

	// --- Controller first: each host's Config.Control is its own
	// per-datapath session, so misses resolve host-scoped.
	ctl := controller.New(controller.Config{Workers: 2})
	ctl.Start()
	defer ctl.Stop()

	// --- Hosts and fabric.
	fab := cluster.New()
	names := map[control.DatapathID]string{dpA: "host-A", dpB: "host-B", dpC: "host-C"}
	hosts := map[control.DatapathID]*dataplane.Host{}
	for _, dp := range []control.DatapathID{dpA, dpB, dpC} {
		h := dataplane.NewHost(dataplane.Config{
			PoolSize: 4096, RingSize: 1024, TXThreads: 1,
			Control: ctl.Session(dp),
		})
		hosts[dp] = h
		if err := fab.AddHost(dp, names[dp], h); err != nil {
			panic(err)
		}
	}
	// One unidirectional channel per crossing graph edge, ports ≥ 2 so
	// ingress (0) and egress (1) stay free: A→B for fw→ids, B→C for
	// ids→video, B→A for the reroute edge ids→video'.
	mustConn := func(src control.DatapathID, out int, dst control.DatapathID, in int) *cluster.Link {
		l, err := fab.Connect(src, out, dst, in, cluster.LinkConfig{})
		if err != nil {
			panic(err)
		}
		return l
	}
	lAB := mustConn(dpA, 2, dpB, 2)
	lBC := mustConn(dpB, 3, dpC, 2)
	lBA := mustConn(dpB, 4, dpA, 3)

	// --- Application: global graph + placement assignment = per-host
	// tables; the fabric is its downstream for runtime steering.
	g, err := clusterGraph()
	if err != nil {
		panic(err)
	}
	a := app.New(app.Config{IngressPort: ingressPt, EgressPort: egressPt, WildcardRules: true})
	if err := a.RegisterGraph(g); err != nil {
		panic(err)
	}
	dep := &app.Deployment{
		Graph: g,
		Assign: map[flowtable.ServiceID]control.DatapathID{
			svcFW: dpA, svcIDS: dpB, svcVideo: dpC, svcVideoB: dpA,
		},
		Ingress: dpA, IngressPort: ingressPt, EgressPort: egressPt,
		Channels: map[app.HostPair][]app.Channel{
			{Src: dpA, Dst: dpB}: {lAB.Channel()},
			{Src: dpB, Dst: dpC}: {lBC.Channel()},
			{Src: dpB, Dst: dpA}: {lBA.Channel()},
		},
	}
	if err := a.SetDeployment(dep); err != nil {
		panic(err)
	}
	a.SetDownstream(fab)
	ctl.SetNorthbound(a)

	// --- NFs boot through the orchestrator on the hosts the placement
	// chose.
	clock := autoscale.NewRealClock()
	orch := orchestrator.New(orchestrator.Config{BootDelaySec: 0.01, StandbyDelaySec: 0.01, Standby: 1}, clock)
	for dp, h := range hosts {
		orch.AddHost(dataplane.NamedHost{Name: names[dp], Host: h})
	}
	sigs := acmatch.New([]string{"ATTACK-SIGNATURE"})
	deployCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_, err = orch.Deploy(deployCtx, []orchestrator.Placement{
		{Host: names[dpA], Service: svcFW, NF: &nfs.Firewall{DefaultAllow: true}},
		{Host: names[dpB], Service: svcIDS, NF: &nfs.IDS{Matcher: sigs, Scrubber: svcVideoB}},
		{Host: names[dpC], Service: svcVideo, NF: &nfs.VideoDetector{PolicyEngine: svcVideo, Bypass: svcVideo}},
		{Host: names[dpA], Service: svcVideoB, NF: &nfs.VideoDetector{PolicyEngine: svcVideoB, Bypass: svcVideoB}},
	})
	cancel()
	if err != nil {
		panic(err)
	}

	// --- Egress sinks: end-to-end latency comes from the timestamp the
	// generator embedded in the payload (it survives host crossings;
	// per-host arrival stamps do not). Each phase has exactly one
	// delivering host, so each histogram has a single writer.
	var deliveredA, deliveredC atomic.Uint64
	histC := metrics.NewHistogram()
	hosts[dpA].BindPort(egressPt, func(_ int, _ []byte, _ *dataplane.Desc) {
		deliveredA.Add(1)
	})
	hosts[dpC].BindPort(egressPt, func(_ int, data []byte, _ *dataplane.Desc) {
		deliveredC.Add(1)
		if ts, ok := traffic.ExtractTimestamp(data); ok {
			histC.Observe(float64(time.Now().UnixNano() - ts))
		}
	})

	if err := fab.Start(); err != nil {
		panic(err)
	}
	defer fab.Stop()

	factory := traffic.NewFactory()
	inject := func(n int) uint64 {
		var sent uint64
		for i := 0; i < n; i++ {
			spec := traffic.Flow(int(seed)*flows+i%flows, frameBytes, 0)
			frame, err := factory.Frame(spec, time.Now().UnixNano())
			if err != nil {
				panic(err)
			}
			for {
				if err := hosts[dpA].Inject(ingressPt, frame); err == nil {
					sent++
					break
				}
				time.Sleep(2 * time.Microsecond)
			}
			if i%8 == 7 {
				// Pace to ~150 kpps so the measurement captures per-hop
				// chain latency, not self-inflicted queueing — and on a
				// starved scheduler, where even that outruns the chain,
				// hold for the cluster to catch up instead of overflowing
				// its rings (same window as reconcile.Cluster.Inject).
				time.Sleep(50 * time.Microsecond)
				for fab.InFlight() > 256 {
					time.Sleep(20 * time.Microsecond)
				}
			}
		}
		return sent
	}

	// --- Phase 1: the chain spans all three hosts. The first packet at
	// each host misses and pulls that host's table through its session.
	res.Phase1Sent = inject(phase1N)
	if !fab.WaitIdle(20 * time.Second) {
		panic("cluster: phase 1 never drained — packets still in flight")
	}
	res.Phase1DeliveredC = deliveredC.Load()
	res.ClusterP50Us = histC.Quantile(0.50) / 1e3
	res.ClusterP95Us = histC.Quantile(0.95) / 1e3

	// --- Reroute: as if the IDS on host B asked for the video hop to
	// move — the app validates the edge, translates it per host, and the
	// fabric applies the constrained default rewrite on host B.
	cd, err := control.NewChangeDefault(flowtable.MatchAll, svcIDS, svcVideoB)
	if err != nil {
		panic(err)
	}
	if err := a.HandleNFMessage(context.Background(), dpB, svcIDS, cd); err != nil {
		panic(fmt.Sprintf("reroute rejected: %v", err))
	}

	// --- Phase 2: the chain is now A→B→A.
	beforeC := deliveredC.Load()
	res.Phase2Sent = inject(phase2N)
	if !fab.WaitIdle(20 * time.Second) {
		panic("cluster: phase 2 never drained — packets still in flight")
	}
	res.Phase2DeliveredA = deliveredA.Load()
	res.Phase2DeliveredC = deliveredC.Load() - beforeC

	// --- Accounting across all hosts: nothing vanished, nothing leaked.
	res.AccountingOK = true
	for _, dp := range []control.DatapathID{dpA, dpB, dpC} {
		st := hosts[dp].Stats()
		res.HostNames = append(res.HostNames, fmt.Sprintf("%s(%s)", names[dp], dp))
		res.Rx = append(res.Rx, st.RxPackets)
		res.Tx = append(res.Tx, st.TxPackets)
		res.Drops = append(res.Drops, st.Drops)
		res.Overflows = append(res.Overflows, st.Overflows)
		res.TxDrops = append(res.TxDrops, st.TxDrops)
		res.Misses = append(res.Misses, st.Misses)
		if st.RxPackets != st.TxPackets+st.Drops+st.Overflows+st.TxDrops+st.RxDrops ||
			st.Pool.InUse != 0 {
			res.AccountingOK = false
		}
	}
	for _, l := range fab.Links() {
		ls := l.Stats()
		res.LinkFrames += ls.TxFrames
		res.LinkDrops += ls.Drops
	}

	// --- Baseline: the identical chain entirely on one host.
	res.SingleP50Us, res.SingleP95Us = clusterBaseline(seed, sigs, flows, frameBytes, baselineN)
	return res
}

// clusterBaseline runs the same firewall→IDS→video chain on a single
// host and returns its p50/p95 end-to-end latency in µs.
func clusterBaseline(seed int64, sigs *acmatch.Matcher, flows, frameBytes, n int) (p50, p95 float64) {
	g, err := clusterGraph()
	if err != nil {
		panic(err)
	}
	h := dataplane.NewHost(dataplane.Config{PoolSize: 4096, RingSize: 1024, TXThreads: 1})
	if _, err := h.AddNF(svcFW, &nfs.Firewall{DefaultAllow: true}, 0); err != nil {
		panic(err)
	}
	if _, err := h.AddNF(svcIDS, &nfs.IDS{Matcher: sigs, Scrubber: svcVideoB}, 0); err != nil {
		panic(err)
	}
	if _, err := h.AddNF(svcVideo, &nfs.VideoDetector{PolicyEngine: svcVideo, Bypass: svcVideo}, 0); err != nil {
		panic(err)
	}
	if _, err := h.AddNF(svcVideoB, &nfs.VideoDetector{PolicyEngine: svcVideoB, Bypass: svcVideoB}, 0); err != nil {
		panic(err)
	}
	if err := h.InstallGraph(g, 0, 1); err != nil {
		panic(err)
	}
	hist := metrics.NewHistogram()
	h.BindDefault(func(_ int, data []byte, _ *dataplane.Desc) {
		if ts, ok := traffic.ExtractTimestamp(data); ok {
			hist.Observe(float64(time.Now().UnixNano() - ts))
		}
	})
	if err := h.Start(); err != nil {
		panic(err)
	}
	defer h.Stop()
	factory := traffic.NewFactory()
	for i := 0; i < n; i++ {
		spec := traffic.Flow(int(seed)*flows+i%flows, frameBytes, 0)
		frame, err := factory.Frame(spec, time.Now().UnixNano())
		if err != nil {
			panic(err)
		}
		for {
			if err := h.Inject(0, frame); err == nil {
				break
			}
			time.Sleep(2 * time.Microsecond)
		}
		if i%8 == 7 {
			time.Sleep(50 * time.Microsecond) // same pacing as the cluster run
		}
	}
	if !h.WaitIdle(20 * time.Second) {
		panic("cluster: baseline never drained — packets still in flight")
	}
	return hist.Quantile(0.50) / 1e3, hist.Quantile(0.95) / 1e3
}

func init() {
	register("cluster", func(seed int64) Result { return Cluster(seed) })
}
