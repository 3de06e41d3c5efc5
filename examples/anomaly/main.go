// Anomaly detection (§2.2 use case 1): Firewall -> Sampler -> (DDoS ‖ IDS,
// a read-only parallel segment) -> out, with a Scrubber on standby.
//
// The IDS scans payloads with an Aho–Corasick signature set; on a hit it
// diverts the packet to the Scrubber with SendTo and rewrites the flow's
// default with a ChangeDefault cross-layer message, so every later packet
// of the malicious flow is scrubbed without touching the controller
// (§3.4).
//
//	go run ./examples/anomaly
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sdnfv/internal/app"
	"sdnfv/internal/autoscale"
	"sdnfv/internal/controller"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/nf"
	"sdnfv/internal/nfs"
	"sdnfv/internal/orchestrator"
	"sdnfv/internal/packet"
	"sdnfv/internal/traffic"
)

// slowNF wraps an NF with a fixed per-packet service time (one sleep per
// burst), modeling a scrubber whose deep inspection is the expensive hop
// worth scaling.
type slowNF struct {
	inner       nf.BatchFunction
	perPacketNs int64
}

// Name implements nf.BatchFunction.
func (s *slowNF) Name() string { return s.inner.Name() }

// ReadOnly implements nf.BatchFunction.
func (s *slowNF) ReadOnly() bool { return s.inner.ReadOnly() }

// ProcessBatch implements nf.BatchFunction.
func (s *slowNF) ProcessBatch(ctx *nf.Context, batch []nf.Packet, out []nf.Decision) {
	s.inner.ProcessBatch(ctx, batch, out)
	time.Sleep(time.Duration(int64(len(batch)) * s.perPacketNs))
}

const (
	svcFirewall flowtable.ServiceID = 1
	svcSampler  flowtable.ServiceID = 2
	svcDDoS     flowtable.ServiceID = 3
	svcIDS      flowtable.ServiceID = 4
	svcScrubber flowtable.ServiceID = 5
)

func main() {
	// Service graph: the DDoS detector and IDS are read-only and
	// adjacent, so the graph compiler collapses them into one parallel
	// segment — both analyze the same shared packet copy (§3.3).
	g := graph.New("anomaly")
	for _, v := range []graph.Vertex{
		{Service: svcFirewall, Name: "firewall", ReadOnly: true},
		{Service: svcSampler, Name: "sampler", ReadOnly: true},
		{Service: svcDDoS, Name: "ddos", ReadOnly: true},
		{Service: svcIDS, Name: "ids", ReadOnly: true},
		{Service: svcScrubber, Name: "scrubber", ReadOnly: true},
	} {
		if err := g.AddVertex(v); err != nil {
			log.Fatal(err)
		}
	}
	must(g.AddEdge(graph.Source, svcFirewall, true))
	must(g.AddEdge(svcFirewall, svcSampler, true))
	must(g.AddEdge(svcSampler, svcDDoS, true))
	must(g.AddEdge(svcDDoS, svcIDS, true))
	must(g.AddEdge(svcIDS, graph.Sink, true))
	must(g.AddEdge(svcIDS, svcScrubber, false)) // IDS may divert
	must(g.AddEdge(svcScrubber, graph.Sink, true))
	fmt.Print(g)
	if segs := g.ParallelSegments(); len(segs) > 0 {
		fmt.Printf("parallel segment detected: %v -> %v\n\n", segs[0].Members, segs[0].Next)
	}

	// The full control hierarchy, in process: the SDNFV Application owns
	// the graph, the controller compiles it on the first miss (wildcard
	// pre-population), and the host resolves misses and forwards NF
	// messages through the typed control API.
	a := app.New(app.Config{IngressPort: 0, EgressPort: 1, WildcardRules: true})
	if err := a.RegisterGraph(g); err != nil {
		log.Fatal(err)
	}
	ctl := controller.New(controller.Config{})
	ctl.SetNorthbound(a)
	ctl.Start()
	defer ctl.Stop()

	host := dataplane.NewHost(dataplane.Config{PoolSize: 2048, TXThreads: 1, Control: ctl.Session(0)})
	start := time.Now()
	fw := &nfs.Firewall{DefaultAllow: true}
	sampler := &nfs.Sampler{Rate: 1.0} // sample everything in the demo
	ddos := &nfs.DDoSDetector{
		ThresholdBps: 1e9, WindowSec: 1,
		Now: func() float64 { return time.Since(start).Seconds() },
	}
	ids := &nfs.IDS{Matcher: nfs.DefaultIDSSignatures(), Scrubber: svcScrubber}
	scrubber := &nfs.Scrubber{Malicious: func(p *nf.Packet) bool {
		return ids.Matcher.Contains(p.View.Payload())
	}}
	// Scrubbing is the expensive hop (~50 µs/packet): the service the
	// autoscaler will grow when attack volume ramps.
	newScrubber := func() nf.BatchFunction {
		return &slowNF{inner: &nfs.Scrubber{Malicious: func(p *nf.Packet) bool {
			return ids.Matcher.Contains(p.View.Payload())
		}}, perPacketNs: 50_000}
	}
	mustNF(host.AddNF(svcFirewall, fw, 0))
	mustNF(host.AddNF(svcSampler, sampler, 0))
	mustNF(host.AddNF(svcDDoS, ddos, 0))
	mustNF(host.AddNF(svcIDS, ids, 1)) // IDS outranks DDoS in conflicts
	mustNF(host.AddNF(svcScrubber, &slowNF{inner: scrubber, perPacketNs: 50_000}, 0))

	var delivered int
	host.BindDefault(func(int, []byte, *dataplane.Desc) { delivered++ })
	if err := host.Start(); err != nil {
		log.Fatal(err)
	}
	defer host.Stop()

	factory := traffic.NewFactory()
	cleanFlow := traffic.FlowSpec{Key: packet.FlowKey{
		SrcIP: packet.IPv4(10, 1, 0, 1), DstIP: packet.IPv4(10, 2, 0, 1),
		SrcPort: 40000, DstPort: 80, Proto: packet.ProtoTCP,
	}}
	evilFlow := traffic.FlowSpec{Key: packet.FlowKey{
		SrcIP: packet.IPv4(10, 66, 6, 6), DstIP: packet.IPv4(10, 2, 0, 1),
		SrcPort: 41000, DstPort: 80, Proto: packet.ProtoTCP,
	}}

	send := func(spec traffic.FlowSpec, payload []byte, n int) {
		for i := 0; i < n; i++ {
			frame, err := factory.PayloadFrame(spec, payload)
			if err != nil {
				log.Fatal(err)
			}
			for {
				if err := host.Inject(0, frame); err == nil {
					break
				}
				time.Sleep(10 * time.Microsecond)
			}
		}
	}

	// 200 clean requests, then a flow carrying a SQL injection, then more
	// packets of the now-flagged flow with innocent-looking payloads.
	send(cleanFlow, traffic.BenignPayload(), 200)
	send(evilFlow, traffic.ExploitPayload(), 1)
	time.Sleep(50 * time.Millisecond) // let the ChangeDefault land
	send(evilFlow, traffic.BenignPayload(), 99)
	host.WaitIdle(5 * time.Second)

	st := host.Stats()
	cst, _ := ctl.Stats(context.Background())
	fmt.Printf("delivered=%d drops=%d ctrlMsgs=%d misses=%d ctl[requests=%d flowmods=%d nfmsgs=%d]\n",
		delivered, st.Drops, st.CtrlMessages, st.Misses, cst.Requests, cst.FlowMods, cst.NFMsgs)
	for _, lm := range a.Messages() {
		fmt.Printf("app log: src=%s accepted=%v %s\n", lm.Src, lm.Accepted, lm.Msg)
	}
	fmt.Printf("ids: scanned=%d alerts=%d\n", ids.Scanned(), ids.Alerts())
	fmt.Printf("scrubber: passed=%d dropped=%d (flagged flow diverted after 1 exploit)\n",
		scrubber.Passed(), scrubber.Dropped())
	// The IDS keeps its quarantine set in the engine-owned flow store
	// (SDK v2), so the manager can enumerate flagged flows without any
	// NF-specific API.
	fmt.Println("quarantined flows (read via host.FlowState):")
	host.FlowState(svcIDS, 0).Range(func(k packet.FlowKey, _ any) bool {
		fmt.Printf("  %s\n", k)
		return true
	})
	fmt.Println("\nfinal flow table (note the per-flow rule installed by the IDS):")
	fmt.Println(host.Table().Dump())

	// Act 2 — dynamic scaling (§3.3/§5.2): the flagged flow's volume
	// ramps; everything it sends is diverted to the scrubber, whose
	// backlog telemetry drives the autoscale loop. The orchestrator adds
	// a second scrubber replica at runtime, and once the burst subsides
	// the extra replica is retired through the flow-state-safe drain.
	fmt.Println("— dynamic scaling: attack volume ramps, the scrubber pool follows —")
	clock := autoscale.NewRealClock()
	orch := orchestrator.New(orchestrator.Config{
		BootDelaySec: 0.5, StandbyDelaySec: 0.02, Standby: 2,
	}, clock)
	orch.AddHost(dataplane.NamedHost{Name: "edge", Host: host})
	scaler := autoscale.New(autoscale.Config{
		Min: 1, Max: 2, UpStreak: 1, DownStreak: 5,
		IntervalSec: 0.02, CooldownSec: 0.1,
	},
		autoscale.ServiceSource{Host: host, Service: svcScrubber, Orch: orch},
		autoscale.OrchestratorActuator{
			Orch: orch, HostName: "edge", Host: host,
			Service: svcScrubber, NewNF: newScrubber,
		}, clock)
	scaler.Start()

	send(evilFlow, traffic.BenignPayload(), 4000)
	host.WaitIdle(30 * time.Second)
	for i := 0; i < 300 && len(host.ReplicaStats(svcScrubber)) > 1; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	scaler.Stop()

	for _, ev := range scaler.Events() {
		fmt.Printf("autoscale: %s at t=%.2fs (replicas=%d backlog=%d)\n",
			ev.Decision, ev.At, ev.Replicas, ev.Backlog)
	}
	fmt.Printf("scrubber replicas after the burst: %d (retired replicas drained, VM back in standby pool: %d slots)\n",
		len(host.ReplicaStats(svcScrubber)), len(orch.Retirements()))
	fmt.Println("quarantined flows after scaling (state intact):")
	host.FlowState(svcIDS, 0).Range(func(k packet.FlowKey, _ any) bool {
		fmt.Printf("  %s\n", k)
		return true
	})
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func mustNF(_ *dataplane.Instance, err error) {
	if err != nil {
		log.Fatal(err)
	}
}
