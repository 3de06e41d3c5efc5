// Video optimization (§2.2 use case 2, §5.3): Video Detector -> Policy
// Engine -> {Transcoder | out}, with the policy flipped mid-run.
//
// Because every packet of a video flow passes through the Policy Engine NF
// (not just the first packets of new flows, as in a classic SDN), flipping
// the policy redirects existing flows immediately — the property Fig. 11
// measures.
//
//	go run ./examples/video
package main

import (
	"fmt"
	"log"
	"time"

	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/nfs"
	"sdnfv/internal/packet"
	"sdnfv/internal/traffic"
)

const (
	svcDetector   flowtable.ServiceID = 1
	svcPolicy     flowtable.ServiceID = 2
	svcTranscoder flowtable.ServiceID = 3
)

func main() {
	g := graph.New("video")
	for _, v := range []graph.Vertex{
		{Service: svcDetector, Name: "video-detector", ReadOnly: true},
		{Service: svcPolicy, Name: "policy-engine", ReadOnly: true},
		{Service: svcTranscoder, Name: "transcoder", ReadOnly: false},
	} {
		if err := g.AddVertex(v); err != nil {
			log.Fatal(err)
		}
	}
	must(g.AddEdge(graph.Source, svcDetector, true))
	must(g.AddEdge(svcDetector, svcPolicy, true))
	must(g.AddEdge(svcDetector, graph.Sink, false)) // non-video bypass
	must(g.AddEdge(svcPolicy, graph.Sink, true))    // default: no transcoding
	must(g.AddEdge(svcPolicy, svcTranscoder, false))
	must(g.AddEdge(svcTranscoder, graph.Sink, true))
	fmt.Print(g)

	host := dataplane.NewHost(dataplane.Config{PoolSize: 2048})
	policy := &nfs.PolicyState{}
	detector := &nfs.VideoDetector{PolicyEngine: svcPolicy, Bypass: flowtable.Port(1)}
	engine := &nfs.PolicyEngine{State: policy, Transcoder: svcTranscoder, Bypass: flowtable.Port(1)}
	transcoder := &nfs.Transcoder{DropRatio: 0.5}
	mustNF(host.AddNF(svcDetector, detector, 0))
	mustNF(host.AddNF(svcPolicy, engine, 0))
	mustNF(host.AddNF(svcTranscoder, transcoder, 0))
	if err := host.InstallGraph(g, 0, 1); err != nil {
		log.Fatal(err)
	}

	var delivered int
	host.BindDefault(func(int, []byte, *dataplane.Desc) { delivered++ })
	if err := host.Start(); err != nil {
		log.Fatal(err)
	}
	defer host.Stop()

	factory := traffic.NewFactory()
	videoFlow := traffic.FlowSpec{Key: packet.FlowKey{
		SrcIP: packet.IPv4(10, 3, 0, 1), DstIP: packet.IPv4(10, 4, 0, 1),
		SrcPort: 8080, DstPort: 52000, Proto: packet.ProtoTCP,
	}}
	htmlFlow := traffic.FlowSpec{Key: packet.FlowKey{
		SrcIP: packet.IPv4(10, 3, 0, 2), DstIP: packet.IPv4(10, 4, 0, 2),
		SrcPort: 80, DstPort: 52001, Proto: packet.ProtoTCP,
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

	// Phase 1: policy off — video passes untouched.
	send(videoFlow, traffic.HTTPVideoResponse(4000), 500)
	send(htmlFlow, traffic.HTTPPlainResponse(), 500)
	host.WaitIdle(5 * time.Second)
	phase1 := delivered

	// Phase 2: flip the policy — the SAME video flow now transcodes
	// (half its packets dropped); the html flow is untouched.
	policy.SetThrottle(true)
	send(videoFlow, traffic.HTTPVideoResponse(4000), 500)
	send(htmlFlow, traffic.HTTPPlainResponse(), 500)
	host.WaitIdle(5 * time.Second)
	phase2 := delivered - phase1

	fmt.Printf("\nphase 1 (policy off): delivered %d of 1000\n", phase1)
	fmt.Printf("phase 2 (policy on):  delivered %d of 1000 (video halved by transcoder)\n", phase2)
	fmt.Printf("detector: video=%d other=%d flows\n", detector.VideoFlows(), detector.OtherFlows())
	fmt.Printf("policy engine: passed=%d throttled=%d\n", engine.Passed(), engine.Throttled())
	fmt.Printf("transcoder: emitted=%d dropped=%d\n", transcoder.Emitted(), transcoder.Dropped())
	// SDK v2: the detector's per-flow classifications live in the
	// engine-owned flow store, inspectable from the manager side.
	fmt.Printf("detector flow store holds %d classified flows\n",
		host.FlowState(svcDetector, 0).Len())
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
