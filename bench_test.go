// Package bench is the reproduction harness: one testing.B per table and
// figure of the paper's evaluation (§5), plus the ablation benchmarks for
// the §4.2 design choices. Run with:
//
//	go test -bench=. -benchmem
//
// Figure/table benchmarks execute the full experiment per iteration and
// report the headline quantity as a custom metric, so `-benchtime=1x`
// regenerates every result once. EXPERIMENTS.md records paper-vs-measured
// values.
package bench

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sdnfv/internal/dataplane"
	"sdnfv/internal/experiments"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
	"sdnfv/internal/traffic"
)

const benchSeed = 42

// BenchmarkFig1ControllerBottleneck regenerates Figure 1: max throughput
// vs % of packets punted to the SDN controller.
func BenchmarkFig1ControllerBottleneck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(benchSeed)
		b.ReportMetric(r.Gbps1000[0], "Gbps-at-0pct")
		b.ReportMetric(r.Gbps1000[len(r.Gbps1000)-1], "Gbps-at-25pct")
	}
}

// BenchmarkFig5Placement regenerates Figure 5: greedy vs ILP-division
// placement on the Rocketfuel-scale topology.
func BenchmarkFig5Placement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(benchSeed)
		b.ReportMetric(float64(r.GreedyFlows[0]), "greedy-flows")
		b.ReportMetric(float64(r.ILPFlows[0]), "division-flows")
	}
}

// BenchmarkTable2LatencyNoop regenerates Table 2: RTT for no-op NF chains.
func BenchmarkTable2LatencyNoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table2(benchSeed)
		b.ReportMetric(r.Rows[0].Avg, "dpdk-us")
		b.ReportMetric(r.Rows[5].Avg, "3vmseq-us")
	}
}

// BenchmarkFig6LatencyCDF regenerates Figure 6: latency CDFs with
// compute-intensive NFs.
func BenchmarkFig6LatencyCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6(benchSeed)
		med := func(label string) float64 {
			for li, l := range r.Labels {
				if l != label {
					continue
				}
				for fi, f := range r.Fractions {
					if f == 0.5 {
						return r.CDFs[li][fi]
					}
				}
			}
			return 0
		}
		b.ReportMetric(med("3VM(parallel)"), "p50-3par-us")
		b.ReportMetric(med("3VM(sequential)"), "p50-3seq-us")
	}
}

// BenchmarkFig7Throughput regenerates Figure 7: throughput vs packet size.
func BenchmarkFig7Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7(benchSeed)
		b.ReportMetric(r.OneVM[0], "1vm-64B-Mbps")
		b.ReportMetric(r.TwoSeq[0], "2seq-64B-Mbps")
	}
}

// BenchmarkFig8AntFlow regenerates Figure 8: ant-flow reclassification.
func BenchmarkFig8AntFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(benchSeed)
		b.ReportMetric(r.AntWindow[0], "ant-start-s")
	}
}

// BenchmarkFig9DDoS regenerates Figure 9: DDoS detection and scrubbing.
func BenchmarkFig9DDoS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9(benchSeed)
		b.ReportMetric(r.ScrubberAt-r.DetectedAt, "boot-delay-s")
	}
}

// BenchmarkFig10FlowSetup regenerates Figure 10: flow setups/s, SDNFV vs
// SDN.
func BenchmarkFig10FlowSetup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig10(benchSeed)
		maxSDN, maxSDNFV := 0.0, 0.0
		for j := range r.OfferedPerSec {
			if r.SDNOut[j] > maxSDN {
				maxSDN = r.SDNOut[j]
			}
			if r.SDNFVOut[j] > maxSDNFV {
				maxSDNFV = r.SDNFVOut[j]
			}
		}
		b.ReportMetric(maxSDNFV/maxSDN, "sdnfv/sdn-ratio")
	}
}

// BenchmarkFig11PolicyChange regenerates Figure 11: reaction to a policy
// change.
func BenchmarkFig11PolicyChange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11(benchSeed)
		at := func(series []float64, tm float64) float64 {
			for j, tt := range r.Times {
				if tt >= tm {
					return series[j]
				}
			}
			return series[len(series)-1]
		}
		b.ReportMetric(at(r.SDNFVOut, 70), "sdnfv-pps-t70")
		b.ReportMetric(at(r.SDNOut, 70), "sdn-pps-t70")
	}
}

// BenchmarkFig12Memcached regenerates Figure 12: memcached RTT vs request
// rate, TwemProxy vs the SDNFV NF proxy.
func BenchmarkFig12Memcached(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12(benchSeed)
		var twemMax, sdnfvMax float64
		for j, rate := range r.RatePerSec {
			if r.TwemRTTus[j] > 0 {
				twemMax = rate
			}
			if r.SDNFVRTTus[j] > 0 {
				sdnfvMax = rate
			}
		}
		b.ReportMetric(sdnfvMax/twemMax, "speedup-x")
	}
}

// BenchmarkFlowTableLookup measures the §5.1 flow-table lookup cost on the
// real table (paper: ≈30 ns).
func BenchmarkFlowTableLookup(b *testing.B) {
	t := flowtable.New()
	keys := make([]packet.FlowKey, 1024)
	for i := range keys {
		keys[i] = packet.FlowKey{
			SrcIP:   packet.IPv4(10, 0, byte(i>>8), byte(i)),
			DstIP:   packet.IPv4(10, 1, 0, 1),
			SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoUDP,
		}
		_, _ = t.Add(flowtable.Rule{
			Scope: flowtable.Port(0), Match: flowtable.ExactMatch(keys[i]),
			Actions: []flowtable.Action{flowtable.Forward(1)},
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.Lookup(flowtable.Port(0), keys[i&1023]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowTableLookupBatch measures the amortized per-packet cost of
// the batched resolver the RX loop uses: one table pass per 64-descriptor
// burst.
func BenchmarkFlowTableLookupBatch(b *testing.B) {
	t := flowtable.New()
	keys := make([]packet.FlowKey, 1024)
	for i := range keys {
		keys[i] = packet.FlowKey{
			SrcIP:   packet.IPv4(10, 0, byte(i>>8), byte(i)),
			DstIP:   packet.IPv4(10, 1, 0, 1),
			SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoUDP,
		}
		_, _ = t.Add(flowtable.Rule{
			Scope: flowtable.Port(0), Match: flowtable.ExactMatch(keys[i]),
			Actions: []flowtable.Action{flowtable.Forward(1)},
		})
	}
	const burst = 64
	scopes := make([]flowtable.ServiceID, burst)
	bkeys := make([]packet.FlowKey, burst)
	out := make([]*flowtable.Entry, burst)
	for i := range scopes {
		scopes[i] = flowtable.Port(0)
		bkeys[i] = keys[i]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += burst {
		if hits := t.LookupBatch(scopes, bkeys, out); hits != burst {
			b.Fatalf("hits = %d", hits)
		}
	}
}

// BenchmarkFlowTableLookupContended measures the lock-free lookup with all
// CPUs reading one table while a writer churns rules — the seed's RWMutex
// design serialized the counter writes here.
func BenchmarkFlowTableLookupContended(b *testing.B) {
	t := flowtable.New()
	keys := make([]packet.FlowKey, 1024)
	for i := range keys {
		keys[i] = packet.FlowKey{
			SrcIP:   packet.IPv4(10, 0, byte(i>>8), byte(i)),
			DstIP:   packet.IPv4(10, 1, 0, 1),
			SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoUDP,
		}
		_, _ = t.Add(flowtable.Rule{
			Scope: flowtable.Port(0), Match: flowtable.ExactMatch(keys[i]),
			Actions: []flowtable.Action{flowtable.Forward(1)},
		})
	}
	churnKey := keys[0]
	stop := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			t.UpdateDefault(flowtable.ServiceID(1), flowtable.MatchAll,
				flowtable.Forward(2), false)
			// Exact add replaces in place (same key ⇒ same rule identity),
			// so the table stays bounded for the whole benchmark.
			_, _ = t.Add(flowtable.Rule{
				Scope: flowtable.ServiceID(1), Match: flowtable.ExactMatch(churnKey),
				Actions: []flowtable.Action{flowtable.Forward(2)},
			})
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := t.Lookup(flowtable.Port(0), keys[i&1023]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.StopTimer()
	close(stop)
}

// BenchmarkMinQueueSelect measures the §5.1 queue-depth replica pick
// (paper: ≈15 ns).
func BenchmarkMinQueueSelect(b *testing.B) {
	lens := [4]int{5, 7, 2, 9}
	sink := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best, bestLen := 0, lens[0]
		for j := 1; j < len(lens); j++ {
			if lens[j] < bestLen {
				best, bestLen = j, lens[j]
			}
		}
		sink += best
		lens[i&3] = (lens[i&3] + i) & 15
	}
	_ = sink
}

// engineThroughput pushes n packets through a 1-NF chain on the real
// engine and returns packets/second.
func engineThroughput(b *testing.B, cfg dataplane.Config, n int) float64 {
	b.Helper()
	cfg.PoolSize = 2048
	cfg.TXThreads = 1
	h := dataplane.NewHost(cfg)
	var done atomic.Int64
	_, _ = h.AddNF(10, &nf.BatchAdapter{FnName: "noop", RO: true}, 0)
	_, _ = h.Table().Add(flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
		Actions: []flowtable.Action{flowtable.Forward(10)}})
	_, _ = h.Table().Add(flowtable.Rule{Scope: flowtable.ServiceID(10), Match: flowtable.MatchAll,
		Actions: []flowtable.Action{flowtable.Out(1)}})
	h.BindDefault(func(int, []byte, *dataplane.Desc) { done.Add(1) })
	if err := h.Start(); err != nil {
		b.Fatal(err)
	}
	defer h.Stop()
	factory := traffic.NewFactory()
	frame, _ := factory.Frame(traffic.Flow(1, 256, 0), 0)
	start := time.Now()
	for i := 0; i < n; i++ {
		for h.Inject(0, frame) != nil {
			time.Sleep(time.Microsecond)
		}
	}
	// Packets can legitimately drop inside the pipeline when an NF input
	// ring fills; wait until every injected packet is accounted for
	// (delivered or dropped), then rate the deliveries.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if done.Load()+int64(h.Stats().Drops) >= int64(n) {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	return float64(done.Load()) / time.Since(start).Seconds()
}

// BenchmarkAblationLookupCache compares the real engine with and without
// descriptor-carried flow-entry caching (§4.2 "Caching flow table
// lookups").
func BenchmarkAblationLookupCache(b *testing.B) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"cached", false}, {"uncached", true}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pps := engineThroughput(b, dataplane.Config{DisableLookupCache: tc.disable}, 20000)
				b.ReportMetric(pps, "pkts/s")
			}
		})
	}
}

// BenchmarkAblationLoadBalance compares the replica load-balancing
// policies of §4.2 on the real engine.
func BenchmarkAblationLoadBalance(b *testing.B) {
	for _, tc := range []struct {
		name   string
		policy dataplane.LBPolicy
	}{
		{"roundrobin", dataplane.LBRoundRobin},
		{"queuedepth", dataplane.LBQueueDepth},
		{"flowhash", dataplane.LBFlowHash},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pps := engineThroughput(b, dataplane.Config{LoadBalancer: tc.policy}, 20000)
				b.ReportMetric(pps, "pkts/s")
			}
		})
	}
}

// churnFlow returns the unique key and scope of churn-flow i. The low
// 32 bits of i are embedded verbatim (uniqueness), the mixed bits give
// the shard hash and port spread, and flows fan out over many service
// scopes so copy-on-write clones stay per-scope-sized.
func churnFlow(i uint64) (flowtable.ServiceID, packet.FlowKey) {
	x := (i + 1) * 0x9E3779B97F4A7C15
	x ^= x >> 29
	return flowtable.ServiceID(1 + i%256), packet.FlowKey{
		SrcIP:   packet.IPv4(10, byte(i>>16), byte(i>>8), byte(i)),
		DstIP:   packet.IPv4(10, 2, byte(i>>24), 1),
		SrcPort: uint16(x >> 32), DstPort: 80, Proto: packet.ProtoUDP,
	}
}

// BenchmarkFlowChurn holds the table at a steady state of >=1M live
// flows with idle expiry armed and measures the churn cycle: a Zipf-ish
// lookup phase keeps the popular head hot, the coarse clock advances,
// the sweeper reaps the cold tail, and fresh flows replace the evicted
// ones exactly — live count is invariant across rounds. After the
// measured rounds the whole population is mass-expired and the heap
// must shrink (right-sized map rebuilds), which is the bounded-memory
// claim of the lifecycle design.
func BenchmarkFlowChurn(b *testing.B) {
	const (
		liveFlows = 1 << 20 // steady-state live population (>=1M)
		idle      = time.Second
		tick      = idle / 4 // flows untouched for 4 rounds expire
		touches   = 1 << 18  // Zipf-ish lookups per round
		batch     = 8192
	)
	tb := flowtable.New()
	tb.SetDefaultTimeouts(idle, 0)

	addRange := func(from, to uint64) {
		rules := make([]flowtable.Rule, 0, batch)
		for i := from; i < to; i++ {
			scope, key := churnFlow(i)
			rules = append(rules, flowtable.Rule{
				Scope: scope, Match: flowtable.ExactMatch(key),
				Actions: []flowtable.Action{flowtable.Forward(1)},
			})
			if len(rules) == batch || i == to-1 {
				if _, err := tb.AddBatch(rules); err != nil {
					b.Fatal(err)
				}
				rules = rules[:0]
			}
		}
	}
	// Seed in quarters with the clock advancing between them, so the
	// population starts age-staggered across the idle window and the
	// cold tail begins expiring on the very first measured round.
	total := uint64(0)
	for q := 0; q < 4; q++ {
		next := uint64(liveFlows) * uint64(q+1) / 4
		addRange(total, next)
		total = next
		if q < 3 {
			tb.Advance(tick)
		}
	}
	if got := tb.Stats().Rules; got < liveFlows {
		b.Fatalf("seeded %d live flows, want %d", got, liveFlows)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapSteady := ms.HeapAlloc

	var touchNs, sweepNs int64
	var lookups, churned uint64
	rng := uint64(benchSeed)
	b.ReportAllocs()
	b.ResetTimer()
	for r := 0; r < b.N; r++ {
		// Zipf-ish touch phase: squared-uniform rank biased toward the
		// newest flows, so a popular head stays hot while the cold tail
		// ages out. Misses (already-expired tail picks) are legitimate.
		t0 := time.Now()
		for j := 0; j < touches; j++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			u := float64(rng>>11) / float64(1<<53)
			i := total - 1 - uint64(u*u*float64(liveFlows))
			scope, key := churnFlow(i)
			_, _ = tb.Lookup(scope, key)
		}
		touchNs += time.Since(t0).Nanoseconds()
		lookups += touches

		tb.Advance(tick)
		t0 = time.Now()
		evicted := tb.Sweep()
		sweepNs += time.Since(t0).Nanoseconds()

		// Exact replacement: the live population is invariant.
		addRange(total, total+uint64(len(evicted)))
		total += uint64(len(evicted))
		churned += 2 * uint64(len(evicted))
	}
	b.StopTimer()
	live := tb.Stats().Rules
	if live < liveFlows {
		b.Fatalf("steady state slipped to %d live flows", live)
	}
	b.ReportMetric(float64(live), "live-flows")
	if lookups > 0 {
		b.ReportMetric(float64(touchNs)/float64(lookups), "lookup-ns")
	}
	if churned > 0 {
		b.ReportMetric(float64(churned)/float64(b.N), "churned/round")
	}

	// Mass expiry: everything idles out, the sweeper rebuilds shard maps
	// right-sized, and the heap must come back down.
	tb.Advance(2 * idle)
	for len(tb.Sweep()) > 0 {
	}
	if got := tb.Stats().Rules; got != 0 {
		b.Fatalf("drain left %d rules", got)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapDrained := ms.HeapAlloc
	if heapDrained > heapSteady/2 {
		b.Fatalf("heap did not shrink after mass expiry: steady=%dMB drained=%dMB",
			heapSteady>>20, heapDrained>>20)
	}
	st := tb.Stats()
	if st.Adds != uint64(st.Rules)+st.Deleted+st.Evicted() {
		b.Fatalf("lifecycle identity broken: %+v", st)
	}

	b.ReportMetric(float64(sweepNs)/float64(uint64(b.N)*liveFlows), "sweep-ns/live-flow")
	b.ReportMetric(float64(heapSteady)/float64(liveFlows), "heap-B/live-flow")
	if churned > 0 {
		b.ReportMetric(float64(touchNs+sweepNs)/float64(churned), "churn-ns/flow")
	}
}

// BenchmarkMicroCosts regenerates the §5.1 micro-cost table.
func BenchmarkMicroCosts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Micro(benchSeed)
		b.ReportMetric(r.LookupNs, "lookup-ns")
		b.ReportMetric(r.MinQueueNs, "minqueue-ns")
	}
}
