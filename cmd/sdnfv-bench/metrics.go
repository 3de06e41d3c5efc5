package main

import "slices"

// metricDef names one metric the harness prints. BENCHMARK.json lists
// the same names (a unit test holds the two together): the end-to-end
// ones are gated by the pipeline, the per-layer ones explain them.
type metricDef struct {
	name string
	unit string
}

var endToEnd = []metricDef{
	{name: "throughput_pps", unit: "1/s"},
	{name: "latency_p50_us", unit: "us"},
	{name: "delivery_ratio", unit: "ratio"},
	{name: "heap_mb", unit: "MiB"},
	{name: "setup_s", unit: "s"},
}

var perLayer = []metricDef{
	{name: "packet.parse_ns", unit: "ns"},
	{name: "mempool.cycle_ns", unit: "ns"},
	{name: "mempool.alloc_fails", unit: "count"},
	{name: "mempool.in_use_peak", unit: "count"},
	{name: "ring.handoff_ns", unit: "ns"},
	{name: "flowtable.lookup_ns", unit: "ns"},
	{name: "flowtable.add_ns", unit: "ns"},
	{name: "flowtable.sweep_ns_per_rule", unit: "ns"},
	{name: "flowtable.sweep_busy_ratio", unit: "ratio"},
	{name: "flowtable.evictions", unit: "count"},
	{name: "flowtable.expired_lookups", unit: "count"},
	{name: "flowtable.rules", unit: "count"},
	{name: "flowtable.heap_bytes_per_rule", unit: "B"},
	{name: "nf.firewall_ns", unit: "ns"},
	{name: "nf.ids_ns", unit: "ns"},
	{name: "nf.batch_size", unit: "count"},
	{name: "nf.service_ns", unit: "ns"},
	{name: "nf.queue_depth_mean", unit: "count"},
	{name: "dataplane.ingest_ns", unit: "ns"},
	{name: "dataplane.ingest_burst", unit: "count"},
	{name: "dataplane.ingest_refused", unit: "count"},
	{name: "dataplane.miss_ratio", unit: "ratio"},
	{name: "dataplane.overflows", unit: "count"},
	{name: "dataplane.drops", unit: "count"},
	{name: "dataplane.tx_drops", unit: "count"},
	{name: "dataplane.rx_drops", unit: "count"},
	{name: "portio.egress_ns", unit: "ns"},
	{name: "portio.rx_burst", unit: "count"},
	{name: "portio.tx_drops", unit: "count"},
	{name: "portio.rx_frames", unit: "count"},
	{name: "portio.tx_frames", unit: "count"},
	{name: "openflow.codec_ns", unit: "ns"},
	{name: "control.resolve_ns", unit: "ns"},
	{name: "control.batch_size", unit: "count"},
	{name: "control.channel_ns", unit: "ns"},
	{name: "control.notices_refused", unit: "count"},
	{name: "controller.requests", unit: "count"},
	{name: "controller.rejected", unit: "count"},
	{name: "controller.flowmods", unit: "count"},
	{name: "app.compile_ns", unit: "ns"},
	{name: "gen.latency_p99_us", unit: "us"},
	{name: "gen.lateness_p99_us", unit: "us"},
	{name: "gen.refused", unit: "count"},
	{name: "gen.round_median_pps", unit: "1/s"},
	{name: "gen.latency_p50_median_us", unit: "us"},
	{name: "gen.round_spread", unit: "ratio"},
	{name: "gen.cpu_ns_per_pkt", unit: "ns"},
	{name: "runtime.allocs_per_pkt", unit: "count"},
	{name: "runtime.gc_cycles", unit: "count"},
	{name: "runtime.gc_pause_ms", unit: "ms"},
	{name: "env.canary_ns", unit: "ns"},
	{name: "env.canary_spread", unit: "ratio"},
	{name: "trace.overhead_ratio", unit: "ratio"},
	{name: "trace.unattributed_ratio", unit: "ratio"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func collect(ps []*pass, f func(*pass) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// probeResults are the direct layer timings of a traced run.
type probeResults struct {
	parseNs, mempoolNs, ringNs, codecNs float64
	lookupNs, addNs, sweepNsPerRule     float64
}

// summarise turns the passes of one workload into metric values.
// End-to-end metrics and counter deltas come from the untraced passes
// only; the traced pass contributes what only it can measure.
func summarise(w *workload, untraced []*pass, traced *pass, pr *probeResults) map[string]float64 {
	m := map[string]float64{}
	var rates, canary, p50s []float64
	var c counterSet
	var offered, delivered, refused, depthSum, depthN float64
	for _, p := range untraced {
		rates = append(rates, p.rates...)
		p50s = append(p50s, p.p50us...)
		canary = append(canary, p.canary...)
		for i := range c {
			c[i] += p.counters[i]
		}
		offered += float64(p.offered)
		delivered += float64(p.delivered)
		refused += float64(p.refused)
		depthSum += p.depthSum
		depthN += p.depthN
		m["mempool.in_use_peak"] = max(m["mempool.in_use_peak"], p.inUsePeak)
	}

	// Both are the best decile of one-second windows, not their median:
	// on a shared two-core machine whatever else runs can only slow a
	// window down, so the best windows are the ones that measure the
	// code, and they repeat where the median follows the neighbours (A/A
	// with a disturbed quarter of an hour in it: spread of chain_steady's
	// median of rounds 0.15, of its upper decile 0.04). The medians are
	// reported beside them under gen.*.
	slices.Sort(rates)
	slices.Sort(p50s)
	m["throughput_pps"] = quantile(rates, 0.90)
	m["latency_p50_us"] = quantile(p50s, 0.10)
	m["gen.round_median_pps"] = median(rates)
	m["gen.latency_p50_median_us"] = median(p50s)
	m["delivery_ratio"] = ratio(delivered, offered)
	m["heap_mb"] = median(collect(untraced, func(p *pass) float64 { return p.heapMB }))
	m["setup_s"] = median(collect(untraced, func(p *pass) float64 { return p.setupS }))

	m["mempool.alloc_fails"] = c[cAllocFails]
	m["flowtable.sweep_busy_ratio"] = ratio(c[cSweepNs], c[cWallNs])
	m["flowtable.evictions"] = c[cEvictions]
	m["flowtable.expired_lookups"] = c[cExpiredLookups]
	m["flowtable.rules"] = median(collect(untraced, func(p *pass) float64 { return float64(p.rules) }))
	m["flowtable.heap_bytes_per_rule"] = median(collect(untraced, func(p *pass) float64 { return ratio(p.heapTableB, float64(p.rules)) }))
	m["nf.service_ns"] = median(collect(untraced, func(p *pass) float64 { return p.serviceNs }))
	m["nf.queue_depth_mean"] = ratio(depthSum, depthN)
	m["dataplane.miss_ratio"] = ratio(c[cMisses], c[cRx])
	m["dataplane.overflows"] = c[cOverflows]
	m["dataplane.drops"] = c[cDrops]
	m["dataplane.tx_drops"] = c[cTxDrops]
	m["dataplane.rx_drops"] = c[cRxDrops]
	m["portio.tx_drops"] = c[cPortTxDrops]
	m["portio.rx_frames"] = c[cPortRxFrames]
	m["portio.tx_frames"] = c[cPortTxFrames]
	m["control.notices_refused"] = c[cNoticesRefused]
	m["controller.requests"] = c[cCtlRequests]
	m["controller.rejected"] = c[cCtlRejected]
	m["controller.flowmods"] = c[cCtlFlowMods]
	m["gen.latency_p99_us"] = median(collect(untraced, func(p *pass) float64 { return p.p99us }))
	m["gen.lateness_p99_us"] = median(collect(untraced, func(p *pass) float64 { return p.lateUs }))
	m["gen.refused"] = refused
	m["gen.round_spread"] = spread(rates)
	m["gen.cpu_ns_per_pkt"] = ratio(c[cCPUNs], c[cDelivered])
	m["runtime.allocs_per_pkt"] = ratio(c[cMallocs], c[cDelivered])
	m["runtime.gc_cycles"] = c[cGCCycles]
	m["runtime.gc_pause_ms"] = c[cGCPauseNs] / 1e6
	m["env.canary_ns"] = median(canary)
	m["env.canary_spread"] = spread(canary)

	if traced == nil {
		return m
	}
	tr := traced.tr
	m["packet.parse_ns"] = pr.parseNs
	m["mempool.cycle_ns"] = pr.mempoolNs
	m["ring.handoff_ns"] = pr.ringNs
	m["flowtable.lookup_ns"] = pr.lookupNs
	m["flowtable.add_ns"] = pr.addNs
	m["flowtable.sweep_ns_per_rule"] = pr.sweepNsPerRule
	m["openflow.codec_ns"] = pr.codecNs
	m["nf.firewall_ns"] = tr.firewall.perItem()
	m["nf.ids_ns"] = tr.ids.perItem()
	m["nf.batch_size"] = tr.ids.perCall()
	m["dataplane.ingest_ns"] = tr.ingest.perItem()
	m["dataplane.ingest_burst"] = tr.ingest.perCall()
	m["dataplane.ingest_refused"] = float64(tr.ingestRefused.Load())
	m["portio.egress_ns"] = tr.egress.perItem()
	m["portio.rx_burst"] = 0 // frames per IngestBurst from a driver's RX pump; only wire_udp has one
	if w.wire {
		m["portio.rx_burst"] = tr.ingest.perCall()
	}
	m["control.resolve_ns"] = tr.resolve.perItem()
	m["control.batch_size"] = tr.resolve.perCall()
	m["app.compile_ns"] = tr.compil.perItem()
	m["control.channel_ns"] = max(m["control.resolve_ns"]-m["app.compile_ns"], 0)
	m["trace.overhead_ratio"] = ratio(median(traced.rates), m["gen.round_median_pps"])

	// Time per packet the decorators and probes account for, against the
	// CPU time per packet the traced pass used. The chain does three
	// table lookups (ingress, and one look-ahead per hop) and five ring
	// hand-offs (NIC ring, in and out ring of each NF) per packet; a miss
	// adds one compile, one codec pair and the install of its rules.
	miss := ratio(traced.counters[cMisses], traced.counters[cRx])
	attributed := m["dataplane.ingest_ns"] + m["nf.firewall_ns"] + m["nf.ids_ns"] + m["portio.egress_ns"] +
		3*pr.lookupNs + 5*pr.ringNs + miss*(m["app.compile_ns"]+pr.codecNs+3*pr.addNs)
	cpu := ratio(traced.counters[cCPUNs], traced.counters[cDelivered])
	m["trace.unattributed_ratio"] = 1 - ratio(attributed, cpu)
	return m
}
