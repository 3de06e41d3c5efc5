package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkGolden compares r.Render() with testdata/<name>.golden, the output
// of the same deterministic runner at seed 42, so a refactor of the
// simulator or the engine that moves any simulated number fails here.
func checkGolden(t *testing.T, r Result) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", r.Name()+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Render(); got != string(want) {
		t.Fatalf("%s render differs from its golden file:\n--- got\n%s\n--- want\n%s", r.Name(), got, want)
	}
}

// The experiment tests assert the paper's qualitative shapes, not absolute
// numbers — who wins, by roughly what factor, and where crossovers fall.

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig5", "table2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "micro", "scale", "cluster", "churn", "wire", "reconcile"}
	have := map[string]bool{}
	for _, n := range Names() {
		have[n] = true
	}
	for _, n := range want {
		if !have[n] {
			t.Errorf("experiment %q not registered", n)
		}
	}
	if _, err := Run("nope", 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFig1Shape(t *testing.T) {
	r := Fig1(42)
	checkGolden(t, r)
	if len(r.Pcts) == 0 || r.Pcts[0] != 0 {
		t.Fatalf("pcts = %v", r.Pcts)
	}
	// At 0%: near line rate. At 25%: a small fraction of it.
	if r.Gbps1000[0] < 8 {
		t.Fatalf("0%% throughput = %v, want near 10", r.Gbps1000[0])
	}
	last := len(r.Pcts) - 1
	if r.Gbps1000[last] > r.Gbps1000[0]/5 {
		t.Fatalf("throughput did not collapse: %v -> %v", r.Gbps1000[0], r.Gbps1000[last])
	}
	// 1000B packets always sustain at least as much as 256B (same punt
	// fraction means the controller limit binds at the packet level).
	for i := range r.Pcts {
		if r.Gbps256[i] > r.Gbps1000[i]+0.5 {
			t.Fatalf("256B above 1000B at %v%%: %v vs %v", r.Pcts[i], r.Gbps256[i], r.Gbps1000[i])
		}
	}
	if !strings.Contains(r.Render(), "Figure 1") {
		t.Fatal("render missing title")
	}
}

func TestTable2Shape(t *testing.T) {
	r := Table2(42)
	checkGolden(t, r)
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	get := func(label string) Table2Row {
		for _, row := range r.Rows {
			if row.Label == label {
				return row
			}
		}
		t.Fatalf("row %q missing", label)
		return Table2Row{}
	}
	dpdk := get("0VM (dpdk)")
	one := get("1VM")
	par3 := get("3VM (parallel)")
	seq2 := get("2VM (sequential)")
	seq3 := get("3VM (sequential)")
	// Ordering: dpdk < 1VM < 3VM par < 2VM seq < 3VM seq (paper Table 2).
	if !(dpdk.Avg < one.Avg && one.Avg < par3.Avg && par3.Avg < seq2.Avg && seq2.Avg < seq3.Avg) {
		t.Fatalf("ordering violated: %v", r.Rows)
	}
	// Magnitudes: base ≈26.7 µs, 3VM seq ≈30 µs.
	if dpdk.Avg < 24 || dpdk.Avg > 29 {
		t.Fatalf("dpdk avg = %v, want ≈26.7", dpdk.Avg)
	}
	if seq3.Avg-dpdk.Avg < 2 || seq3.Avg-dpdk.Avg > 5 {
		t.Fatalf("3VM seq delta = %v, want ≈3.3", seq3.Avg-dpdk.Avg)
	}
}

func TestFig6ParallelBeatsSequential(t *testing.T) {
	r := Fig6(42)
	checkGolden(t, r)
	idx := map[string]int{}
	for i, l := range r.Labels {
		idx[l] = i
	}
	median := func(label string) float64 {
		for i, f := range r.Fractions {
			if f == 0.5 {
				return r.CDFs[idx[label]][i]
			}
		}
		t.Fatal("no median fraction")
		return 0
	}
	if !(median("3VM(parallel)") < median("2VM(sequential)")) {
		t.Fatalf("3 parallel VMs (%.1f) not faster than 2 sequential (%.1f)",
			median("3VM(parallel)"), median("2VM(sequential)"))
	}
	if !(median("1VM") < median("3VM(sequential)")) {
		t.Fatal("chain latency not increasing")
	}
}

func TestFig7Shape(t *testing.T) {
	r := Fig7(42)
	checkGolden(t, r)
	// At 64B: dpdk > 1VM > 2par > 2seq; 1VM ≈ 5 Gbps.
	if !(r.DPDK[0] > r.OneVM[0] && r.OneVM[0] >= r.TwoPar[0] && r.TwoPar[0] > r.TwoSeq[0]) {
		t.Fatalf("64B ordering: dpdk=%v 1vm=%v 2par=%v 2seq=%v", r.DPDK[0], r.OneVM[0], r.TwoPar[0], r.TwoSeq[0])
	}
	if r.OneVM[0] < 4000 || r.OneVM[0] > 6500 {
		t.Fatalf("1VM at 64B = %v Mbps, want ≈5000", r.OneVM[0])
	}
	// At 1024B everything converges near 10 Gbps.
	last := len(r.Sizes) - 1
	for _, v := range []float64{r.DPDK[last], r.OneVM[last], r.TwoPar[last], r.TwoSeq[last]} {
		if v < 9000 {
			t.Fatalf("1024B throughput = %v, want ≈9800", v)
		}
	}
}

func TestFig8AntPhase(t *testing.T) {
	r := Fig8(42)
	checkGolden(t, r)
	if r.AntWindow[0] < 50 || r.AntWindow[0] > 60 {
		t.Fatalf("ant phase started at %v, want ≈51-56", r.AntWindow[0])
	}
	if r.AntWindow[1] < 105 || r.AntWindow[1] > 115 {
		t.Fatalf("ant phase ended at %v, want ≈105-110", r.AntWindow[1])
	}
	at := func(tm float64) (f1, f2 float64) {
		for i, tt := range r.Times {
			if tt >= tm {
				return r.Flow1[i], r.Flow2[i]
			}
		}
		t.Fatalf("no sample at %v", tm)
		return 0, 0
	}
	beforeF1, _ := at(40)
	duringF1, _ := at(80)
	afterF1, _ := at(160)
	// The ant phase slashes Flow 1's latency; it rises back afterwards.
	if duringF1 > beforeF1/2 {
		t.Fatalf("ant reroute ineffective: %v -> %v", beforeF1, duringF1)
	}
	if afterF1 < beforeF1*0.7 {
		t.Fatalf("latency did not rise back: %v vs %v", afterF1, beforeF1)
	}
}

func TestFig9Mitigation(t *testing.T) {
	r := Fig9(42)
	checkGolden(t, r)
	if r.DetectedAt == 0 || r.ScrubberAt == 0 {
		t.Fatal("attack never detected")
	}
	// VM boot delay ≈ 7.75 s after detection.
	boot := r.ScrubberAt - r.DetectedAt
	if boot < 7.5 || boot > 8.5 {
		t.Fatalf("boot delay = %v, want ≈7.75", boot)
	}
	at := func(series []float64, tm float64) float64 {
		for i, tt := range r.Times {
			if tt >= tm {
				return series[i]
			}
		}
		return series[len(series)-1]
	}
	// Incoming keeps rising after mitigation; outgoing returns to ≈0.5.
	lateIn := at(r.Incoming, r.ScrubberAt+30)
	lateOut := at(r.Outgoing, r.ScrubberAt+30)
	if lateIn < 3 {
		t.Fatalf("incoming = %v, want still rising", lateIn)
	}
	if lateOut > 0.8 {
		t.Fatalf("outgoing = %v, want ≈0.5 after scrubbing", lateOut)
	}
	// Detection near the 3.2 Gbps threshold crossing.
	detIn := at(r.Incoming, r.DetectedAt)
	if detIn < 2.5 || detIn > 4 {
		t.Fatalf("incoming at detection = %v, want ≈3.2", detIn)
	}
}

func TestFig10NineTimes(t *testing.T) {
	r := Fig10(42)
	checkGolden(t, r)
	maxSDN, maxSDNFV := 0.0, 0.0
	for i := range r.OfferedPerSec {
		if r.SDNOut[i] > maxSDN {
			maxSDN = r.SDNOut[i]
		}
		if r.SDNFVOut[i] > maxSDNFV {
			maxSDNFV = r.SDNFVOut[i]
		}
	}
	ratio := maxSDNFV / maxSDN
	if ratio < 7 || ratio > 11 {
		t.Fatalf("SDNFV/SDN max ratio = %v, want ≈9", ratio)
	}
	// SDN saturates near 1000/s.
	if maxSDN < 800 || maxSDN > 1500 {
		t.Fatalf("SDN max = %v, want ≈1000-1100", maxSDN)
	}
	// SDNFV tracks offered load until its own cap.
	if r.SDNFVOut[2] != r.OfferedPerSec[2] {
		t.Fatalf("SDNFV not linear at %v flows/s", r.OfferedPerSec[2])
	}
}

func TestFig11PolicyLag(t *testing.T) {
	r := Fig11(42)
	checkGolden(t, r)
	at := func(series []float64, tm float64) float64 {
		for i, tt := range r.Times {
			if tt >= tm {
				return series[i]
			}
		}
		return series[len(series)-1]
	}
	base := at(r.SDNFVOut, 30)
	target := base / 2
	// Shortly after the policy starts, SDNFV is at target; SDN lags well
	// above it.
	sdnfvAt70 := at(r.SDNFVOut, 70)
	sdnAt70 := at(r.SDNOut, 70)
	if sdnfvAt70 > target*1.1 {
		t.Fatalf("SDNFV at t=70: %v, want ≈%v", sdnfvAt70, target)
	}
	if sdnAt70 < target*1.2 {
		t.Fatalf("SDN at t=70: %v — should lag above target %v", sdnAt70, target)
	}
	// By the end of the policy window the SDN system has converged.
	if at(r.SDNOut, 235) > target*1.15 {
		t.Fatalf("SDN never converged: %v", at(r.SDNOut, 235))
	}
	// After the policy lifts, SDNFV snaps back; SDN again lags below.
	if at(r.SDNFVOut, 260) < base*0.95 {
		t.Fatalf("SDNFV did not recover: %v", at(r.SDNFVOut, 260))
	}
	if at(r.SDNOut, 260) > base*0.9 {
		t.Fatalf("SDN recovered too fast: %v", at(r.SDNOut, 260))
	}
}

func TestFig12HundredfoldGap(t *testing.T) {
	r := Fig12(42)
	checkGolden(t, r)
	// TwemProxy overloads between 90k and 120k req/s.
	var twemMax float64
	for i, rate := range r.RatePerSec {
		if r.TwemRTTus[i] > 0 {
			twemMax = rate
		}
	}
	if twemMax < 60e3 || twemMax > 120e3 {
		t.Fatalf("TwemProxy max rate = %v, want ≈90k", twemMax)
	}
	// SDNFV sustains 9.2M req/s.
	var sdnfvMax float64
	for i, rate := range r.RatePerSec {
		if r.SDNFVRTTus[i] > 0 {
			sdnfvMax = rate
		}
	}
	if sdnfvMax < 9e6 {
		t.Fatalf("SDNFV max rate = %v, want ≥9.2M", sdnfvMax)
	}
	gap := sdnfvMax / twemMax
	if gap < 50 || gap > 150 {
		t.Fatalf("gap = %vx, want ≈102x", gap)
	}
	// At low rate SDNFV's RTT is lower than TwemProxy's.
	if r.SDNFVRTTus[0] >= r.TwemRTTus[0] {
		t.Fatalf("low-rate RTTs: sdnfv=%v twem=%v", r.SDNFVRTTus[0], r.TwemRTTus[0])
	}
}

func TestMicroCosts(t *testing.T) {
	r := Micro(42)
	// Same order of magnitude as the paper's 30 ns / 15 ns. Race-detector
	// instrumentation slows the atomic-heavy lookup path by well over an
	// order of magnitude, so scale the ceilings under -race.
	lookupMax, minQueueMax := 500.0, 100.0
	if raceEnabled {
		lookupMax *= 50
		minQueueMax *= 50
	}
	if r.LookupNs <= 0 || r.LookupNs > lookupMax {
		t.Fatalf("lookup = %v ns", r.LookupNs)
	}
	if r.BatchLookupNs <= 0 || r.BatchLookupNs > lookupMax {
		t.Fatalf("batched lookup = %v ns", r.BatchLookupNs)
	}
	if r.MinQueueNs <= 0 || r.MinQueueNs > minQueueMax {
		t.Fatalf("min-queue = %v ns", r.MinQueueNs)
	}
	if r.SDNLookupMs != 31 {
		t.Fatalf("sdn lookup = %v ms", r.SDNLookupMs)
	}
}

func TestFig5Shape(t *testing.T) {
	r := Fig5(42)
	checkGolden(t, r)
	// The division heuristic must accommodate strictly more flows than
	// greedy at base capacity (the paper's ≈3× claim).
	if r.ILPFlows[0] <= r.GreedyFlows[0] {
		t.Fatalf("division (%d flows) not better than greedy (%d)", r.ILPFlows[0], r.GreedyFlows[0])
	}
	if float64(r.ILPFlows[0])/float64(r.GreedyFlows[0]) < 1.5 {
		t.Fatalf("gap too small: %d vs %d", r.ILPFlows[0], r.GreedyFlows[0])
	}
	// Capacity scaling helps both.
	last := len(r.CapScales) - 1
	if r.GreedyFlows[last] <= r.GreedyFlows[0] || r.ILPFlows[last] <= r.ILPFlows[0] {
		t.Fatal("capacity scaling had no effect")
	}
	// Greedy exhausts cores quickly in the left sweep: at its largest
	// feasible flow count the core utilization exceeds the ILP's at the
	// same count.
	if r.GreedyCore[0] <= 0 || r.ILPCore[0] <= 0 {
		t.Fatal("left sweep empty")
	}
}

func TestRenderAll(t *testing.T) {
	// Rendering must be non-empty and name-stable for every runner.
	for _, n := range []string{"table2", "fig6", "micro"} {
		res, err := Run(n, 7)
		if err != nil {
			t.Fatal(err)
		}
		if res.Name() != n || res.Render() == "" {
			t.Fatalf("runner %q render broken", n)
		}
	}
}

func TestScaleShape(t *testing.T) {
	// Real-engine, wall-clock experiment: assert the qualitative §5
	// elasticity shape, not exact series. Race instrumentation slows the
	// engine enough that the fixed ramp/tail windows stop being meaningful
	// on loaded runners; CI drives the non-race binary in its own smoke
	// step instead.
	if raceEnabled {
		t.Skip("wall-clock autoscaling shape is not meaningful under -race")
	}
	r := Scale(1)
	if r.PeakReplicas < 2 {
		t.Fatalf("autoscaler never scaled up: peak = %d", r.PeakReplicas)
	}
	if r.FinalReplicas != 1 {
		t.Fatalf("autoscaler did not scale back down: final = %d", r.FinalReplicas)
	}
	if r.UpAt <= 0 || r.DownAt <= r.UpAt {
		t.Fatalf("scaling timeline broken: up at %v, last down at %v", r.UpAt, r.DownAt)
	}
	// Per-flow NF state must survive both transitions.
	if r.FlowsTracked != r.FlowsTotal {
		t.Fatalf("flow state lost: %d/%d flows tracked", r.FlowsTracked, r.FlowsTotal)
	}
	if r.StateCoverage < 0.9 {
		t.Fatalf("state coverage %.2f, want >= 0.9 of delivered", r.StateCoverage)
	}
	if !strings.Contains(r.Render(), "Dynamic NF scaling") {
		t.Fatal("render missing title")
	}
}

func TestClusterShape(t *testing.T) {
	// Real-engine multi-host run. The assertions are timing-independent
	// (deliveries and accounting identities), so it runs under -race too.
	r := Cluster(3)
	// The chain spread across three hosts, one position per node.
	if len(r.PlacementNodes) != 3 ||
		r.PlacementNodes[0] == r.PlacementNodes[1] || r.PlacementNodes[1] == r.PlacementNodes[2] {
		t.Fatalf("placement did not spread the chain: %v", r.PlacementNodes)
	}
	// The windowed inject back-pressures the generator instead of letting
	// it overflow a ring, so delivery is exact in both phases on any
	// machine. Phase 1 traverses all three hosts and exits at C.
	if r.Phase1DeliveredC != r.Phase1Sent {
		t.Fatalf("phase 1: delivered %d of %d at C", r.Phase1DeliveredC, r.Phase1Sent)
	}
	for i, rx := range r.Rx {
		if rx == 0 {
			t.Fatalf("host %s saw no traffic", r.HostNames[i])
		}
	}
	// The runtime ChangeDefault moved the hop: phase 2 exits at A, and C
	// sees no new deliveries.
	if r.Phase2DeliveredA != r.Phase2Sent {
		t.Fatalf("phase 2: delivered %d of %d at A", r.Phase2DeliveredA, r.Phase2Sent)
	}
	if r.Phase2DeliveredC != 0 {
		t.Fatalf("phase 2: %d packets still reached C after the reroute", r.Phase2DeliveredC)
	}
	// Per-host packet conservation and leak-free pools.
	if !r.AccountingOK {
		t.Fatalf("packet accounting broken: rx=%v tx=%v drops=%v overflows=%v txdrops=%v",
			r.Rx, r.Tx, r.Drops, r.Overflows, r.TxDrops)
	}
	for i, o := range r.Overflows {
		if o != 0 {
			t.Fatalf("host %s overflowed %d frames under the inject window", r.HostNames[i], o)
		}
	}
	if r.LinkDrops != 0 {
		t.Fatalf("fabric dropped %d frames", r.LinkDrops)
	}
	// Misses resolved per host: every host pulled its own table.
	for i, m := range r.Misses {
		if m == 0 {
			t.Fatalf("host %s never used its controller session", r.HostNames[i])
		}
	}
	if !strings.Contains(r.Render(), "Multi-host service chain") {
		t.Fatal("render missing title")
	}
}

func TestWireShape(t *testing.T) {
	// Real sockets on loopback, both hosts in this process (the
	// two-process mode is exercised by the CLI smoke in CI). Assertions
	// are timing-independent: delivery floor and exact wire accounting.
	t.Setenv("SDNFV_WIRE_EXEC", "")
	r := Wire(7)
	if r.Mode != "in-process" {
		t.Fatalf("mode = %q", r.Mode)
	}
	if r.Sent == 0 {
		t.Fatal("nothing sent")
	}
	// UDP may legitimately shed under a loaded -race runner; the wire
	// exactness checks below still have to balance whatever arrived.
	if r.Delivered < r.Sent*9/10 || r.Delivered > r.Sent {
		t.Fatalf("delivered %d of %d", r.Delivered, r.Sent)
	}
	if !r.WireABExact || !r.WireBAExact {
		t.Fatalf("wire accounting not exact: A->B=%v B->A=%v", r.WireABExact, r.WireBAExact)
	}
	if !r.AccountingOK {
		t.Fatalf("host accounting broken: A=%+v B=%+v", r.A, r.B)
	}
	if r.P50Us <= 0 || r.P95Us < r.P50Us {
		t.Fatalf("latency percentiles malformed: p50=%v p95=%v", r.P50Us, r.P95Us)
	}
	// The run scrapes its own live telemetry server (baseline, mid-run,
	// final): every scrape must parse, counters must be monotonic, and
	// the final scrape must reconcile with the accounting identity.
	if r.TelemetryScrapes < 3 {
		t.Fatalf("telemetry scrapes = %d, want >= 3", r.TelemetryScrapes)
	}
	if !r.TelemetryOK {
		t.Fatal("scraped telemetry failed conformance or did not reconcile with host accounting")
	}
	for _, want := range []string{"Cross-host chain over real sockets", "chain latency", "telemetry: scrapes="} {
		if !strings.Contains(r.Render(), want) {
			t.Fatalf("render missing %q", want)
		}
	}
	t.Logf("in-process wire: %d/%d delivered, p50 %.0fus p95 %.0fus", r.Delivered, r.Sent, r.P50Us, r.P95Us)
}

func TestChurnShape(t *testing.T) {
	r := Churn(1)
	if !r.PlateauOK {
		t.Fatalf("live rules did not plateau: peak=%d cap=%d", r.PeakLive, r.LiveCap)
	}
	if r.PeakLive >= r.TotalFlows {
		t.Fatalf("peak live rules %d not below total distinct flows %d", r.PeakLive, r.TotalFlows)
	}
	if !r.DrainOK {
		t.Fatalf("drain left rules=%d state=%d", r.FinalRules, r.FinalState)
	}
	if !r.IdentityOK {
		t.Fatalf("lifecycle identity broken: adds=%d deleted=%d evicted=%d+%d rules=%d",
			r.Adds, r.Deleted, r.EvictedIdle, r.EvictedHard, r.FinalRules)
	}
	if !r.NoticesOK {
		t.Fatalf("flow-removed notices %d != evictions %d", r.Notices, r.EvictedIdle+r.EvictedHard)
	}
	if r.EvictedHard != 0 {
		t.Fatalf("hard evictions %d with only idle timeouts armed", r.EvictedHard)
	}
	for _, want := range []string{"plateau: ", "drain: ", "accounting: ", "ok=true"} {
		if !strings.Contains(r.Render(), want) {
			t.Fatalf("render missing %q", want)
		}
	}
}
