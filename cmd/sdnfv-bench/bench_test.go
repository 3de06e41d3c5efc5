package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/packet"
	"sdnfv/internal/traffic"
)

func TestQuantileIsExactNearestRank(t *testing.T) {
	xs := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 100}, {0.9, 90}, {0.01, 10}, {0.51, 60}, {1, 100}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := quantile([]float64{}, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestMedianOfRounds(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
	in := []float64{9, 1, 5}
	median(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// The pipeline judges spread with Python's statistics.quantiles(n=4);
// these are its answers for the same inputs.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 30, 20, 50, 40})
	if q1 != 15 || q2 != 30 || q3 != 45 {
		t.Errorf("quartiles(10..50) = %v %v %v, want 15 30 45", q1, q2, q3)
	}
	if got := spread([]float64{10, 30, 20, 50, 40}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestShapeKeepsRoundsWholeAndNeverBelowFive(t *testing.T) {
	for _, tc := range []struct {
		seconds, rounds int
		open            time.Duration
	}{{24, 5, 3 * time.Second}, {39, 8, 5 * time.Second}, {3, 1, time.Second}} {
		sh := shapeFor(tc.seconds)
		if sh.passes != 3 || sh.rounds != tc.rounds || sh.open != tc.open || sh.round != time.Second {
			t.Errorf("shapeFor(%d) = %+v, want 3 passes of %d rounds + %s", tc.seconds, sh, tc.rounds, tc.open)
		}
	}
}

// The open-loop timetable with a fake clock: bursts are due on a fixed
// grid whatever happened before, a burst sent late is stamped with its
// due time and reports the lateness, and neither an early clock nor a
// full window advances the timetable.
func TestScheduleDueTimeAndLateness(t *testing.T) {
	s := schedule{start: 1000, interval: 100}
	if _, _, ok := s.next(999, true); ok {
		t.Fatal("burst 0 went before it was due")
	}
	due, late, ok := s.next(1000, true)
	if !ok || due != 1000 || late != 0 {
		t.Fatalf("burst 0 on time: due=%d late=%d ok=%v", due, late, ok)
	}
	// The generator stalls until t=1350: bursts 1, 2 and 3 are all due.
	for k, want := range []int64{1100, 1200, 1300} {
		due, late, ok := s.next(1350, true)
		if !ok || due != want || late != 1350-want {
			t.Fatalf("burst %d after a stall: due=%d late=%d ok=%v, want due=%d late=%d", k+1, due, late, ok, want, 1350-want)
		}
	}
	if _, _, ok := s.next(1350, true); ok {
		t.Fatal("burst 4 (due 1400) went at 1350")
	}
	// A full window holds burst 4 back; when room returns at 1460 the
	// wait has become lateness, and the due time has not moved.
	if _, _, ok := s.next(1450, false); ok {
		t.Fatal("burst 4 went with no room in the window")
	}
	due, late, ok = s.next(1460, true)
	if !ok || due != 1400 || late != 60 {
		t.Fatalf("burst 4 after the window cleared: due=%d late=%d ok=%v", due, late, ok)
	}
	if s.k != 5 {
		t.Fatalf("timetable at burst %d, want 5", s.k)
	}
}

// fakeTarget delivers every frame at once, except that every tenth
// vanishes: counted by the program (counted=true) or not at all.
type fakeTarget struct {
	counted     bool
	sent, done  uint64
	dropped     uint64
	maxInFlight uint64
}

func (f *fakeTarget) offer(frames [][]byte) int {
	for range frames {
		f.sent++
		if f.sent%10 == 0 {
			f.dropped++
		} else {
			f.done++
		}
	}
	inFlight := f.sent - f.done
	if f.counted {
		inFlight -= f.dropped
	}
	f.maxInFlight = max(f.maxInFlight, inFlight)
	return len(frames)
}

func (f *fakeTarget) deliveredCount() uint64 { return f.done }

func (f *fakeTarget) lost() uint64 {
	if f.counted {
		return f.dropped
	}
	return 0
}

func smallWorkload() *workload {
	return &workload{name: "test", frameBytes: 64, flows: 64, window: 256, openBurst: burstSize}
}

func testGenerator(t *testing.T, tgt target, drain time.Duration) *generator {
	t.Helper()
	src, err := newSource(smallWorkload(), 7)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now()
	return &generator{t: tgt, src: src, now: func() int64 { return int64(time.Since(base)) }, window: 256, drain: drain}
}

// Deliveries fall short and nobody counts the missing frames: the window
// fills with them, the generator must stop on its deadline instead of
// hanging, never exceed the window, and report the shortfall.
func TestClosedLoopStopsOnDeadlineWhenDeliveriesAreShort(t *testing.T) {
	tgt := &fakeTarget{}
	g := testGenerator(t, tgt, 30*time.Millisecond)
	ph, err := g.closed(0, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !ph.short {
		t.Fatal("phase with vanished frames was not reported short")
	}
	if ph.delivered >= ph.offered || ph.delivered != tgt.done {
		t.Fatalf("delivered %d of %d offered (target saw %d)", ph.delivered, ph.offered, tgt.done)
	}
	if tgt.maxInFlight > 256 {
		t.Fatalf("%d frames in flight, window is 256", tgt.maxInFlight)
	}
	if ph.offered-ph.delivered < 256-burstSize {
		t.Fatalf("stopped with only %d frames outstanding; the window was not what stopped it", ph.offered-ph.delivered)
	}
}

// The same losses, but counted by the program: they free their window
// slots after stallCheck, the phase runs to its end and is not short.
func TestClosedLoopSettlesFramesTheProgramCountsAsLost(t *testing.T) {
	tgt := &fakeTarget{counted: true}
	g := testGenerator(t, tgt, time.Second)
	ph, err := g.closed(8192, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ph.short {
		t.Fatal("phase whose losses were all counted was reported short")
	}
	if ph.offered != 8192 || ph.delivered != ph.offered-ph.offered/10 {
		t.Fatalf("offered %d delivered %d, want 8192 and nine tenths of it", ph.offered, ph.delivered)
	}
}

func TestOpenLoopKeepsToItsTimetable(t *testing.T) {
	for _, tc := range []struct{ pps, burst int }{{64_000, burstSize}, {4_000, 1}} {
		tgt := &fakeTarget{counted: true}
		g := testGenerator(t, tgt, time.Second)
		const dur = 50 * time.Millisecond
		ph, err := g.open(tc.pps, tc.burst, dur)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(tc.pps) * uint64(dur) / uint64(time.Second); ph.offered != want {
			t.Fatalf("%d pps: offered %d frames, want %d", tc.pps, ph.offered, want)
		}
		if len(ph.lateness) != int(ph.offered)/tc.burst {
			t.Fatalf("%d lateness samples for %d slots of %d frames", len(ph.lateness), int(ph.offered)/tc.burst, tc.burst)
		}
		for _, late := range ph.lateness {
			if late < 0 {
				t.Fatalf("slot sent %d ns before it was due", -late)
			}
		}
	}
}

// sequence returns the first bursts of a workload's traffic, flattened.
func sequence(t *testing.T, w *workload, seed uint64, bursts int) []byte {
	t.Helper()
	src, err := newSource(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	src.table, src.ephAction = flowtable.New(), flowtable.Forward(svcFirewall)
	var out []byte
	for i := 0; i < bursts; i++ {
		frames, err := src.next(int64(i), burstSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			out = append(out, f...)
		}
	}
	return out
}

func TestSeedFixesFramesAndFlowOrder(t *testing.T) {
	for _, w := range workloads {
		small := *w
		small.flows = min(w.flows, 2048)
		small.churnEvery = min(w.churnEvery, 256) // reach the ephemeral bursts quickly
		a, b := sequence(t, &small, 42, 40), sequence(t, &small, 42, 40)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different traffic", w.name)
		}
		if c := sequence(t, &small, 43, 40); bytes.Equal(a, c) {
			t.Errorf("%s: another seed gave the same traffic", w.name)
		}
	}
}

func TestFreshFlowsNeverRepeat(t *testing.T) {
	w, err := workloadByName("flow_setup")
	if err != nil {
		t.Fatal(err)
	}
	src, err := newSource(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[packet.FlowKey]bool{}
	for i := 0; i < 500; i++ {
		frames, err := src.next(0, burstSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			v, err := packet.Parse(f)
			if err != nil || !v.VerifyIPChecksum() {
				t.Fatalf("re-keyed template is not a valid frame: %v", err)
			}
			if seen[v.FlowKey()] {
				t.Fatalf("flow %v offered twice", v.FlowKey())
			}
			seen[v.FlowKey()] = true
		}
	}
}

// The generator stamps and the egress reads at fixed offsets; they must
// be the offsets traffic.Factory and packet.Parse agree on, and a
// re-keyed template must still be a valid frame of the new flow.
func TestFixedOffsetsAgreeWithTheFrameBuilder(t *testing.T) {
	w, err := workloadByName("flow_setup")
	if err != nil {
		t.Fatal(err)
	}
	src, err := newSource(w, 9)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := src.next(123456789, burstSize)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		ts, ok := traffic.ExtractTimestamp(f)
		if !ok || ts != 123456789 {
			t.Fatalf("frame %d: ExtractTimestamp = %d, %v", i, ts, ok)
		}
		if binary.BigEndian.Uint32(f[offMagic:]) != stampMagic {
			t.Fatalf("frame %d: no magic at the fixed offset", i)
		}
	}
	e := &egress{base: time.Now(), lat: make([]int64, 4)}
	e.frame(frames[0])
	e.frame([]byte("not a frame the generator sent, but long enough to be looked at"))
	if e.delivered.Load() != 2 || e.bad.Load() != 1 {
		t.Fatalf("egress counted delivered=%d bad=%d, want 2 and 1", e.delivered.Load(), e.bad.Load())
	}
}

func TestSpanSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 70, End: 200}}
	if got := covered(kids, 0, 100); got != 70 {
		t.Errorf("covered = %d, want 70 (10-50 and 70-100)", got)
	}
	if got := covered(nil, 0, 100); got != 0 {
		t.Errorf("covered with no children = %d", got)
	}
}

func TestJudgeHoldsSetsToTheBound(t *testing.T) {
	steady := [][]float64{{100, 101, 99, 100, 102}, {101, 100, 102, 101, 100}}
	if row := judge(steady, 0.05, false); !row.pass {
		t.Errorf("steady sets failed: %+v", row)
	}
	shifted := [][]float64{{100, 101, 99, 100, 102}, {111, 110, 112, 111, 110}}
	if row := judge(shifted, 0.05, false); row.pass || math.Abs(row.gap-0.11) > 1e-9 {
		t.Errorf("sets 11%% apart passed a 5%% bound: %+v", row)
	}
	wide := [][]float64{{100, 140, 60, 100, 120}, {100, 100, 100, 100, 100}}
	if row := judge(wide, 0.05, false); row.pass {
		t.Errorf("a set with a wide spread passed: %+v", row)
	}
	if row := judge(wide, 0.05, true); !row.pass {
		t.Errorf("set-up time is held to the gap only: %+v", row)
	}
}

// Every metric the harness can print must be named as the contract
// allows and listed in BENCHMARK.json with the same unit, and the other
// way round; so must the workloads.
func TestMetricsAndWorkloadsMatchTheContract(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	listed := map[string]string{}
	for _, e := range c.EndToEnd {
		listed[e.Name] = e.Unit
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	for _, p := range c.PerLayer {
		listed[p.Name] = p.Unit
	}
	defs := append(append([]metricDef(nil), endToEnd...), perLayer...)
	if len(listed) != len(defs) {
		t.Errorf("BENCHMARK.json lists %d metrics, the harness prints %d", len(listed), len(defs))
	}
	for _, d := range defs {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
			t.Errorf("metric %q (%q) is not a name and unit the contract allows", d.name, d.unit)
		}
		if got, ok := listed[d.name]; !ok || got != d.unit {
			t.Errorf("metric %s [%s]: BENCHMARK.json has %q (listed: %v)", d.name, d.unit, got, ok)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json gates %d end-to-end metrics, the harness has %d", len(c.EndToEnd), len(endToEnd))
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q (or their reasons differ)", i, c.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: reason is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if sh := shapeFor(c.RunSeconds); sh.rounds < 5 {
		t.Errorf("run_seconds %d gives %d rounds per pass, fewer than 5", c.RunSeconds, sh.rounds)
	}
}
