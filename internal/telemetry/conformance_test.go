// Exposition-format conformance tests: the exporter's own output is
// parsed back by the strict parser, both over synthetic collectors
// (label escaping, histogram triplets, counter regressions) and over a
// live dataplane host scraped twice through the HTTP server — asserting
// monotonicity between scrapes and the host accounting identity
// rx == tx + drops + overflows + txdrops + rxdrops in scraped values.
package telemetry_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sdnfv/internal/control"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/metrics"
	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
	"sdnfv/internal/telemetry"
)

func TestRoundTripHistogramAndEscaping(t *testing.T) {
	h := metrics.NewHistogram()
	for _, v := range []float64{500, 5_000, 50_000, 500_000} {
		h.Observe(v)
	}
	r := telemetry.NewRegistry()
	labels := []telemetry.Label{{Key: "path", Value: `a\b"c` + "\nd"}}
	r.MustRegister(telemetry.NewHistogramCollector(
		"rt_latency_ns", "round-trip latency", labels, h, telemetry.DefaultLatencyBoundsNs))

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	p, err := telemetry.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("our own output failed conformance parse: %v\n%s", err, sb.String())
	}
	fam, ok := p.Families["rt_latency_ns"]
	if !ok || fam.Type != "histogram" {
		t.Fatalf("histogram family missing or mistyped: %+v", fam)
	}
	sel := map[string]string{"path": `a\b"c` + "\nd"}
	count, ok := p.Value("rt_latency_ns_count", sel)
	if !ok || count != 4 {
		t.Fatalf("_count = %v (found %v), want 4", count, ok)
	}
	sum, _ := p.Value("rt_latency_ns_sum", sel)
	if sum != 555500 {
		t.Fatalf("_sum = %v, want 555500", sum)
	}
	// The +Inf bucket must carry the total count, and buckets must be
	// cumulative (non-decreasing in bound order).
	buckets := p.Find("rt_latency_ns_bucket", sel)
	if len(buckets) != len(telemetry.DefaultLatencyBoundsNs)+1 {
		t.Fatalf("got %d buckets, want %d", len(buckets), len(telemetry.DefaultLatencyBoundsNs)+1)
	}
	prev := -1.0
	var inf float64
	for _, bkt := range buckets {
		if bkt.Labels["le"] == "+Inf" {
			inf = bkt.Value
			continue
		}
		if bkt.Value < prev {
			t.Fatalf("bucket counts not cumulative: %v", buckets)
		}
		prev = bkt.Value
	}
	if inf != 4 {
		t.Fatalf("+Inf bucket = %v, want 4", inf)
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE":  "loose_metric 1\n",
		"bad escape":          "# TYPE m counter\nm{l=\"a\\q\"} 1\n",
		"unterminated labels": "# TYPE m counter\nm{l=\"a\" 1\n",
		"duplicate TYPE":      "# TYPE m counter\n# TYPE m counter\n",
		"unknown type":        "# TYPE m widget\n",
		"bad value":           "# TYPE m counter\nm x\n",
		"duplicate label":     "# TYPE m counter\nm{a=\"1\",a=\"2\"} 1\n",
	}
	for name, in := range cases {
		if _, err := telemetry.ParseText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parser accepted %q", name, in)
		}
	}
}

func TestCounterRegressions(t *testing.T) {
	scrape := func(v int) *telemetry.Parsed {
		p, err := telemetry.ParseText(strings.NewReader(fmt.Sprintf(
			"# TYPE c_total counter\nc_total{host=\"a\"} %d\n# TYPE g gauge\ng %d\n", v, v)))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	up := telemetry.CounterRegressions(scrape(1), scrape(2))
	if len(up) != 0 {
		t.Fatalf("monotonic counters flagged: %v", up)
	}
	down := telemetry.CounterRegressions(scrape(2), scrape(1))
	if len(down) != 1 || !strings.Contains(down[0], "c_total") {
		t.Fatalf("regression not caught (gauges must be exempt): %v", down)
	}
}

// TestLiveHostScrape boots a real dataplane host behind the telemetry
// server, pushes traffic through it, and scrapes /metrics twice over
// HTTP: both scrapes must pass the conformance parser, counters must be
// monotonic between them, the final scrape must satisfy the host
// accounting identity from scraped values alone, and /state must agree
// with /metrics on every metric-tagged field.
func TestLiveHostScrape(t *testing.T) {
	const svc flowtable.ServiceID = 10
	h := dataplane.NewHost(dataplane.Config{PoolSize: 256, TXThreads: 1})
	h.BindDefault(func(int, []byte, *dataplane.Desc) {})
	fn := &nf.BatchAdapter{FnName: "count", RO: true}
	if _, err := h.AddNF(svc, fn, 0); err != nil {
		t.Fatal(err)
	}
	mustAddRule(t, h, flowtable.Rule{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
		Actions: []flowtable.Action{flowtable.Forward(svc)}})
	mustAddRule(t, h, flowtable.Rule{Scope: svc, Match: flowtable.MatchAll,
		Actions: []flowtable.Action{flowtable.Out(1)}})
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	srv := serveHost(t, h)
	defer srv.Close()

	inject := func(n int) {
		t.Helper()
		frame := buildTestFrame(t)
		for i := 0; i < n; i++ {
			if err := h.Inject(0, frame); err != nil {
				t.Fatal(err)
			}
		}
	}

	inject(40)
	waitIdle(t, h)
	first := scrapeHTTP(t, srv.Addr())
	inject(40)
	waitIdle(t, h)
	second := scrapeHTTP(t, srv.Addr())

	if regs := telemetry.CounterRegressions(first, second); len(regs) != 0 {
		t.Fatalf("counters regressed between scrapes: %v", regs)
	}

	sel := map[string]string{"host": "h0", "datapath": "dp:0x1"}
	get := func(name string) float64 {
		t.Helper()
		v, ok := second.Value(name, sel)
		if !ok {
			t.Fatalf("scrape missing %s%v", name, sel)
		}
		return v
	}
	rx := get("sdnfv_host_rx_packets_total")
	tx := get("sdnfv_host_tx_packets_total")
	drops := get("sdnfv_host_drops_total")
	overflows := get("sdnfv_host_overflows_total")
	txDrops := get("sdnfv_host_tx_drops_total")
	rxDrops := get("sdnfv_host_rx_drops_total")
	if rx != 80 {
		t.Fatalf("rx = %v, want 80", rx)
	}
	if rx != tx+drops+overflows+txDrops+rxDrops {
		t.Fatalf("accounting identity broken in scraped snapshot: rx=%v tx=%v drops=%v overflows=%v txdrops=%v rxdrops=%v",
			rx, tx, drops, overflows, txDrops, rxDrops)
	}

	// The show API must report the same snapshot over HTTP: every
	// metric-tagged HostStats field, nested Pool and Table included,
	// equals its scraped sample.
	var hosts []map[string]any
	getJSON(t, srv.Addr(), telemetry.PathHosts, &hosts)
	if len(hosts) != 1 || hosts[0]["Host"] != "h0" || hosts[0]["Datapath"] != "dp:0x1" {
		t.Fatalf("%s = %v", telemetry.PathHosts, hosts)
	}
	checked := 0
	forEachMetricField(reflect.TypeOf(dataplane.HostStats{}), "sdnfv_", nil, func(family string, label []string, path []string) {
		sel := map[string]string{"host": "h0", "datapath": "dp:0x1"}
		if label != nil {
			sel[label[0]] = label[1]
		}
		scraped, found := second.Value(family, sel)
		var v any = hosts[0]
		for _, key := range path {
			v = v.(map[string]any)[key]
		}
		state, ok := v.(float64)
		if !found || !ok || state != scraped {
			t.Errorf("%s%v: /state %v (%v) != /metrics %v", family, sel, path, v, scraped)
		}
		checked++
	})
	if checked < 27 {
		t.Fatalf("compared %d tagged fields; the walk missed HostStats' tags", checked)
	}
	var replicas []map[string]any
	getJSON(t, srv.Addr(), telemetry.PathReplicas, &replicas)
	if len(replicas) != 1 || replicas[0]["Service"] != "svc:10" {
		t.Fatalf("%s = %v", telemetry.PathReplicas, replicas)
	}
}

// forEachMetricField calls fn for every metric-tagged leaf field of t
// (walking tagged struct fields with their prefix) with the family name,
// the tag's label pair (nil if none), and the field's JSON path.
func forEachMetricField(t reflect.Type, prefix string, path []string, fn func(family string, label, path []string)) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, ok := f.Tag.Lookup("metric")
		if !ok {
			continue
		}
		p := append(path[:len(path):len(path)], f.Name)
		if f.Type.Kind() == reflect.Struct {
			forEachMetricField(f.Type, prefix+tag, p, fn)
			continue
		}
		name, label, _ := strings.Cut(tag, ",")
		var pair []string
		if k, v, ok := strings.Cut(label, "="); ok {
			pair = []string{k, v}
		}
		fn(prefix+name, pair, p)
	}
}

func serveHost(t *testing.T, h *dataplane.Host) *telemetry.Server {
	t.Helper()
	reg := telemetry.NewRegistry()
	telemetry.RegisterHosts(reg, map[string]*dataplane.Host{"h0": h}, map[string]control.DatapathID{"h0": 0x1})
	srv, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func getJSON(t *testing.T, addr, path string, v any) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestFlowLifecycleMetricsScrape boots a host whose flow table evicts
// idle rules and checks the lifecycle metric surface end to end: the
// strict parser accepts the exposition, the entries gauge tracks the
// live rule count through install and eviction, the evictions counter
// carries the reason label, the sweeper counters move, and the
// /state/flowtable show endpoint serves the same snapshot.
func TestFlowLifecycleMetricsScrape(t *testing.T) {
	h := dataplane.NewHost(dataplane.Config{
		PoolSize: 256, TXThreads: 1,
		FlowSweepInterval: 2 * time.Millisecond,
	})
	h.BindDefault(func(int, []byte, *dataplane.Desc) {})
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	srv := serveHost(t, h)
	defer srv.Close()

	const rules = 8
	for i := 0; i < rules; i++ {
		key := packet.FlowKey{
			SrcIP: packet.IPv4(10, 0, 0, byte(i+1)), DstIP: packet.IPv4(10, 0, 1, 1),
			SrcPort: uint16(1000 + i), DstPort: 80, Proto: packet.ProtoUDP,
		}
		mustAddRule(t, h, flowtable.Rule{Scope: flowtable.ServiceID(5), Match: flowtable.ExactMatch(key),
			Actions: []flowtable.Action{flowtable.Out(1)}, IdleTimeout: 20 * time.Millisecond})
	}

	sel := map[string]string{"host": "h0", "datapath": "dp:0x1"}
	first := scrapeHTTP(t, srv.Addr())
	if v, ok := first.Value("sdnfv_flowtable_entries", sel); !ok || v != rules {
		t.Fatalf("entries gauge = %v (found %v), want %d", v, ok, rules)
	}

	deadline := time.Now().Add(10 * time.Second)
	for h.Stats().Table.Rules != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("rules never evicted: %+v", h.Stats().Table)
		}
		time.Sleep(time.Millisecond)
	}
	second := scrapeHTTP(t, srv.Addr())
	if regs := telemetry.CounterRegressions(first, second); len(regs) != 0 {
		t.Fatalf("counters regressed between scrapes: %v", regs)
	}
	if v, ok := second.Value("sdnfv_flowtable_entries", sel); !ok || v != 0 {
		t.Fatalf("entries gauge after eviction = %v (found %v), want 0", v, ok)
	}
	withReason := func(reason string) map[string]string {
		m := map[string]string{"reason": reason}
		for k, v := range sel {
			m[k] = v
		}
		return m
	}
	idle, ok := second.Value("sdnfv_flowtable_evictions_total", withReason("idle"))
	if !ok || idle != rules {
		t.Fatalf("evictions{reason=idle} = %v (found %v), want %d", idle, ok, rules)
	}
	if hard, ok := second.Value("sdnfv_flowtable_evictions_total", withReason("hard")); !ok || hard != 0 {
		t.Fatalf("evictions{reason=hard} = %v (found %v), want 0", hard, ok)
	}
	if v, ok := second.Value("sdnfv_flowtable_sweeps_total", sel); !ok || v == 0 {
		t.Fatalf("sweeps counter = %v (found %v), want > 0", v, ok)
	}
	if _, ok := second.Value("sdnfv_flowtable_sweep_nanos_total", sel); !ok {
		t.Fatal("sweep nanos counter missing")
	}
	if v, ok := second.Value("sdnfv_flowtable_adds_total", sel); !ok || v != rules {
		t.Fatalf("adds counter = %v (found %v), want %d", v, ok, rules)
	}

	// The show endpoint reports the same lifecycle snapshot.
	var states []struct {
		Host        string
		Rules       int
		EvictedIdle uint64
		Sweeps      uint64
	}
	getJSON(t, srv.Addr(), telemetry.PathFlowtable, &states)
	if len(states) != 1 || states[0].Host != "h0" || states[0].Rules != 0 ||
		states[0].EvictedIdle != rules || states[0].Sweeps == 0 {
		t.Fatalf("show snapshot = %+v", states)
	}
}

func scrapeHTTP(t *testing.T, addr string) *telemetry.Parsed {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, telemetry.ContentType)
	}
	p, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("scrape failed conformance parse: %v", err)
	}
	return p
}

func mustAddRule(t *testing.T, h *dataplane.Host, r flowtable.Rule) {
	t.Helper()
	if _, err := h.Table().Add(r); err != nil {
		t.Fatal(err)
	}
}

func buildTestFrame(t *testing.T) []byte {
	t.Helper()
	b := packet.Builder{
		SrcIP: packet.IPv4(10, 0, 0, 1), DstIP: packet.IPv4(10, 0, 0, 2),
		SrcPort: 1000, DstPort: 80, Proto: packet.ProtoUDP,
	}
	buf := make([]byte, 256)
	n, err := b.Build(buf, []byte("telemetry"))
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

func waitIdle(t *testing.T, h *dataplane.Host) {
	t.Helper()
	if !h.WaitIdle(10 * time.Second) {
		t.Fatal("host did not drain")
	}
}

// TestCollectorsAreColdPath pins the package's core invariant in its own
// source: no file in internal/telemetry may carry a //sdnfv:hotpath
// annotation — collectors are cold-path by construction, and the lint
// fixture in internal/lint/analyzers/testdata proves annotated code
// cannot call into unannotated collector code.
func TestCollectorsAreColdPath(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no sources found")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// Prose may discuss the annotation; only a directive line (the
		// bare comment, as sdnfv-lint recognizes it) is a violation.
		for i, line := range strings.Split(string(src), "\n") {
			if strings.TrimSpace(line) == "//sdnfv:hotpath" {
				t.Errorf("%s:%d carries a //sdnfv:hotpath directive; telemetry must stay cold-path", f, i+1)
			}
		}
	}
}
