package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"time"

	"sdnfv/internal/acmatch"
	"sdnfv/internal/control"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/metrics"
	"sdnfv/internal/nfs"
	"sdnfv/internal/portio"
	"sdnfv/internal/telemetry"
	"sdnfv/internal/traffic"
)

// WireResult is the real-socket cross-host experiment: the firewall→IDS
// service chain split across two NF hosts linked by UDP loopback wires
// (internal/portio drivers) instead of in-process fabric channels. Host
// A runs the firewall and injects; its chain egresses port 2 onto a UDP
// socket, host B ingests on port 2, runs the IDS, and egresses port 3
// back over a second UDP socket to host A, where the frames exit port 1
// into the latency sink. With SDNFV_WIRE_EXEC set (the sdnfv-experiments
// binary sets it to itself), host B runs in a separate OS process and
// the endpoints handshake over the child's stdio — the same chain, two
// address spaces, real datagrams in between.
type WireResult struct {
	// Mode is "in-process" or "two-process".
	Mode string
	// Sent/Delivered count frames injected at A and frames that returned
	// through the full A→wire→B→wire→A chain.
	Sent, Delivered uint64
	// P50Us/P95Us is the end-to-end chain latency across both wire
	// crossings, from the generator timestamp embedded in the payload.
	P50Us, P95Us float64
	// A and B are the final host stats, wire driver counters included.
	A, B dataplane.HostStats
	// WireABExact/WireBAExact report that every frame the sending driver
	// put on the wire was read off it by the receiving driver.
	WireABExact, WireBAExact bool
	// AccountingOK reports the extended conservation identity
	// rx == tx+drops+overflows+txdrops+rxdrops and a leak-free pool on
	// both hosts.
	AccountingOK bool
	// TelemetryScrapes counts the /metrics scrapes taken over a live
	// telemetry HTTP server during the run (baseline, mid-injection,
	// final). TelemetryOK reports that every scrape passed the
	// conformance parser, no counter regressed between scrapes, and the
	// final scrape satisfies the accounting identity from scraped
	// values alone — the exporter reconciles with HostStats.
	TelemetryScrapes int
	TelemetryOK      bool
}

// Name implements Result.
func (*WireResult) Name() string { return "wire" }

// Render implements Result.
func (r *WireResult) Render() string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf("Cross-host chain over real sockets (%s): firewall@A -> UDP -> IDS@B -> UDP -> A\n\n", r.Mode))
	hostRow := func(name string, st dataplane.HostStats) []string {
		return []string{name, f0(float64(st.RxPackets)), f0(float64(st.TxPackets)),
			f0(float64(st.Drops)), f0(float64(st.Overflows)),
			f0(float64(st.TxDrops)), f0(float64(st.RxDrops))}
	}
	b.WriteString(table(
		[]string{"host", "rx", "tx", "drops", "overflows", "txdrops", "rxdrops"},
		[][]string{hostRow("A", r.A), hostRow("B", r.B)}))
	b.WriteString("\nwire drivers:\n")
	for _, h := range []struct {
		name string
		st   dataplane.HostStats
	}{{"A", r.A}, {"B", r.B}} {
		for _, ps := range h.st.Ports {
			b.WriteString(fmt.Sprintf("  %s port %d (%s): rx=%d tx=%d oversize=%d truncated=%d refused=%d txdrops=%d\n",
				h.name, ps.Port, ps.Driver, ps.RxFrames, ps.TxFrames,
				ps.RxOversize, ps.RxTruncated, ps.RxRefused, ps.TxDrops))
		}
	}
	b.WriteString(fmt.Sprintf("\nsent %d, delivered %d through both socket crossings\n", r.Sent, r.Delivered))
	b.WriteString(fmt.Sprintf("chain latency across two UDP hops: p50 %.1f us / p95 %.1f us\n", r.P50Us, r.P95Us))
	b.WriteString(fmt.Sprintf("wire exactness: A->B=%v B->A=%v; per-host accounting: ok=%v\n",
		r.WireABExact, r.WireBAExact, r.AccountingOK))
	b.WriteString(fmt.Sprintf("telemetry: scrapes=%d ok=%v\n", r.TelemetryScrapes, r.TelemetryOK))
	return b.String()
}

// Wire chain constants: frames enter A on port 0, cross to B via port
// 2, come back via port 3, and exit A on port 1.
const (
	wireSvcFW  flowtable.ServiceID = 1
	wireSvcIDS flowtable.ServiceID = 2
	wireN                          = 6000
	wireFlows                      = 32
)

// wireEnd is one host plus its two UDP wire sockets.
type wireEnd struct {
	host       *dataplane.Host
	drv2, drv3 *portio.UDPDriver
	b2, b3     *portio.Binding
}

// close tears the end down in drain order: host first, then drivers.
func (w *wireEnd) close() {
	w.host.Stop()
	_ = w.b2.Close()
	_ = w.b3.Close()
}

func wireHostConfig() dataplane.Config {
	return dataplane.Config{PoolSize: 4096, RingSize: 1024, TXThreads: 1}
}

// bindWirePorts opens both UDP sockets on ephemeral loopback ports and
// binds them behind ports 2 and 3.
func (w *wireEnd) bindWirePorts() error {
	w.drv2 = portio.NewUDP(portio.UDPConfig{Listen: "127.0.0.1:0", QueueDepth: 1024})
	w.drv3 = portio.NewUDP(portio.UDPConfig{Listen: "127.0.0.1:0", QueueDepth: 1024})
	var err error
	if w.b2, err = portio.Bind(w.host, 2, w.drv2); err != nil {
		return err
	}
	if w.b3, err = portio.Bind(w.host, 3, w.drv3); err != nil {
		return err
	}
	return nil
}

// newWireA builds host A: firewall chain egressing onto the wire, and
// the port-1 latency sink for frames returning from B.
func newWireA() (*wireEnd, *metrics.Histogram, *atomic.Uint64, error) {
	w := &wireEnd{host: dataplane.NewHost(wireHostConfig())}
	if _, err := w.host.AddNF(wireSvcFW, &nfs.Firewall{DefaultAllow: true}, 0); err != nil {
		return nil, nil, nil, err
	}
	rules := []flowtable.Rule{
		{Scope: flowtable.Port(0), Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(wireSvcFW)}},
		{Scope: wireSvcFW, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(2)}},
		{Scope: flowtable.Port(3), Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(1)}},
	}
	for _, r := range rules {
		if _, err := w.host.Table().Add(r); err != nil {
			return nil, nil, nil, err
		}
	}
	hist := metrics.NewHistogram()
	var delivered atomic.Uint64
	w.host.BindPort(1, func(_ int, data []byte, _ *dataplane.Desc) {
		delivered.Add(1)
		if ts, ok := traffic.ExtractTimestamp(data); ok {
			hist.Observe(float64(time.Now().UnixNano() - ts))
		}
	})
	if err := w.host.Start(); err != nil {
		return nil, nil, nil, err
	}
	if err := w.bindWirePorts(); err != nil {
		return nil, nil, nil, err
	}
	return w, hist, &delivered, nil
}

// newWireB builds host B: wire ingress on port 2, IDS, wire egress on
// port 3.
func newWireB() (*wireEnd, error) {
	w := &wireEnd{host: dataplane.NewHost(wireHostConfig())}
	sigs := acmatch.New([]string{"ATTACK-SIGNATURE"})
	if _, err := w.host.AddNF(wireSvcIDS, &nfs.IDS{Matcher: sigs, Scrubber: wireSvcIDS}, 0); err != nil {
		return nil, err
	}
	rules := []flowtable.Rule{
		{Scope: flowtable.Port(2), Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Forward(wireSvcIDS)}},
		{Scope: wireSvcIDS, Match: flowtable.MatchAll,
			Actions: []flowtable.Action{flowtable.Out(3)}},
	}
	for _, r := range rules {
		if _, err := w.host.Table().Add(r); err != nil {
			return nil, err
		}
	}
	if err := w.host.Start(); err != nil {
		return nil, err
	}
	if err := w.bindWirePorts(); err != nil {
		return nil, err
	}
	return w, nil
}

// wireInject pushes paced traffic into A port 0. The pacing (~40 kpps)
// keeps the offered load under the UDP writer's syscall rate so the
// latency histogram measures the chain and the wire crossings, not a
// standing queue the generator built itself.
func wireInject(a *wireEnd, seed int64, n int) uint64 {
	factory := traffic.NewFactory()
	var sent uint64
	for i := 0; i < n; i++ {
		spec := traffic.Flow(int(seed)*wireFlows+i%wireFlows, 512, 0)
		frame, err := factory.Frame(spec, time.Now().UnixNano())
		if err != nil {
			panic(err)
		}
		for {
			if err := a.host.Inject(0, frame); err == nil {
				sent++
				break
			}
			time.Sleep(2 * time.Microsecond)
		}
		if i%2 == 1 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	return sent
}

// wireWaitDelivered waits for the full round trip to complete (or the
// timeout: wire loss is accounted, not fatal).
func wireWaitDelivered(delivered *atomic.Uint64, want uint64, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) && delivered.Load() < want {
		time.Sleep(time.Millisecond)
	}
}

// wireFinish computes the cross-checks once both hosts' final stats are
// in hand.
func (r *WireResult) wireFinish() {
	port := func(st dataplane.HostStats, p int) dataplane.PortDriverStats {
		for _, ps := range st.Ports {
			if ps.Port == p {
				return ps
			}
		}
		return dataplane.PortDriverStats{}
	}
	r.WireABExact = port(r.A, 2).TxFrames == port(r.B, 2).RxFrames
	r.WireBAExact = port(r.B, 3).TxFrames == port(r.A, 3).RxFrames
	r.AccountingOK = r.A.Conserved() && r.A.Pool.InUse == 0 &&
		r.B.Conserved() && r.B.Pool.InUse == 0
}

// wireTelemetry scrapes a live telemetry server over HTTP during the
// run and accumulates conformance evidence: every scrape must parse,
// counters must be monotonic across scrapes, and the final scrape must
// satisfy the host accounting identity from scraped values alone.
type wireTelemetry struct {
	srv     *telemetry.Server
	scrapes []*telemetry.Parsed
	errs    []string
}

func newWireTelemetry(reg *telemetry.Registry) *wireTelemetry {
	srv, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		panic(err)
	}
	return &wireTelemetry{srv: srv}
}

func (wt *wireTelemetry) scrape() {
	resp, err := http.Get("http://" + wt.srv.Addr() + "/metrics")
	if err != nil {
		wt.errs = append(wt.errs, fmt.Sprintf("scrape: %v", err))
		return
	}
	defer resp.Body.Close()
	p, err := telemetry.ParseText(resp.Body)
	if err != nil {
		wt.errs = append(wt.errs, fmt.Sprintf("conformance: %v", err))
		return
	}
	if len(wt.scrapes) > 0 {
		if regs := telemetry.CounterRegressions(wt.scrapes[len(wt.scrapes)-1], p); len(regs) > 0 {
			wt.errs = append(wt.errs, "counter regressions: "+strings.Join(regs, "; "))
		}
	}
	wt.scrapes = append(wt.scrapes, p)
}

// finish takes the final scrape (hosts drained, counters frozen),
// verifies the accounting identity for every host label present, and
// folds the verdict into res.
func (wt *wireTelemetry) finish(res *WireResult) {
	wt.scrape()
	_ = wt.srv.Close()
	res.TelemetryScrapes = len(wt.scrapes)
	if len(wt.scrapes) == 0 {
		return
	}
	final := wt.scrapes[len(wt.scrapes)-1]
	rxs := final.Find("sdnfv_host_rx_packets_total", nil)
	identityOK := len(rxs) > 0
	for _, rx := range rxs {
		sel := map[string]string{"host": rx.Labels["host"], "datapath": rx.Labels["datapath"]}
		var sum float64
		for _, name := range []string{
			"sdnfv_host_tx_packets_total", "sdnfv_host_drops_total",
			"sdnfv_host_overflows_total", "sdnfv_host_tx_drops_total",
			"sdnfv_host_rx_drops_total",
		} {
			v, ok := final.Value(name, sel)
			if !ok {
				identityOK = false
			}
			sum += v
		}
		if rx.Value != sum {
			identityOK = false
		}
	}
	res.TelemetryOK = len(wt.errs) == 0 && identityOK
}

// Wire runs the experiment: two-process when SDNFV_WIRE_EXEC names a
// peer binary (cmd/sdnfv-experiments sets it to itself), in-process
// otherwise (both hosts in this process, still over real UDP sockets).
func Wire(seed int64) *WireResult {
	if exe := os.Getenv("SDNFV_WIRE_EXEC"); exe != "" {
		return wireTwoProcess(seed, exe)
	}
	return wireInProcess(seed)
}

func wireInProcess(seed int64) *WireResult {
	res := &WireResult{Mode: "in-process"}
	a, hist, delivered, err := newWireA()
	if err != nil {
		panic(err)
	}
	b, err := newWireB()
	if err != nil {
		panic(err)
	}
	// Cross-wire the endpoints: A's chain egress feeds B's port-2
	// socket, B's chain egress feeds A's port-3 socket.
	if err := a.drv2.SetPeer(b.drv2.LocalAddr().String()); err != nil {
		panic(err)
	}
	if err := b.drv3.SetPeer(a.drv3.LocalAddr().String()); err != nil {
		panic(err)
	}

	reg := telemetry.NewRegistry()
	telemetry.RegisterHosts(reg, map[string]*dataplane.Host{"A": a.host, "B": b.host},
		map[string]control.DatapathID{"A": 0xa, "B": 0xb})
	reg.MustRegister(telemetry.NewHistogramCollector(
		"sdnfv_wire_latency_ns", "End-to-end wire chain latency.",
		nil, hist, telemetry.DefaultLatencyBoundsNs))
	wt := newWireTelemetry(reg)
	wt.scrape() // baseline

	half := wireN / 2
	res.Sent = wireInject(a, seed, half)
	wt.scrape() // mid-run, traffic in flight
	res.Sent += wireInject(a, seed, wireN-half)
	wireWaitDelivered(delivered, res.Sent, 20*time.Second)
	a.host.WaitIdle(10 * time.Second)
	b.host.WaitIdle(10 * time.Second)
	b.close()
	a.close()

	res.Delivered = delivered.Load()
	res.P50Us = hist.Quantile(0.50) / 1e3
	res.P95Us = hist.Quantile(0.95) / 1e3
	res.A = a.host.Stats()
	res.B = b.host.Stats()
	res.wireFinish()
	wt.finish(res) // final scrape: hosts stopped, counters frozen
	return res
}

// wireTwoProcess runs host B in a child process (the same binary with
// SDNFV_WIRE_ROLE=peer, see RunWirePeer) and handshakes the ephemeral
// socket addresses over the child's stdio: child prints
// "READY <b2> <b3>", parent answers "PEER <a3>", child confirms "GO".
// Closing the child's stdin asks it to drain and print "STATS <json>".
func wireTwoProcess(seed int64, exe string) *WireResult {
	res := &WireResult{Mode: "two-process"}
	a, hist, delivered, err := newWireA()
	if err != nil {
		panic(err)
	}

	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "SDNFV_WIRE_ROLE=peer")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		panic(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		panic(err)
	}
	if err := cmd.Start(); err != nil {
		panic(fmt.Sprintf("wire: spawn peer %s: %v", exe, err))
	}
	lines := bufio.NewScanner(stdout)
	readLine := func(prefix string) string {
		for lines.Scan() {
			line := strings.TrimSpace(lines.Text())
			if strings.HasPrefix(line, prefix) {
				return strings.TrimSpace(strings.TrimPrefix(line, prefix))
			}
		}
		panic(fmt.Sprintf("wire: peer exited before %q (scan err %v)", prefix, lines.Err()))
	}

	ready := strings.Fields(readLine("READY"))
	if len(ready) != 2 {
		panic(fmt.Sprintf("wire: bad READY %q", ready))
	}
	if err := a.drv2.SetPeer(ready[0]); err != nil {
		panic(err)
	}
	fmt.Fprintf(stdin, "PEER %s\n", a.drv3.LocalAddr())
	readLine("GO")

	// Host B lives in the peer process; only A is scrapeable here. Its
	// identity still closes over the full round trip once drained.
	reg := telemetry.NewRegistry()
	telemetry.RegisterHosts(reg, map[string]*dataplane.Host{"A": a.host}, map[string]control.DatapathID{"A": 0xa})
	reg.MustRegister(telemetry.NewHistogramCollector(
		"sdnfv_wire_latency_ns", "End-to-end wire chain latency.",
		nil, hist, telemetry.DefaultLatencyBoundsNs))
	wt := newWireTelemetry(reg)
	wt.scrape() // baseline

	half := wireN / 2
	res.Sent = wireInject(a, seed, half)
	wt.scrape() // mid-run, traffic in flight
	res.Sent += wireInject(a, seed, wireN-half)
	wireWaitDelivered(delivered, res.Sent, 20*time.Second)
	a.host.WaitIdle(10 * time.Second)

	// Ask the peer to drain and report, then collect its final stats.
	stdin.Close()
	var bstats dataplane.HostStats
	if err := json.Unmarshal([]byte(readLine("STATS")), &bstats); err != nil {
		panic(fmt.Sprintf("wire: peer stats: %v", err))
	}
	if err := cmd.Wait(); err != nil {
		panic(fmt.Sprintf("wire: peer exit: %v", err))
	}
	a.close()

	res.Delivered = delivered.Load()
	res.P50Us = hist.Quantile(0.50) / 1e3
	res.P95Us = hist.Quantile(0.95) / 1e3
	res.A = a.host.Stats()
	res.B = bstats
	res.wireFinish()
	wt.finish(res) // final scrape: host A stopped, counters frozen
	return res
}

// RunWirePeer is the child side of the two-process wire experiment: it
// serves host B until stdin closes, then drains and prints its stats.
// cmd/sdnfv-experiments calls it when SDNFV_WIRE_ROLE=peer.
func RunWirePeer() error {
	b, err := newWireB()
	if err != nil {
		return err
	}
	fmt.Printf("READY %s %s\n", b.drv2.LocalAddr(), b.drv3.LocalAddr())
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		if addr, ok := strings.CutPrefix(line, "PEER "); ok {
			if err := b.drv3.SetPeer(strings.TrimSpace(addr)); err != nil {
				return err
			}
			fmt.Println("GO")
		}
	}
	// Stdin closed: the parent is done injecting. Drain and report.
	b.host.WaitIdle(10 * time.Second)
	b.close()
	st := b.host.Stats()
	j, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Printf("STATS %s\n", j)
	return nil
}

func init() {
	register("wire", func(seed int64) Result { return Wire(seed) })
}
