package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/metrics"
	"sdnfv/internal/nf"
	"sdnfv/internal/nfs"
	"sdnfv/internal/traffic"
)

// The engine harness behind Table 2, Fig. 6 and Fig. 7 (§4.2, §5.1): a
// dataplane.Host runs a chain compiled from a graph.Chain, and an
// in-process generator feeds it timestamped frames on port 0, keeping at
// most a window of them in flight so that no NF ring overflows and every
// frame sent leaves by port 1.

// chainConfig is one composition: vms NF vertices, read-only ones
// compiled to one parallel fan-out rule, writable ones to a sequential
// chain. vms == 0 is the paper's "0VM (dpdk)" row, a plain port-to-port
// forward.
type chainConfig struct {
	label    string
	vms      int
	parallel bool
}

// chainConfigs are the compositions of Table 2, in the paper's order.
var chainConfigs = []chainConfig{
	{"0VM (dpdk)", 0, false},
	{"1VM", 1, false},
	{"2VM (parallel)", 2, true},
	{"3VM (parallel)", 3, true},
	{"2VM (sequential)", 2, false},
	{"3VM (sequential)", 3, false},
}

func newNoOp() nf.BatchFunction { return nfs.NoOp{} }

// chainFlows is the number of distinct flows the generator cycles;
// chainStall bounds a wait for deliveries, so a lost frame ends the run
// instead of hanging it.
const (
	chainFlows = 16
	chainStall = 10 * time.Second
)

// runChain drives n frames of frameBytes through cfg with at most window
// in flight, accounts the run in tally and returns the delivered frames
// per second. newNF builds the NF behind each vertex; lat, when not nil,
// records each frame's latency from stamp to egress (ns).
func runChain(seed int64, cfg chainConfig, newNF func() nf.BatchFunction, frameBytes, n, window int, lat *metrics.Histogram, tally *chainTally) float64 {
	host := dataplane.NewHost(dataplane.Config{})
	vs := make([]graph.Vertex, cfg.vms)
	for i := range vs {
		vs[i] = graph.Vertex{Service: flowtable.ServiceID(i + 1), Name: fmt.Sprintf("nf%d", i+1), ReadOnly: cfg.parallel}
		_, err := host.AddNF(vs[i].Service, newNF(), 0)
		must(err)
	}
	g, err := graph.Chain(cfg.label, vs...)
	must(err)
	must(host.InstallGraph(g, 0, 1))
	var delivered atomic.Uint64
	progress := make(chan struct{}, 1)
	host.BindPort(1, func(_ int, data []byte, _ *dataplane.Desc) {
		if ts, ok := traffic.ExtractTimestamp(data); ok && lat != nil {
			lat.Observe(float64(time.Now().UnixNano() - ts))
		}
		delivered.Add(1)
		select {
		case progress <- struct{}{}:
		default:
		}
	})
	must(host.Start())

	// The generator refills the window half a window at a time; with a
	// window of one it is a closed loop.
	factory := traffic.NewFactory()
	burst := max(window/2, 1)
	sent := 0
	start := time.Now()
	for ; sent < n; sent++ {
		if sent%burst == 0 && !awaitDelivered(&delivered, progress, sent+burst-window) {
			break
		}
		frame, err := factory.Frame(traffic.Flow(int(seed)*chainFlows+sent%chainFlows, frameBytes, 0), time.Now().UnixNano())
		must(err)
		if host.Inject(0, frame) != nil {
			break
		}
	}
	awaitDelivered(&delivered, progress, sent)
	pps := float64(delivered.Load()) / time.Since(start).Seconds()
	host.Stop()
	tally.add(uint64(sent), delivered.Load(), host.Stats())
	return pps
}

// awaitDelivered blocks until at least want frames have left the host,
// and reports false if that takes longer than chainStall.
func awaitDelivered(delivered *atomic.Uint64, progress <-chan struct{}, want int) bool {
	stall := time.After(chainStall)
	for int(delivered.Load()) < want {
		select {
		case <-progress:
		case <-stall:
			return false
		}
	}
	return true
}

// chainTally sums a runner's engine runs for its accounting line: every
// frame sent must be delivered, no NF ring may overflow, and each host's
// conservation identity must hold with its pool drained.
type chainTally struct {
	runs, broken              int
	sent, delivered, overflow uint64
}

func (t *chainTally) add(sent, delivered uint64, s dataplane.HostStats) {
	t.runs++
	t.sent += sent
	t.delivered += delivered
	t.overflow += s.Overflows
	if !s.Conserved() || s.Pool.InUse != 0 {
		t.broken++
	}
}

func (t chainTally) ok() bool {
	return t.runs > 0 && t.sent == t.delivered && t.overflow == 0 && t.broken == 0
}

func (t chainTally) String() string {
	return fmt.Sprintf("engine accounting: runs=%d sent=%d delivered=%d overflows=%d conserved=%v ok=%v\n",
		t.runs, t.sent, t.delivered, t.overflow, t.broken == 0, t.ok())
}
