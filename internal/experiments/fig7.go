package experiments

import (
	"strings"

	"sdnfv/internal/sim"
	"sdnfv/internal/traffic"
)

// Fig7Result is the throughput-vs-packet-size experiment (Fig. 7): one CPU
// socket, chains of no-op VMs composed sequentially or in parallel,
// compared with a plain DPDK forwarder.
type Fig7Result struct {
	Sizes []int
	// Mbps per configuration, indexed like Sizes.
	DPDK, OneVM, TwoPar, TwoSeq []float64
}

// Name implements Result.
func (*Fig7Result) Name() string { return "fig7" }

// Render implements Result.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 7: throughput vs packet size (Mbps, single socket)\n")
	rows := make([][]string, len(r.Sizes))
	for i := range r.Sizes {
		rows[i] = []string{
			f0(float64(r.Sizes[i])),
			f0(r.DPDK[i]), f0(r.OneVM[i]), f0(r.TwoPar[i]), f0(r.TwoSeq[i]),
		}
	}
	b.WriteString(table([]string{"pkt size", "0VM(dpdk)", "1VM", "2VMs(parallel)", "2VMs(sequential)"}, rows))
	return b.String()
}

// fig7Pipeline describes the stage capacities of one configuration.
// Calibration (single socket, §5.1): the RX core sustains ~15 Mpps of
// simple forwarding; one NF core sustains ~9.8 Mpps of no-op processing
// through its rings; the two TX cores spend ~128 ns per dispatch hop, so
// sequential chains multiply TX work while parallel chains add only the
// cheaper join (~109 ns per member).
type fig7Pipeline struct {
	rxNsPerPkt float64
	// nfNsPerPkt is the per-NF-core cost; every NF in the chain sees every
	// packet.
	nfNsPerPkt float64
	nfCount    int
	parallel   bool
	// txNsPerHop is TX-thread work per dispatch/join; two TX cores share
	// it.
	txNsPerHop float64
}

func fig7Config(kind string) fig7Pipeline {
	p := fig7Pipeline{rxNsPerPkt: 67, nfNsPerPkt: 102, txNsPerHop: 128}
	switch kind {
	case "dpdk":
		p.nfCount = 0
	case "1vm":
		p.nfCount = 1
	case "2par":
		p.nfCount = 2
		p.parallel = true
		p.txNsPerHop = 109 // join is cheaper than a full dispatch
	case "2seq":
		p.nfCount = 2
	}
	return p
}

// run measures delivered Mbps at line-rate offered load for one packet
// size, by simulating the stage pipeline for a short horizon.
func (p fig7Pipeline) run(seed int64, pktBytes int) float64 {
	env := sim.NewEnv(seed)
	sink := sim.NewSink(env)

	// Build the pipeline back to front.
	var next sim.Stage = sink
	// TX pool: two cores share per-packet hop work; model as one server
	// with half the per-packet cost.
	hops := float64(p.nfCount)
	if p.nfCount == 0 {
		hops = 0
	}
	if hops > 0 {
		txNs := hops * p.txNsPerHop / 2
		txNext := next
		tx := sim.NewNFStage(env, 512, func(*sim.Packet) sim.Time {
			return txNs * 1e-9
		}, func(*sim.Packet) sim.Stage { return txNext })
		next = tx
	}
	// NF cores: sequential chains traverse each NF in turn; parallel
	// chains also have every member process every packet (same shared
	// copy), so the per-packet NF cost is identical — the savings are in
	// TX hop work and latency, not NF cycles.
	for i := 0; i < p.nfCount; i++ {
		stageNext := next
		nfStage := sim.NewNFStage(env, 512, func(*sim.Packet) sim.Time {
			return p.nfNsPerPkt * 1e-9
		}, func(*sim.Packet) sim.Stage { return stageNext })
		next = nfStage
	}
	rxNext := next
	rx := sim.NewNFStage(env, 512, func(*sim.Packet) sim.Time {
		return p.rxNsPerPkt * 1e-9
	}, func(*sim.Packet) sim.Stage { return rxNext })

	// Offered load: 10 GbE line rate for the frame size (incl. 20 B
	// Ethernet overhead per frame on the wire).
	wireBits := float64((pktBytes + 20) * 8)
	offeredPps := 10e9 / wireBits
	key := traffic.Flow(0, pktBytes, 0).Key
	src := sim.NewCBRSource(env, key, pktBytes, func(sim.Time) float64 {
		return offeredPps * float64(pktBytes*8)
	}, rx)
	src.Start()
	const horizon = 0.02
	env.Run(horizon)
	src.Stop()
	env.Run(horizon + 0.01)
	delivered := float64(sink.Bytes.Value()) * 8 / horizon
	return delivered / 1e6
}

// Fig7 runs the sweep.
func Fig7(seed int64) *Fig7Result {
	res := &Fig7Result{Sizes: []int{64, 128, 256, 512, 1024}}
	for _, s := range res.Sizes {
		res.DPDK = append(res.DPDK, fig7Config("dpdk").run(seed, s))
		res.OneVM = append(res.OneVM, fig7Config("1vm").run(seed, s))
		res.TwoPar = append(res.TwoPar, fig7Config("2par").run(seed, s))
		res.TwoSeq = append(res.TwoSeq, fig7Config("2seq").run(seed, s))
	}
	return res
}

func init() {
	register("fig7", func(seed int64) Result { return Fig7(seed) })
}
