package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/packet"
	"sdnfv/internal/traffic"
)

// workload is one set of inputs the benchmark runs. The four instances
// below differ in which layer does most of the work; BENCHMARK.json
// records the same one-line reasons.
type workload struct {
	name string
	why  string

	frameBytes int
	// flows is the resident flow population installed at set-up; 0 means
	// every packet is the first of a flow the table has never seen.
	flows int
	// exactHops installs each resident flow as exact rules at every hop
	// (the shape app.CompileFlow produces); otherwise only the ingress
	// scope is per-flow and the service hops share wildcard rules.
	exactHops bool
	// window is the in-flight cap: the closed-loop window, and the most
	// the open-loop generator lets pile up before it waits (and counts the
	// wait as lateness) instead of overrunning a ring.
	window  int
	openPPS int
	// openBurst is how many frames the open loop sends per timetable
	// slot: bursts of burstSize where the rate leaves no time to pace
	// single frames (and IngestBurst is the API drivers call anyway); one
	// frame at a time on the wire, where frames do arrive one at a time.
	// 32 datagrams landing on a socket in the same instant, then silence
	// for milliseconds, made wire_udp's latency a lottery of which engine
	// thread happened to be asleep (run-to-run spread 0.11-0.22); paced
	// singly it repeats within 0.03.
	openBurst int
	// warmup is the fixed number of packets sent before anything is
	// measured; it is part of setup_s.
	warmup int

	wire       bool // ingress and egress through portio.UDPDriver on loopback
	controller bool // misses resolve over TCP through controller and app
	idle       time.Duration
	sweep      time.Duration

	// Ephemeral churn: every churnEvery packets the generator installs
	// churnRules short-lived rules and sends each churnPkts packets.
	churnEvery int
	churnRules int
	churnPkts  int
	churnIdle  time.Duration
}

var workloads = []*workload{
	{
		name:       "chain_steady",
		why:        "64 B frames, 1024 pre-installed flows, in-process firewall->IDS chain: fast path only, so per-packet cost of dataplane/flowtable/ring/mempool/nf dominates; portio/control/controller/app stay idle",
		frameBytes: 64, flows: 1024, exactHops: true, window: 256, openPPS: 100_000, openBurst: burstSize, warmup: 400_000,
	},
	{
		name:       "wire_udp",
		why:        "same chain through portio.UDPDriver on loopback (not a link), 512 B frames: a syscall and a copy per frame each way, so portio does most of the work and the engine little",
		frameBytes: 512, flows: 1024, exactHops: true, window: 64, openPPS: 4_000, openBurst: 1, warmup: 4_000, wire: true,
	},
	{
		name:       "flow_setup",
		why:        "every 128 B packet starts a never-seen flow: miss, control.Client over TCP loopback, controller, app.CompileFlow, FlowMod, AddBatch (paper Fig. 10); control path and flowtable writes dominate",
		frameBytes: 128, window: 256, openPPS: 5_000, openBurst: burstSize, warmup: 10_000, controller: true,
		idle: 500 * time.Millisecond, sweep: 50 * time.Millisecond,
	},
	{
		name:       "flow_churn",
		why:        "262144 resident flows at one scope (beyond cache) plus batched installs of short-lived rules and background sweeps at a fixed write:read ratio: a lookup gain that costs writes or sweeps shows",
		frameBytes: 64, flows: 262_144, window: 256, openPPS: 100_000, openBurst: burstSize, warmup: 200_000,
		idle: 30 * time.Second, sweep: 100 * time.Millisecond,
		churnEvery: 50_000, churnRules: 512, churnPkts: 4, churnIdle: 300 * time.Millisecond,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

const (
	burstSize = 32

	// Fixed offsets inside the UDP frames traffic.Factory.Frame builds:
	// Ethernet 14 + IPv4 20 + UDP 8, then the 4-byte magic and the 8-byte
	// timestamp. The generator and the egress check touch these bytes
	// directly so the per-packet loop neither parses nor allocates.
	offMagic = packet.EthHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen
	offStamp = offMagic + 4
	minFrame = offStamp + 8

	stampMagic = 0x534e4656 // traffic.Factory's "SNFV" payload marker
)

// splitmix64 is the harness's only random source: seeded from -seed, so
// the same seed always yields the same flows in the same order.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// residentKey is flow i of the resident population: the index sits in
// the source address (unique by construction), the seed picks the ports
// and the destination, so another seed hashes the population elsewhere.
func residentKey(seed uint64, i int) packet.FlowKey {
	s := seed ^ uint64(i)*0xD6E8FEB86659FD93
	r := splitmix64(&s)
	return packet.FlowKey{
		SrcIP:   packet.IPv4(10, byte(i>>16), byte(i>>8), byte(i)),
		DstIP:   packet.IPv4(172, 16, byte(seed>>8), byte(seed)),
		SrcPort: uint16(1024 + r%60000),
		DstPort: 80,
		Proto:   packet.ProtoUDP,
	}
}

// freshKey is the n-th flow that did not exist at set-up (a flow_setup
// packet, a flow_churn ephemeral); 11/8 keeps it clear of the residents.
func freshKey(seed, n uint64) packet.FlowKey {
	s := seed ^ n*0xA24BAED4963EE407
	r := splitmix64(&s)
	return packet.FlowKey{
		SrcIP:   packet.IPv4(11, byte(n>>16), byte(n>>8), byte(n)),
		DstIP:   packet.IPv4(172, 16, byte(seed>>8), byte(seed)),
		SrcPort: uint16(1024 + r%60000),
		DstPort: 80,
		Proto:   packet.ProtoUDP,
	}
}

// buildFrame makes one stamped frame for key, padded to size with a
// benign request so the IDS scans real bytes and finds nothing.
func buildFrame(f *traffic.Factory, key packet.FlowKey, size int, dst []byte) ([]byte, error) {
	frame, err := f.Frame(traffic.FlowSpec{Key: key, FrameBytes: size}, 0)
	if err != nil {
		return nil, err
	}
	if len(frame) != size || size < minFrame {
		return nil, fmt.Errorf("frame is %d bytes, want %d (at least %d)", len(frame), size, minFrame)
	}
	n := copy(dst, frame)
	benign := traffic.BenignPayload()
	for i := minFrame; i < n; i++ {
		dst[i] = benign[(i-minFrame)%len(benign)]
	}
	return dst[:n], nil
}

// setFlow rewrites a template frame's source address and port to key's
// and refreshes the IPv4 header checksum, keeping the frame valid.
func setFlow(v *packet.View, key packet.FlowKey) {
	v.SetSrcIP(key.SrcIP)
	v.SetSrcPort(key.SrcPort)
	v.UpdateChecksums()
}

// source produces the workload's frames, burst by burst, from the seed.
// It is owned by the generator goroutine and allocates nothing after
// newSource except inside the table writes flow_churn performs.
type source struct {
	w    *workload
	seed uint64
	rng  uint64

	resident [][]byte // one prebuilt frame per resident flow
	tmpl     [][]byte // burstSize patchable frames for fresh flows
	tmplView []packet.View
	burst    [][]byte
	fresh    uint64 // fresh flows handed out so far

	// flow_churn: where ephemeral rules go and what is left to send.
	table     *flowtable.Table
	ephAction flowtable.Action
	sinceEph  int
	ephBursts int
	ephBase   uint64
	ephRules  []flowtable.Rule
}

func newSource(w *workload, seed uint64) (*source, error) {
	s := &source{w: w, seed: seed, rng: seed ^ 0x5DEECE66D, burst: make([][]byte, burstSize)}
	f := traffic.NewFactory()
	slab := make([]byte, (w.flows+burstSize)*w.frameBytes)
	take := func(key packet.FlowKey) ([]byte, error) {
		fr, err := buildFrame(f, key, w.frameBytes, slab[:w.frameBytes])
		slab = slab[w.frameBytes:]
		return fr, err
	}
	for i := 0; i < w.flows; i++ {
		fr, err := take(residentKey(seed, i))
		if err != nil {
			return nil, err
		}
		s.resident = append(s.resident, fr)
	}
	for i := 0; i < burstSize; i++ {
		fr, err := take(freshKey(seed, 0))
		if err != nil {
			return nil, err
		}
		v, err := packet.Parse(fr)
		if err != nil {
			return nil, err
		}
		s.tmpl, s.tmplView = append(s.tmpl, fr), append(s.tmplView, v)
	}
	if w.churnRules > 0 {
		s.ephRules = make([]flowtable.Rule, w.churnRules)
	}
	return s, nil
}

// next returns the next n frames (at most burstSize), every one stamped
// with stamp. The slices stay valid until the following call.
func (s *source) next(stamp int64, n int) ([][]byte, error) {
	burst := s.burst[:n]
	switch {
	case s.w.flows == 0:
		for i, fr := range s.tmpl[:n] {
			setFlow(&s.tmplView[i], freshKey(s.seed, s.fresh))
			s.fresh++
			s.burst[i] = fr
		}
	case s.ephBursts > 0:
		if n != burstSize {
			return nil, fmt.Errorf("%s: ephemeral flows are sent in whole bursts, not %d frames", s.w.name, n)
		}
		// Ephemeral flows go out round-robin, churnPkts passes over the
		// batch, so each rule is hit several times before it idles out.
		per := s.w.churnRules / burstSize
		first := s.ephBase + uint64((per*s.w.churnPkts-s.ephBursts)%per*burstSize)
		for i, fr := range s.tmpl {
			setFlow(&s.tmplView[i], freshKey(s.seed, first+uint64(i)))
			s.burst[i] = fr
		}
		s.ephBursts--
	default:
		if s.w.churnEvery > 0 && s.sinceEph >= s.w.churnEvery {
			s.sinceEph = 0
			if err := s.installEphemeral(); err != nil {
				return nil, err
			}
			return s.next(stamp, n)
		}
		for i := range burst {
			burst[i] = s.resident[splitmix64(&s.rng)%uint64(len(s.resident))]
		}
		s.sinceEph += n
	}
	for _, fr := range burst {
		binary.BigEndian.PutUint64(fr[offStamp:], uint64(stamp))
	}
	return burst, nil
}

// installEphemeral is flow_churn's write: one AddBatch of short-lived
// exact rules beside the resident population, followed (in next) by the
// packets that use them. The sweeper reaps them once they go idle.
func (s *source) installEphemeral() error {
	s.ephBase = s.fresh
	for i := range s.ephRules {
		s.ephRules[i] = flowtable.Rule{
			Scope:       flowtable.Port(0),
			Match:       flowtable.ExactMatch(freshKey(s.seed, s.fresh)),
			Actions:     []flowtable.Action{s.ephAction},
			IdleTimeout: s.w.churnIdle,
		}
		s.fresh++
	}
	if _, err := s.table.AddBatch(s.ephRules); err != nil {
		return fmt.Errorf("ephemeral AddBatch: %w", err)
	}
	s.ephBursts = s.w.churnRules / burstSize * s.w.churnPkts
	return nil
}
