package main

import (
	"fmt"
	"time"

	"sdnfv/internal/app"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/mempool"
	"sdnfv/internal/openflow"
	"sdnfv/internal/packet"
	"sdnfv/internal/ring"
)

// Probes time one layer's public functions directly, in this goroutine,
// on the workload's own frames and table: the cost of the layer with no
// hand-off, polling or scheduling around it. Each figure is the median
// of probeReps timed loops.
const (
	probeReps = 9
	probeOps  = 1 << 17 // operations per timed loop, rounded to whole bursts
	lookupLen = 64      // LookupBatch width, the RX loop's burst
)

// timed returns the median nanoseconds per operation of probeReps runs
// of loop, which performs ops operations per call.
func timed(ops int, loop func()) float64 {
	per := make([]float64, probeReps)
	for i := range per {
		start := time.Now()
		loop()
		per[i] = float64(time.Since(start)) / float64(ops)
	}
	return median(per)
}

var probeSink uint64 // keeps probe results alive so the loops are not optimised away

// probeParse is packet.Parse plus FlowKey per frame.
func probeParse(frames [][]byte) float64 {
	if len(frames) > 4096 {
		frames = frames[:4096]
	}
	return timed(probeOps, func() {
		for i := 0; i < probeOps; i++ {
			v, err := packet.Parse(frames[i%len(frames)])
			if err != nil {
				panic(err) // the harness built these frames
			}
			probeSink += uint64(v.FlowKey().SrcPort)
		}
	})
}

// probeMempool is one Alloc, SetLength, Release cycle.
func probeMempool(frameBytes int) float64 {
	pool := mempool.New(poolSize, 2048)
	return timed(probeOps, func() {
		for i := 0; i < probeOps; i++ {
			h, err := pool.Alloc()
			if err != nil {
				panic(err)
			}
			_ = pool.SetLength(h, frameBytes)
			_ = pool.Release(h)
		}
	})
}

// probeRing is EnqueueBatch plus DequeueBatch per descriptor, in bursts.
func probeRing() float64 {
	r := ring.NewSPSCOf[dataplane.Desc](ringSize)
	in := make([]dataplane.Desc, burstSize)
	out := make([]dataplane.Desc, burstSize)
	return timed(probeOps, func() {
		for i := 0; i < probeOps/burstSize; i++ {
			r.EnqueueBatch(in)
			probeSink += uint64(r.DequeueBatch(out))
		}
	})
}

// probeCodec encodes and decodes one PacketIn and one FlowMod, the pair
// every flow set-up puts on the control channel.
func probeCodec(frame []byte, key packet.FlowKey) (float64, error) {
	head := frame
	if len(head) > 64 {
		head = head[:64]
	}
	in := openflow.PacketIn{Scope: flowtable.Port(portIn), Key: key, Buffer: head}
	mod := openflow.FlowMod{Rule: flowtable.Rule{
		Scope: flowtable.Port(portIn), Match: flowtable.ExactMatch(key),
		Actions: []flowtable.Action{flowtable.Forward(svcFirewall)},
	}}
	var failed error
	const ops = probeOps / 16
	ns := timed(ops, func() {
		for i := 0; i < ops; i++ {
			for _, m := range []openflow.Message{in, mod} {
				b, err := openflow.Encode(m, uint32(i))
				if err == nil {
					_, _, err = openflow.Decode(b)
				}
				if err != nil {
					failed = err
				}
			}
		}
	})
	return ns, failed
}

// tableProbe is the flow table a workload ended up with, and the keys
// its traffic looks up, in traffic order.
type tableProbe struct {
	table *flowtable.Table
	keys  []packet.FlowKey
	// batch builds n short-lived rules shaped like the workload's own
	// writes, keyed from fresh flow number first onward.
	batch func(first uint64, n int) ([]flowtable.Rule, error)
	n     int    // rules per write, as the workload batches them
	free  uint64 // first fresh flow number the table has never held
}

// newTableProbe picks the table to probe. A workload with a resident
// population is probed on the table the traced pass left behind (the
// host is stopped, the clock frozen). flow_setup has no residents, so a
// table of the size its run plateaued at is built from the same compiled
// rules the controller installed. used is how many fresh flow numbers
// the run consumed.
func newTableProbe(w *workload, seed uint64, a *app.App, left *flowtable.Table, liveRules int, used uint64) (*tableProbe, error) {
	p := &tableProbe{table: left, free: used}
	compiled := func(first uint64, n int, idle time.Duration) ([]flowtable.Rule, error) {
		var rules []flowtable.Rule
		for i := 0; i < n; i++ {
			flow, err := a.CompileRules(flowtable.Port(portIn), freshKey(seed, first+uint64(i)), true)
			if err != nil {
				return nil, err
			}
			for j := range flow {
				flow[j].IdleTimeout = idle
			}
			rules = append(rules, flow...)
		}
		return rules, nil
	}
	const probeIdle = time.Millisecond
	rng := seed ^ 0x5DEECE66D // the source's traffic order
	switch {
	case w.flows == 0:
		flows := max(liveRules/3, lookupLen)
		p.free = uint64(flows)
		rules, err := compiled(0, flows, time.Hour)
		if err != nil {
			return nil, err
		}
		p.table = flowtable.New()
		if _, err := p.table.AddBatch(rules); err != nil {
			return nil, err
		}
		for i := 0; i < probeOps; i++ {
			p.keys = append(p.keys, freshKey(seed, splitmix64(&rng)%uint64(flows)))
		}
	default:
		for i := 0; i < probeOps; i++ {
			p.keys = append(p.keys, residentKey(seed, int(splitmix64(&rng)%uint64(w.flows))))
		}
	}
	if w.churnRules > 0 {
		p.n = w.churnRules
		p.batch = func(first uint64, n int) ([]flowtable.Rule, error) {
			rules := make([]flowtable.Rule, n)
			for i := range rules {
				rules[i] = flowtable.Rule{
					Scope: flowtable.Port(portIn), Match: flowtable.ExactMatch(freshKey(seed, first+uint64(i))),
					Actions: []flowtable.Action{flowtable.Forward(svcFirewall)}, IdleTimeout: probeIdle,
				}
			}
			return rules, nil
		}
	} else {
		p.n = lookupLen // the Flow Controller installs one burst of misses at a time
		p.batch = func(first uint64, n int) ([]flowtable.Rule, error) { return compiled(first, n, probeIdle) }
	}
	return p, nil
}

// lookup is LookupBatch per key over the live table in traffic order.
func (p *tableProbe) lookup() (float64, error) {
	scopes := make([]flowtable.ServiceID, lookupLen)
	for i := range scopes {
		scopes[i] = flowtable.Port(portIn)
	}
	out := make([]*flowtable.Entry, lookupLen)
	misses := 0
	ns := timed(len(p.keys), func() {
		for i := 0; i+lookupLen <= len(p.keys); i += lookupLen {
			misses += lookupLen - p.table.LookupBatch(scopes, p.keys[i:i+lookupLen], out)
		}
	})
	if misses > 0 {
		return 0, fmt.Errorf("lookup probe: %d misses on a table that should hold every key", misses)
	}
	return ns, nil
}

// writes times the table's write side at the workload's table size: one
// AddBatch of short-lived rules (per rule added), then, once they have
// idled out, the Sweep that reaps them (per rule the sweep walked).
func (p *tableProbe) writes() (addNs, sweepNsPerRule float64, err error) {
	adds := make([]float64, probeReps)
	sweeps := make([]float64, probeReps)
	for i := range adds {
		rules, err := p.batch(p.free+uint64(i*p.n), p.n)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		if _, err := p.table.AddBatch(rules); err != nil {
			return 0, 0, err
		}
		adds[i] = float64(time.Since(start)) / float64(len(rules))
		held := p.table.Stats().Rules
		p.table.Advance(2 * time.Millisecond)
		start = time.Now()
		evicted := p.table.Sweep()
		sweeps[i] = float64(time.Since(start)) / float64(held)
		if len(evicted) < len(rules) {
			return 0, 0, fmt.Errorf("sweep probe: reaped %d of %d expired rules", len(evicted), len(rules))
		}
	}
	return median(adds), median(sweeps), nil
}
