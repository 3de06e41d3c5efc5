package experiments

import (
	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
	"sdnfv/internal/sim"
	"sdnfv/internal/traffic"
)

// simNF runs a real network function on the simulator's clock (§5.2,
// Figs. 8 and 9): each sim.Packet reaches ProcessBatch as a one-packet
// burst over a frame of its flow and size, and every message the NF
// sends goes at once to emit, which plays the NF Manager. The NF decides
// the instant a packet reaches it; its service time is not modelled.
type simNF struct {
	fn    nf.BatchFunction
	ctx   nf.Context
	views map[packet.FlowKey]*packet.View
	batch [1]nf.Packet
	out   [1]nf.Decision
}

// newSimNF runs fn's Init hook as service svc, sending its messages to
// emit.
func newSimNF(fn nf.BatchFunction, svc flowtable.ServiceID, emit func(nf.Message)) (*simNF, error) {
	s := &simNF{fn: fn, ctx: nf.Context{Service: svc, Emit: emit}, views: make(map[packet.FlowKey]*packet.View)}
	return s, nf.InitNF(fn, &s.ctx)
}

// process passes p to the NF and returns its decision. A flow's frame is
// built on its first packet (or a change of size) and reused after: the
// NFs run here only read it.
func (s *simNF) process(p *sim.Packet) nf.Decision {
	v := s.views[p.Key]
	if v == nil || len(v.Buf()) != p.Bytes {
		frame, err := traffic.NewFactory().Frame(traffic.FlowSpec{Key: p.Key, FrameBytes: p.Bytes}, 0)
		must(err)
		view, err := packet.Parse(frame)
		must(err)
		v = &view
		s.views[p.Key] = v
	}
	s.batch[0] = nf.Packet{View: v, Key: p.Key}
	s.out[0] = nf.Decision{}
	s.fn.ProcessBatch(&s.ctx, s.batch[:], s.out[:])
	return s.out[0]
}
