package sim

import (
	"sdnfv/internal/control"
	"sdnfv/internal/metrics"
	"sdnfv/internal/packet"
)

// Packet is the simulator's packet record: a lightweight stand-in for a
// frame (the byte-accurate packet path lives in internal/dataplane).
type Packet struct {
	Key   packet.FlowKey
	Bytes int
	// Born is the packet's creation time (for latency measurement).
	Born Time
}

// Stage is anything that can accept a packet in the simulated pipeline.
type Stage interface {
	Accept(p *Packet)
}

// StageFunc adapts a function to Stage.
type StageFunc func(p *Packet)

// Accept implements Stage.
func (f StageFunc) Accept(p *Packet) { f(p) }

// Link models a store-and-forward link: serialization at RateBps, then
// propagation DelaySec, then delivery to Next. Packets queue behind one
// another (the queueing delay that separates slow and fast paths in
// Fig. 8).
type Link struct {
	env  *Env
	q    *Queue
	Next Stage
	// RateBps is the link speed; DelaySec the propagation delay.
	RateBps  float64
	DelaySec float64

	TxBytes   *metrics.Counter
	TxPackets *metrics.Counter
}

// NewLink builds a link in env. queueCap bounds the transmit queue
// (0 = unbounded).
func NewLink(env *Env, rateBps, delaySec float64, queueCap int, next Stage) *Link {
	return &Link{
		env:       env,
		q:         NewQueue(env, queueCap),
		Next:      next,
		RateBps:   rateBps,
		DelaySec:  delaySec,
		TxBytes:   &metrics.Counter{},
		TxPackets: &metrics.Counter{},
	}
}

// Accept implements Stage.
func (l *Link) Accept(p *Packet) {
	ser := float64(p.Bytes*8) / l.RateBps
	l.q.Offer(ser, func() {
		l.TxBytes.Add(uint64(p.Bytes))
		l.TxPackets.Add(1)
		l.env.After(l.DelaySec, func() {
			if l.Next != nil {
				l.Next.Accept(p)
			}
		})
	})
}

// Sink counts delivered packets and records latency.
type Sink struct {
	env     *Env
	Packets *metrics.Counter
	Bytes   *metrics.Counter
	Latency *metrics.Histogram
	// OnPacket, when set, observes deliveries.
	OnPacket func(p *Packet)
}

// NewSink builds a sink.
func NewSink(env *Env) *Sink {
	return &Sink{
		env:     env,
		Packets: &metrics.Counter{},
		Bytes:   &metrics.Counter{},
		Latency: metrics.NewHistogram(),
	}
}

// Accept implements Stage.
func (s *Sink) Accept(p *Packet) {
	s.Packets.Add(1)
	s.Bytes.Add(uint64(p.Bytes))
	s.Latency.Observe((s.env.Now() - p.Born) * 1e9) // ns
	if s.OnPacket != nil {
		s.OnPacket(p)
	}
}

// ControllerModel is the single-threaded SDN controller (POX in the
// paper): one server, fixed per-request service time, bounded queue.
// Saturating it is the essence of Figs. 1 and 10.
type ControllerModel struct {
	env *Env
	q   *Queue
	// ServiceSec is the per-request processing time.
	ServiceSec float64
	// RTTSec is the control-channel round trip added outside the queue.
	RTTSec float64

	Requests *metrics.Counter
	Rejected *metrics.Counter
}

// NewControllerModel builds the model; queueCap bounds pending requests.
func NewControllerModel(env *Env, serviceSec, rttSec float64, queueCap int) *ControllerModel {
	return &ControllerModel{
		env:        env,
		q:          NewQueue(env, queueCap),
		ServiceSec: serviceSec,
		RTTSec:     rttSec,
		Requests:   &metrics.Counter{},
		Rejected:   &metrics.Counter{},
	}
}

// Submit requests a flow decision; done runs when the controller has
// answered (after queueing, service, and RTT). Admission control speaks
// the control package's error taxonomy: a full queue refuses with
// control.ErrQueueFull (request dropped, counted in Rejected only —
// mirroring control.Stats semantics, Requests counts admitted requests).
func (c *ControllerModel) Submit(done func()) error {
	ok := c.q.Offer(c.ServiceSec, func() {
		c.env.After(c.RTTSec, done)
	})
	if !ok {
		c.Rejected.Add(1)
		return control.ErrQueueFull
	}
	c.Requests.Add(1)
	return nil
}

// OVSSwitch models the Fig. 1 setup: a software switch with a flow table.
// A configurable fraction of packets miss the table and must wait for the
// controller before being forwarded; the rest forward at the switch's
// capacity. Missed packets are buffered per flow decision; if the
// controller rejects (queue full), the packet is dropped.
type OVSSwitch struct {
	env *Env
	// FwdRatePps is the switch's forwarding capacity in packets/second.
	FwdRatePps float64
	// MissFraction is the share of packets punted to the controller.
	MissFraction float64
	Controller   *ControllerModel
	Next         Stage

	q        *Queue
	Forwards *metrics.Counter
	Punts    *metrics.Counter
	Drops    *metrics.Counter
}

// NewOVSSwitch builds the switch model.
func NewOVSSwitch(env *Env, fwdRatePps, missFraction float64, ctrl *ControllerModel, next Stage) *OVSSwitch {
	return &OVSSwitch{
		env:          env,
		FwdRatePps:   fwdRatePps,
		MissFraction: missFraction,
		Controller:   ctrl,
		Next:         next,
		q:            NewQueue(env, 4096),
		Forwards:     &metrics.Counter{},
		Punts:        &metrics.Counter{},
		Drops:        &metrics.Counter{},
	}
}

// Accept implements Stage.
func (s *OVSSwitch) Accept(p *Packet) {
	forward := func() {
		if !s.q.Offer(1/s.FwdRatePps, func() {
			s.Forwards.Add(1)
			if s.Next != nil {
				s.Next.Accept(p)
			}
		}) {
			s.Drops.Add(1)
		}
	}
	if s.env.Rand().Float64() < s.MissFraction {
		s.Punts.Add(1)
		if s.Controller.Submit(forward) != nil {
			s.Drops.Add(1)
		}
		return
	}
	forward()
}

// CBRSource emits fixed-size packets for a flow at a (possibly
// time-varying) rate into a stage. Rate changes take effect at the next
// emission.
type CBRSource struct {
	env   *Env
	Spec  packet.FlowKey
	Bytes int
	// RateBps returns the offered rate at time t; zero pauses emission
	// (the source re-polls at PollSec).
	RateBps func(t Time) float64
	// PollSec is the re-poll interval while paused (default 0.1 s).
	PollSec float64
	Dest    Stage

	Emitted *metrics.Counter
	stopped bool
}

// NewCBRSource builds a source; call Start to begin emitting.
func NewCBRSource(env *Env, key packet.FlowKey, bytes int, rate func(t Time) float64, dest Stage) *CBRSource {
	return &CBRSource{
		env: env, Spec: key, Bytes: bytes, RateBps: rate, Dest: dest,
		PollSec: 0.1,
		Emitted: &metrics.Counter{},
	}
}

// Start schedules the first emission.
func (s *CBRSource) Start() { s.emit() }

// Stop halts the source permanently.
func (s *CBRSource) Stop() { s.stopped = true }

func (s *CBRSource) emit() {
	if s.stopped {
		return
	}
	rate := s.RateBps(s.env.Now())
	if rate <= 0 {
		s.env.After(s.PollSec, s.emit)
		return
	}
	p := &Packet{Key: s.Spec, Bytes: s.Bytes, Born: s.env.Now()}
	s.Dest.Accept(p)
	s.Emitted.Add(1)
	s.env.After(float64(s.Bytes*8)/rate, s.emit)
}

var (
	_ Stage = (*Link)(nil)
	_ Stage = (*Sink)(nil)
	_ Stage = (*OVSSwitch)(nil)
)
