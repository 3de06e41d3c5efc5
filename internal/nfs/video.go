package nfs

import (
	"bytes"
	"container/list"
	"sync/atomic"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
)

// VideoDetector analyzes HTTP response headers to detect video content in
// a flow (§2.2). Video flows follow the default edge toward the Policy
// Engine; everything else takes the bypass edge. Once a flow's content
// type is known, the detector issues a ChangeDefault so later packets of a
// non-video flow skip the policy path entirely (§5.3). Per-flow
// classifications live in the engine-owned flow store.
type VideoDetector struct {
	// PolicyEngine is the default destination for video flows.
	PolicyEngine flowtable.ServiceID
	// Bypass is where non-video flows are diverted.
	Bypass flowtable.ServiceID
	// RewriteDefaults controls whether the detector installs
	// ChangeDefault rules for classified flows (the SDNFV mode of §5.3).
	RewriteDefaults bool

	videoFlows atomic.Uint64
	otherFlows atomic.Uint64
}

const (
	flowUnknown uint8 = iota
	flowVideo
	flowOther
)

// videoContentTypes are payload markers identifying video responses.
var videoContentTypes = [][]byte{
	[]byte("Content-Type: video/"),
	[]byte("Content-Type: application/vnd.apple.mpegurl"),
	[]byte("Content-Type: application/dash+xml"),
}

// Name implements nf.BatchFunction.
func (v *VideoDetector) Name() string { return "video-detector" }

// ReadOnly implements nf.BatchFunction.
func (v *VideoDetector) ReadOnly() bool { return true }

// ProcessBatch implements nf.BatchFunction.
func (v *VideoDetector) ProcessBatch(ctx *nf.Context, batch []nf.Packet, out []nf.Decision) {
	flows := ctx.FlowState()
	for i := range batch {
		p := &batch[i]
		st := flowUnknown
		if cached, ok := flows.Get(p.Key); ok {
			// Comma-ok: a foreign value (store inherited from another NF
			// outside the engine's type-change clearing) reclassifies
			// instead of panicking the dataplane.
			if c, ok := cached.(uint8); ok {
				st = c
			}
		}
		if st == flowUnknown {
			st = v.classify(p)
			if st != flowUnknown {
				flows.Set(p.Key, st)
				if st == flowVideo {
					v.videoFlows.Add(1)
				} else {
					v.otherFlows.Add(1)
				}
				if v.RewriteDefaults && st == flowOther {
					// Non-video flows skip the policy engine from now on.
					ctx.Send(nf.Message{
						Kind:  nf.MsgChangeDefault,
						Flows: flowtable.ExactMatch(p.Key),
						S:     ctx.Service,
						T:     v.Bypass,
					})
				}
			}
		}
		switch st {
		case flowVideo:
			out[i] = steer(v.PolicyEngine)
		case flowOther:
			out[i] = steer(v.Bypass)
		default:
			// Not enough information yet (e.g. handshake packets): pass
			// along the policy path so nothing is missed.
		}
	}
}

func (v *VideoDetector) classify(p *nf.Packet) uint8 {
	if !p.View.Valid() {
		return flowUnknown
	}
	payload := p.View.Payload()
	if len(payload) == 0 {
		return flowUnknown
	}
	if !bytes.HasPrefix(payload, []byte("HTTP/")) {
		return flowUnknown
	}
	for _, ct := range videoContentTypes {
		if bytes.Contains(payload, ct) {
			return flowVideo
		}
	}
	return flowOther
}

// VideoFlows returns the number of flows classified as video.
func (v *VideoDetector) VideoFlows() uint64 { return v.videoFlows.Load() }

// OtherFlows returns the number of flows classified as non-video.
func (v *VideoDetector) OtherFlows() uint64 { return v.otherFlows.Load() }

var _ nf.BatchFunction = (*VideoDetector)(nil)

// PolicyState is the shared, atomically-updated policy consulted by
// PolicyEngine instances. The SDNFV Application flips Throttle during the
// experiment of Fig. 11.
type PolicyState struct {
	throttle atomic.Bool
}

// SetThrottle switches transcoding on or off for all video flows.
func (s *PolicyState) SetThrottle(on bool) { s.throttle.Store(on) }

// Throttle reports the current policy.
func (s *PolicyState) Throttle() bool { return s.throttle.Load() }

// PolicyEngine decides per packet whether a video flow goes to the
// Transcoder or continues unmodified, based on the shared PolicyState
// (which stands in for "available network bandwidth, time of day and
// financial agreements", §2.2). Because every packet of a video flow
// passes through it, a policy flip affects existing flows immediately —
// the property Fig. 11 measures. The flows already given a per-flow
// default rule are tracked in the engine-owned flow store.
type PolicyEngine struct {
	State *PolicyState
	// Transcoder is where throttled flows go.
	Transcoder flowtable.ServiceID
	// Bypass is where unthrottled flows go.
	Bypass flowtable.ServiceID
	// RewriteDefaults makes the engine install per-flow ChangeDefault
	// rules matching its decision, and issue RequestMe when the policy
	// flips (the SDNFV mode of §5.3).
	RewriteDefaults bool

	lastPolicy bool
	havePolicy bool

	throttled atomic.Uint64
	passed    atomic.Uint64
}

// Name implements nf.BatchFunction.
func (e *PolicyEngine) Name() string { return "policy-engine" }

// ReadOnly implements nf.BatchFunction.
func (e *PolicyEngine) ReadOnly() bool { return true }

// ProcessBatch implements nf.BatchFunction. The policy is read once per
// burst; a flip between bursts is what Fig. 11 observes.
func (e *PolicyEngine) ProcessBatch(ctx *nf.Context, batch []nf.Packet, out []nf.Decision) {
	throttle := e.State != nil && e.State.Throttle()
	perFlowSent := ctx.FlowState()
	if e.RewriteDefaults && e.havePolicy && throttle != e.lastPolicy {
		// Policy flip: pull every flow back through the policy engine
		// so their defaults can be rewritten (§5.3: "the policy change
		// causes the Policy NF to issue a RequestMe message").
		ctx.Send(nf.Message{Kind: nf.MsgRequestMe, Flows: flowtable.MatchAll, S: ctx.Service})
		perFlowSent.Clear()
	}
	e.lastPolicy = throttle
	e.havePolicy = true

	dest := e.Bypass
	if throttle {
		dest = e.Transcoder
	}
	var throttled, passed uint64
	for i := range batch {
		p := &batch[i]
		if e.RewriteDefaults {
			if _, sent := perFlowSent.Get(p.Key); !sent {
				perFlowSent.Set(p.Key, true)
				ctx.Send(nf.Message{
					Kind:  nf.MsgChangeDefault,
					Flows: flowtable.ExactMatch(p.Key),
					S:     ctx.Service,
					T:     dest,
				})
			}
		}
		if throttle {
			throttled++
		} else {
			passed++
		}
		out[i] = steer(dest)
	}
	e.throttled.Add(throttled)
	e.passed.Add(passed)
}

// steer maps a destination to the right per-packet decision: services are
// reached with SendTo, port-encoded destinations exit the host directly.
func steer(dest flowtable.ServiceID) nf.Decision {
	if dest.IsPort() {
		return nf.Out(dest.PortNum())
	}
	return nf.SendTo(dest)
}

// Throttled returns the number of packets routed to the transcoder.
func (e *PolicyEngine) Throttled() uint64 { return e.throttled.Load() }

// Passed returns the number of packets passed unmodified.
func (e *PolicyEngine) Passed() uint64 { return e.passed.Load() }

var _ nf.BatchFunction = (*PolicyEngine)(nil)

// QualityDetector checks whether a video flow can still meet its target
// quality after transcoding (§2.2): flows whose advertised bitrate is
// already at or below MinBitrateKbps skip the transcoder.
type QualityDetector struct {
	// MinBitrateKbps is the floor below which transcoding is skipped.
	MinBitrateKbps int
	// Transcoder receives flows that can be downsampled.
	Transcoder flowtable.ServiceID
	// Bypass receives flows already at minimum quality.
	Bypass flowtable.ServiceID
	// BitrateOf extracts the flow's advertised bitrate in kbps; nil means
	// every flow is transcodable.
	BitrateOf func(p *nf.Packet) int
}

// Name implements nf.BatchFunction.
func (q *QualityDetector) Name() string { return "quality-detector" }

// ReadOnly implements nf.BatchFunction.
func (q *QualityDetector) ReadOnly() bool { return true }

// ProcessBatch implements nf.BatchFunction.
func (q *QualityDetector) ProcessBatch(_ *nf.Context, batch []nf.Packet, out []nf.Decision) {
	for i := range batch {
		if q.BitrateOf != nil && q.BitrateOf(&batch[i]) <= q.MinBitrateKbps {
			out[i] = steer(q.Bypass)
			continue
		}
		out[i] = steer(q.Transcoder)
	}
}

var _ nf.BatchFunction = (*QualityDetector)(nil)

// Transcoder emulates bitrate reduction the same way the paper's
// evaluation does: "the transcoder ... emulates down sampling by dropping
// packets" (§5.3). DropRatio 0.5 halves a flow's rate.
type Transcoder struct {
	// DropRatio is the fraction of packets dropped, in [0,1].
	DropRatio float64

	counter uint64
	dropped atomic.Uint64
	emitted atomic.Uint64
}

// Name implements nf.BatchFunction.
func (t *Transcoder) Name() string { return "transcoder" }

// ReadOnly implements nf.BatchFunction; the (emulated) transcoder does not
// rewrite bytes, but it is stateful per packet sequence, so mark it
// non-read-only to keep it out of parallel segments.
func (t *Transcoder) ReadOnly() bool { return false }

// ProcessBatch implements nf.BatchFunction.
func (t *Transcoder) ProcessBatch(_ *nf.Context, batch []nf.Packet, out []nf.Decision) {
	ratio := t.DropRatio
	if ratio <= 0 {
		ratio = 0.5
	}
	var dropped, emitted uint64
	base := t.dropped.Load()
	for i := range batch {
		t.counter++
		// Deterministic thinning: drop when the accumulated phase
		// crosses 1.
		if float64(t.counter)*ratio-float64(base+dropped) >= 1 {
			dropped++
			out[i] = nf.Discard()
			continue
		}
		emitted++
	}
	t.dropped.Add(dropped)
	t.emitted.Add(emitted)
}

// Dropped returns packets removed by downsampling.
func (t *Transcoder) Dropped() uint64 { return t.dropped.Load() }

// Emitted returns packets passed through.
func (t *Transcoder) Emitted() uint64 { return t.emitted.Load() }

var _ nf.BatchFunction = (*Transcoder)(nil)

// Cache is an LRU content cache keyed by a caller-supplied key extractor
// (§2.2: "The video flow passes through a Cache so that subsequent
// requests can be served locally"). A hit short-circuits the chain: the
// packet exits immediately through OutPort. The Close lifecycle hook
// releases the cached entries.
type Cache struct {
	// Capacity is the number of entries retained.
	Capacity int
	// KeyOf extracts the content key; empty string = uncacheable.
	KeyOf func(p *nf.Packet) string
	// OutPort is the NIC port hits exit through.
	OutPort int

	lru     *list.List
	entries map[string]*list.Element

	hits atomic.Uint64
}

// Name implements nf.BatchFunction.
func (c *Cache) Name() string { return "cache" }

// ReadOnly implements nf.BatchFunction.
func (c *Cache) ReadOnly() bool { return false }

// Init implements nf.Initializer, allocating the LRU index.
func (c *Cache) Init(_ *nf.Context) error {
	if c.entries == nil {
		c.entries = make(map[string]*list.Element)
		c.lru = list.New()
	}
	return nil
}

// Close implements nf.Closer, releasing the cached content index.
func (c *Cache) Close() error {
	c.entries = nil
	c.lru = nil
	return nil
}

// ProcessBatch implements nf.BatchFunction. Init must have run (the
// engine guarantees it; standalone drivers call it directly).
func (c *Cache) ProcessBatch(_ *nf.Context, batch []nf.Packet, out []nf.Decision) {
	if c.KeyOf == nil {
		return
	}
	capacity := c.Capacity
	if capacity <= 0 {
		capacity = 1024
	}
	for i := range batch {
		key := c.KeyOf(&batch[i])
		if key == "" {
			continue
		}
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			c.hits.Add(1)
			out[i] = nf.Out(c.OutPort)
			continue
		}
		for c.lru.Len() >= capacity {
			back := c.lru.Back()
			c.lru.Remove(back)
			delete(c.entries, back.Value.(string))
		}
		c.entries[key] = c.lru.PushFront(key)
	}
}

// Hits returns the cache hit count.
func (c *Cache) Hits() uint64 { return c.hits.Load() }

var (
	_ nf.BatchFunction = (*Cache)(nil)
	_ nf.Initializer   = (*Cache)(nil)
	_ nf.Closer        = (*Cache)(nil)
)

// Shaper enforces a rate limit with a token bucket; packets exceeding the
// rate are dropped ("a traffic Shaper, which may limit the flow's rate to
// meet the desired network bandwidth level", §2.2).
type Shaper struct {
	// RateBps is the sustained rate in bits/second.
	RateBps float64
	// BurstBytes is the bucket depth; defaults to one 1500B frame.
	BurstBytes float64
	// Now returns the current time in seconds (virtual or real clock).
	Now func() float64

	tokens   float64
	lastFill float64
	inited   bool

	shaped atomic.Uint64
	passed atomic.Uint64
}

// Name implements nf.BatchFunction.
func (s *Shaper) Name() string { return "shaper" }

// ReadOnly implements nf.BatchFunction.
func (s *Shaper) ReadOnly() bool { return false }

// ProcessBatch implements nf.BatchFunction. The bucket refills once per
// burst — the packets of a burst arrive together on the engine clock.
func (s *Shaper) ProcessBatch(_ *nf.Context, batch []nf.Packet, out []nf.Decision) {
	now := 0.0
	if s.Now != nil {
		now = s.Now()
	}
	burst := s.BurstBytes
	if burst <= 0 {
		burst = 1500
	}
	if !s.inited {
		s.tokens = burst
		s.lastFill = now
		s.inited = true
	}
	s.tokens += (now - s.lastFill) * s.RateBps / 8
	s.lastFill = now
	if s.tokens > burst {
		s.tokens = burst
	}
	var shaped, passed uint64
	for i := range batch {
		size := float64(len(batch[i].View.Buf()))
		if s.tokens >= size {
			s.tokens -= size
			passed++
			continue
		}
		shaped++
		out[i] = nf.Discard()
	}
	s.shaped.Add(shaped)
	s.passed.Add(passed)
}

// Shaped returns packets dropped by the shaper.
func (s *Shaper) Shaped() uint64 { return s.shaped.Load() }

// Passed returns packets conforming to the rate.
func (s *Shaper) Passed() uint64 { return s.passed.Load() }

var _ nf.BatchFunction = (*Shaper)(nil)
