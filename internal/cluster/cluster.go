// Package cluster is the fabric tying a set of SDNFV NF hosts into one
// data plane (Fig. 2, §3.2: the controller manages a *set* of NF hosts,
// with service chains spanning them). It provides:
//
//   - a host registry keyed by control.DatapathID, with lifecycle
//     (Start/Stop) and aggregate accounting across members;
//   - Links: the inter-host wires. A link binds (hostA, portA) ↔
//     (hostB, portB) through the hosts' per-port egress bindings, so an
//     ActionOut on one host becomes an Inject on its peer. Unshaped
//     links deliver synchronously in the transmitting host's TX thread
//     (zero extra copies — Inject copies into the peer's pool either
//     way); shaped links model capacity and propagation delay with a
//     store-and-forward pacer, netem-style but in wall time;
//   - rule installation for the per-host tables the application
//     compiles from a deployment, and the app.Downstream applier that
//     lets accepted cross-layer messages re-route deployed chains at
//     runtime.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdnfv/internal/app"
	"sdnfv/internal/control"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/portio"
)

// Errors returned by fabric operations.
var (
	ErrDuplicateHost = errors.New("cluster: datapath already registered")
	ErrUnknownHost   = errors.New("cluster: unknown datapath")
)

// LinkConfig shapes one direction of a link. The zero value is an
// ideal wire: frames are injected into the peer synchronously from the
// transmitting host's TX thread.
type LinkConfig struct {
	// RateBps bounds the link's serialization rate (0 = infinite).
	RateBps float64
	// Delay is the propagation delay added to every frame.
	Delay time.Duration
	// Queue bounds the shaper's transmit queue (default 1024). Frames
	// beyond it are dropped, like a full NIC ring.
	Queue int
}

func (c LinkConfig) shaped() bool { return c.RateBps > 0 || c.Delay > 0 }

// LinkStats is a snapshot of one link direction's counters.
type LinkStats struct {
	// TxFrames/TxBytes count frames delivered into the peer host.
	TxFrames, TxBytes uint64
	// Drops counts frames lost on the wire: shaper queue overflow or
	// the peer refusing the inject (pool exhausted, NIC ring full,
	// host stopped).
	Drops uint64
}

// Link is one direction of an inter-host wire: egress port OutPort on
// the source host delivers to ingress port InPort on the destination.
type Link struct {
	Src, Dst         control.DatapathID
	OutPort, InPort  int
	cfg              LinkConfig
	dst              *dataplane.Host
	frames           chan []byte
	txFrames, drops  atomic.Uint64
	txBytes, pending atomic.Uint64
	done             chan struct{}
	closeOnce        sync.Once
	wg               sync.WaitGroup
}

// Channel returns the link direction as the app compiler's conduit form.
func (l *Link) Channel() app.Channel { return app.Channel{Out: l.OutPort, In: l.InPort} }

// Stats returns the link direction's counters.
func (l *Link) Stats() LinkStats {
	return LinkStats{
		TxFrames: l.txFrames.Load(),
		TxBytes:  l.txBytes.Load(),
		Drops:    l.drops.Load(),
	}
}

// deliver injects one frame into the destination host, counting the
// outcome.
func (l *Link) deliver(frame []byte) {
	if err := l.dst.Inject(l.InPort, frame); err != nil {
		l.drops.Add(1)
		return
	}
	l.txFrames.Add(1)
	l.txBytes.Add(uint64(len(frame)))
}

// shape is the store-and-forward pacer for a shaped link direction: it
// serializes frames at RateBps on a virtual transmit clock (a burst
// queues behind itself without accumulating drift), while propagation
// Delay is applied per frame OFF the pacing loop — frames pipeline in
// flight, so a long-delay link still sustains its full serialization
// rate. Delivery order is preserved: the transmit clock is monotonic
// and the delay constant, so successive timers fire in enqueue order.
func (l *Link) shape() {
	defer l.wg.Done()
	var txClock time.Time
	for {
		select {
		case frame := <-l.frames:
			now := time.Now()
			if txClock.Before(now) {
				txClock = now
			}
			if l.cfg.RateBps > 0 {
				ser := time.Duration(float64(len(frame)*8) / l.cfg.RateBps * float64(time.Second))
				txClock = txClock.Add(ser)
				// Pace serialization only; the next frame may start
				// serializing while this one propagates.
				if wait := time.Until(txClock); wait > 0 {
					time.Sleep(wait)
				}
			}
			if l.cfg.Delay > 0 {
				l.wg.Add(1)
				time.AfterFunc(l.cfg.Delay, func() {
					defer l.wg.Done()
					l.deliver(frame)
					l.pending.Add(^uint64(0))
				})
			} else {
				l.deliver(frame)
				l.pending.Add(^uint64(0))
			}
		case <-l.done:
			// Frames still queued at teardown are lost on the wire
			// (in-flight propagation timers still deliver; Stop waits
			// for them via the WaitGroup).
			for {
				select {
				case <-l.frames:
					l.drops.Add(1)
					l.pending.Add(^uint64(0))
				default:
					return
				}
			}
		}
	}
}

// member is one registered host.
type member struct {
	name string
	host *dataplane.Host
	// down marks a host killed by KillHost: it stays registered (its
	// links keep counting refused deliveries as drops, its final stats
	// stay readable) but Start/Stop skip it and Alive reports false —
	// the reconcile observer's liveness signal.
	down bool
}

// Fabric is the cluster: registered hosts plus the links between them.
type Fabric struct {
	mu    sync.Mutex
	hosts map[control.DatapathID]*member
	links []*Link
	wires []*portio.Binding
}

// New builds an empty fabric.
func New() *Fabric {
	return &Fabric{hosts: make(map[control.DatapathID]*member)}
}

// AddHost registers h as datapath dp under the given name.
func (f *Fabric) AddHost(dp control.DatapathID, name string, h *dataplane.Host) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.hosts[dp]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateHost, dp)
	}
	f.hosts[dp] = &member{name: name, host: h}
	return nil
}

// Host returns the registered host for dp.
func (f *Fabric) Host(dp control.DatapathID) (*dataplane.Host, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.hosts[dp]
	if !ok {
		return nil, false
	}
	return m.host, true
}

// Hosts lists registered datapaths, ascending.
func (f *Fabric) Hosts() []control.DatapathID {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]control.DatapathID, 0, len(f.hosts))
	for dp := range f.hosts {
		out = append(out, dp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// KillHost is the chaos primitive: it stops dp's host and marks the
// member dead. The host stays registered — frames links deliver toward
// it are refused and counted as link drops, and its last counters stay
// readable — but Alive reports false, Start will not revive it, and the
// fabric's idle check no longer consults it. Killing an unknown or
// already-dead host is an error (the caller meant a different victim).
func (f *Fabric) KillHost(dp control.DatapathID) error {
	f.mu.Lock()
	m, ok := f.hosts[dp]
	if ok && m.down {
		f.mu.Unlock()
		return fmt.Errorf("%w: %s already dead", ErrUnknownHost, dp)
	}
	if ok {
		m.down = true
	}
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownHost, dp)
	}
	// Stop outside the lock: it waits for the host's TX threads, which
	// may be mid-delivery into a peer.
	m.host.Stop()
	return nil
}

// Alive reports whether dp is registered and not killed.
func (f *Fabric) Alive(dp control.DatapathID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.hosts[dp]
	return ok && !m.down
}

// Connect wires one direction: frames src transmits out outPort arrive
// on dst's inPort. The binding goes through the source host's per-port
// egress table, so its packet path stays lock-free; an unshaped link's
// delivery is the peer's Inject, called synchronously from the
// transmitting TX thread.
func (f *Fabric) Connect(src control.DatapathID, outPort int, dst control.DatapathID, inPort int, cfg LinkConfig) (*Link, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sm, ok := f.hosts[src]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownHost, src)
	}
	dm, ok := f.hosts[dst]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownHost, dst)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 1024
	}
	l := &Link{
		Src: src, Dst: dst, OutPort: outPort, InPort: inPort,
		cfg: cfg, dst: dm.host,
	}
	if cfg.shaped() {
		l.frames = make(chan []byte, cfg.Queue)
		l.done = make(chan struct{})
		l.wg.Add(1)
		go l.shape()
		sm.host.BindPort(outPort, func(_ int, data []byte, _ *dataplane.Desc) {
			// The pool buffer is only valid during the sink call; the
			// shaper owns a private copy.
			cp := append([]byte(nil), data...)
			select {
			case l.frames <- cp:
				l.pending.Add(1)
			default:
				l.drops.Add(1)
			}
		})
	} else {
		sm.host.BindPort(outPort, func(_ int, data []byte, _ *dataplane.Desc) {
			l.deliver(data)
		})
	}
	f.links = append(f.links, l)
	return l, nil
}

// BindWire attaches a portio driver behind port on datapath dp: the
// member host's egress out that port goes onto the driver's wire, and
// frames the driver receives enter the host's driver ingress (counted
// under the RxDrops discipline). This is how a fabric member faces a
// peer in ANOTHER process — the in-process Links above stay available
// for co-located hosts. The binding is closed by Stop after the hosts,
// so queued egress drains onto the wire during teardown.
func (f *Fabric) BindWire(dp control.DatapathID, port int, d portio.PortDriver) (*portio.Binding, error) {
	f.mu.Lock()
	m, ok := f.hosts[dp]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownHost, dp)
	}
	b, err := portio.Bind(m.host, port, d)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.wires = append(f.wires, b)
	f.mu.Unlock()
	return b, nil
}

// Link wires both directions of (a, aPort) ↔ (b, bPort) with the same
// shaping and returns the two directions (a→b, b→a).
func (f *Fabric) Link(a control.DatapathID, aPort int, b control.DatapathID, bPort int, cfg LinkConfig) (ab, ba *Link, err error) {
	ab, err = f.Connect(a, aPort, b, bPort, cfg)
	if err != nil {
		return nil, nil, err
	}
	ba, err = f.Connect(b, bPort, a, aPort, cfg)
	if err != nil {
		return nil, nil, err
	}
	return ab, ba, nil
}

// Links returns every link direction in creation order.
func (f *Fabric) Links() []*Link {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*Link(nil), f.links...)
}

// UpdateDefault implements app.Downstream: the application's translated
// per-host rule update lands on the named datapath's flow table,
// constrained to actions the rules already list (§3.4).
func (f *Fabric) UpdateDefault(dp control.DatapathID, scope flowtable.ServiceID, flows flowtable.Match, def flowtable.Action) error {
	h, ok := f.Host(dp)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownHost, dp)
	}
	if n := h.Table().UpdateDefault(scope, flows, def, true); n == 0 {
		return fmt.Errorf("cluster: no rule at %s on %s allows %s", scope, dp, def)
	}
	return nil
}

// Start starts every live host (datapath order). On failure the hosts
// already started are stopped again.
func (f *Fabric) Start() error {
	dps := f.aliveHosts()
	for i, dp := range dps {
		h, _ := f.Host(dp)
		if err := h.Start(); err != nil {
			for _, prev := range dps[:i] {
				ph, _ := f.Host(prev)
				ph.Stop()
			}
			return fmt.Errorf("cluster: start %s: %w", dp, err)
		}
	}
	return nil
}

// Stop tears the cluster down: hosts first, then the link shapers.
// Host.Stop waits for the TX threads, so after it returns no sink can
// enqueue more frames; the shapers then drain — frames still queued at
// that point (and deliveries the stopped peers refuse) are counted as
// link drops, keeping teardown losses visible and the pending counters
// balanced.
func (f *Fabric) Stop() {
	for _, dp := range f.aliveHosts() {
		h, _ := f.Host(dp)
		h.Stop()
	}
	f.mu.Lock()
	links := append([]*Link(nil), f.links...)
	f.mu.Unlock()
	for _, l := range links {
		if l.done != nil {
			l.closeOnce.Do(func() { close(l.done) })
			l.wg.Wait()
		}
	}
	f.mu.Lock()
	wires := append([]*portio.Binding(nil), f.wires...)
	f.mu.Unlock()
	for _, w := range wires {
		// Binding.Close drains queued egress onto the wire first; late
		// arrivals off the wire count in the host's RxDrops.
		_ = w.Close()
	}
}

// Inject delivers a raw frame into datapath dp on port.
func (f *Fabric) Inject(dp control.DatapathID, port int, frame []byte) error {
	h, ok := f.Host(dp)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownHost, dp)
	}
	return h.Inject(port, frame)
}

// Stats returns each member host's counter snapshot.
func (f *Fabric) Stats() map[control.DatapathID]dataplane.HostStats {
	out := make(map[control.DatapathID]dataplane.HostStats)
	for _, dp := range f.Hosts() {
		h, _ := f.Host(dp)
		out[dp] = h.Stats()
	}
	return out
}

// InFlight counts the packets in flight anywhere in the cluster: pool
// buffers held on every live host plus frames queued on shaped links. A
// frame can be "between hosts" (released by the sender, not yet injected
// into the receiver), so both terms are needed.
func (f *Fabric) InFlight() int {
	n := 0
	for _, dp := range f.aliveHosts() {
		h, _ := f.Host(dp)
		n += h.Pool().Stats().InUse
	}
	for _, l := range f.Links() {
		n += int(l.pending.Load())
	}
	return n
}

// WaitIdle blocks until InFlight reaches zero or the timeout elapses.
func (f *Fabric) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for f.InFlight() != 0 {
		if !time.Now().Before(deadline) {
			return f.InFlight() == 0
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// aliveHosts lists live datapaths, ascending.
func (f *Fabric) aliveHosts() []control.DatapathID {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]control.DatapathID, 0, len(f.hosts))
	for dp, m := range f.hosts {
		if !m.down {
			out = append(out, dp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ReplaceRules swaps one datapath's installed rule set: the previously
// installed rule ids are deleted, then the new rules land in one batched
// write. This is the reconciler's reroute primitive — a moved service
// changes a host's action ports outright, which the constrained
// UpdateDefault path (runtime steering within a compiled table) cannot
// express. Flows resolved against the old rules re-miss and re-resolve
// through the controller, whose application already answers for the new
// generation. Unknown ids are skipped (the rule may have been replaced
// by a concurrent generation); the new rules' ids are returned for the
// next swap.
func (f *Fabric) ReplaceRules(dp control.DatapathID, oldIDs []uint64, rules []flowtable.Rule) ([]uint64, error) {
	h, ok := f.Host(dp)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownHost, dp)
	}
	for _, id := range oldIDs {
		_ = h.Table().Delete(id)
	}
	if len(rules) == 0 {
		return nil, nil
	}
	ids, err := h.Table().AddBatch(rules)
	if err != nil {
		return nil, fmt.Errorf("cluster: replace rules on %s: %w", dp, err)
	}
	return ids, nil
}

var _ app.Downstream = (*Fabric)(nil)
