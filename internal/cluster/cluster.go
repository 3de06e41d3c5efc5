// Package cluster is the fabric tying a set of SDNFV NF hosts into one
// data plane (Fig. 2, §3.2: the controller manages a *set* of NF hosts,
// with service chains spanning them). It provides:
//
//   - a host registry keyed by control.DatapathID, with lifecycle
//     (Start/Stop) and aggregate accounting across members;
//   - Links: the in-process inter-host wires. A link binds (hostA,
//     portA) ↔ (hostB, portB) through the hosts' per-port egress
//     bindings, so an ActionOut on one host becomes an Inject on its
//     peer, delivered synchronously in the transmitting host's TX thread
//     (zero extra copies — Inject copies into the peer's pool). A member
//     facing a peer in another process binds a portio driver instead
//     (BindWire);
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

// LinkStats is a snapshot of one link direction's counters.
type LinkStats struct {
	// TxFrames/TxBytes count frames delivered into the peer host.
	TxFrames uint64 `metric:"tx_frames_total" help:"Frames delivered into the peer host."`
	TxBytes  uint64 `metric:"tx_bytes_total" help:"Bytes delivered into the peer host."`
	// Drops counts frames the peer refused to inject (pool exhausted,
	// NIC ring full, host stopped).
	Drops uint64 `metric:"drops_total" help:"Frames the peer host refused to inject."`
}

// Link is one direction of an inter-host wire: egress port OutPort on
// the source host delivers to ingress port InPort on the destination.
type Link struct {
	Src, Dst                 control.DatapathID
	OutPort, InPort          int
	dst                      *dataplane.Host
	txFrames, txBytes, drops atomic.Uint64
}

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

// BindWire attaches a portio driver behind port on datapath dp: the
// member host's egress out that port goes onto the driver's wire, and
// frames the driver receives enter the host's driver ingress (counted
// under the RxDrops discipline). This is how a fabric member faces a
// peer in ANOTHER process — co-located hosts are wired in-process by
// Link. The binding is closed by Stop after the hosts, so queued egress
// drains onto the wire during teardown.
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

// Link wires both directions of (a, aPort) ↔ (b, bPort).
func (f *Fabric) Link(a control.DatapathID, aPort int, b control.DatapathID, bPort int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, dp := range []control.DatapathID{a, b} {
		if _, ok := f.hosts[dp]; !ok {
			return fmt.Errorf("%w: %s", ErrUnknownHost, dp)
		}
	}
	f.connect(a, aPort, b, bPort)
	f.connect(b, bPort, a, aPort)
	return nil
}

// connect wires one direction: frames src transmits out outPort arrive
// on dst's inPort. The binding goes through the source host's per-port
// egress table, so its packet path stays lock-free; delivery is the
// peer's Inject, called synchronously from the transmitting TX thread.
// Both hosts are registered; the caller holds f.mu.
func (f *Fabric) connect(src control.DatapathID, outPort int, dst control.DatapathID, inPort int) {
	l := &Link{Src: src, Dst: dst, OutPort: outPort, InPort: inPort, dst: f.hosts[dst].host}
	f.hosts[src].host.BindPort(outPort, func(_ int, data []byte, _ *dataplane.Desc) {
		l.deliver(data)
	})
	f.links = append(f.links, l)
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

// Stop tears the cluster down: hosts first, then the port drivers.
// Host.Stop waits for the TX threads, so after it returns no link
// delivers more frames (deliveries a stopped peer refuses are counted
// as link drops, keeping teardown losses visible).
func (f *Fabric) Stop() {
	for _, dp := range f.aliveHosts() {
		h, _ := f.Host(dp)
		h.Stop()
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

// InFlight counts the packets in flight anywhere in the cluster: pool
// buffers held on every live host. A link injects a frame into its peer
// before the sender releases the buffer, so a frame in flight is always
// held by some host's pool.
func (f *Fabric) InFlight() int {
	n := 0
	for _, dp := range f.aliveHosts() {
		h, _ := f.Host(dp)
		n += h.Pool().Stats().InUse
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
// installed rule ids go in one batched delete, then the new rules land in
// one batched write. This is the reconciler's reroute primitive — a moved
// service changes a host's action ports outright, which the constrained
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
	_ = h.Table().Delete(oldIDs...)
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
