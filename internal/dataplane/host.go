package dataplane

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdnfv/internal/control"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/mempool"
	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
	"sdnfv/internal/ring"
)

// Config tunes a Host. Zero values select sensible defaults (see
// fillDefaults).
type Config struct {
	// PoolSize is the number of packet buffers (the "huge page" budget).
	PoolSize int
	// BufSize is the byte capacity of each packet buffer.
	BufSize int
	// RingSize is the capacity of every descriptor ring.
	RingSize int
	// TXThreads is the number of TX "cores" draining NF output rings.
	// Zero means one: a second TX thread pays off only with a core of its
	// own, and on a small machine it holds the core the next hop needs.
	TXThreads int
	// LoadBalancer selects the replica-selection policy.
	LoadBalancer LBPolicy
	// DisableLookupCache turns OFF descriptor-carried flow entries (§4.2
	// "Caching flow table lookups"); used by the ablation benchmark.
	DisableLookupCache bool
	// Control is the host's typed southbound endpoint (the control
	// package API). The Flow Controller thread resolves flow-table
	// misses off the critical path (§4.1): each call to
	// Control.ResolveBatch carries every distinct flow pending across
	// all producer rings, up to 256, so a backlog costs one round trip.
	// The manager forwards validated cross-layer messages upstream via
	// Control.SendNFMessage after applying them locally (§3.4). Both the
	// in-process *controller.Session and the wire *control.Client
	// satisfy it. When nil, miss packets are dropped and messages only
	// take local effect.
	Control control.Southbound
	// FlowIdleTimeout / FlowHardTimeout are the table-wide default rule
	// timeouts applied to exact-match rules installed with zero
	// timeouts (see flowtable.SetDefaultTimeouts). Zero keeps the
	// pre-lifecycle behaviour: rules never expire.
	FlowIdleTimeout time.Duration
	FlowHardTimeout time.Duration
	// FlowSweepInterval is the background sweeper's tick. Zero means
	// flowtable.DefaultSweepInterval; the sweeper only runs when at
	// least one of the defaults above is set (per-rule timeouts from
	// the controller still expire lazily on lookup without it).
	FlowSweepInterval time.Duration
}

func (c *Config) fillDefaults() {
	if c.PoolSize == 0 {
		c.PoolSize = 4096
	}
	if c.BufSize == 0 {
		c.BufSize = 2048
	}
	if c.RingSize == 0 {
		c.RingSize = 1024
	}
	if c.TXThreads == 0 {
		c.TXThreads = 1
	}
}

// HostStats is a snapshot of host counters. The metric tags declare the
// telemetry export of each field (see internal/telemetry).
type HostStats struct {
	RxPackets uint64 `metric:"host_rx_packets_total" help:"Packets admitted into the host (wire ingests and injects)."`
	TxPackets uint64 `metric:"host_tx_packets_total" help:"Packets delivered out an egress port."`
	// Drops counts admitted packets discarded by policy or overload of
	// the manager's own rings (drop rules/verbs, missing services,
	// miss-path overflow). NF input-queue overflows are NOT included —
	// they are capacity pressure, not policy, and live in Overflows so
	// the autoscale layer (and operators) can tell the two apart.
	// Refused Injects are not included either: a refused frame was
	// never admitted (never in RxPackets), so it is the injector's loss
	// to account — the cluster fabric counts such frames as link drops.
	// Under non-parallel dispatch every admitted packet therefore lands
	// in exactly one of TxPackets, Drops, Overflows, or TxDrops; a
	// parallel fan-out additionally counts each refused member OFFER in
	// Overflows while the packet itself continues through the join (see
	// Overflows), so parallel rules can push the sum past RxPackets.
	Drops uint64 `metric:"host_drops_total" help:"Admitted packets discarded by policy or manager-ring overload."`
	// Overflows counts packets (or parallel fan-out offers) refused
	// because an NF replica's input rings were full — the signal that a
	// service needs more replicas (§3.3, §5 dynamic scaling).
	Overflows uint64 `metric:"host_overflows_total" help:"Packets or fan-out offers refused by full NF input rings."`
	// TxDrops counts frames that reached egress but could not be
	// delivered: the out port had no sink bound, or the buffer handle
	// went stale before the bytes could be read. They are neither
	// TxPackets (nothing left the host) nor Drops (no policy or
	// overload decided their fate) — keeping them separate means
	// RxPackets = TxPackets + Drops + Overflows + TxDrops + RxDrops
	// holds exactly once the host is idle and no parallel fan-out rule
	// was involved (parallel refusals count offers, not packets — see
	// Drops).
	TxDrops uint64 `metric:"host_tx_drops_total" help:"Frames that reached egress but could not be delivered."`
	// RxDrops counts wire frames refused at the driver ingress boundary
	// (Ingest): oversize for the pool frame cap, unparseable, arriving
	// on a port with no ingress binding, or hitting a capacity refusal
	// (pool/ring/stopped). Each one also counts in RxPackets — the wire
	// delivered it, so unlike a refused Inject it is this host's loss
	// to account (see ingress.go). Inject refusals still appear in
	// neither counter.
	RxDrops uint64 `metric:"host_rx_drops_total" help:"Wire frames refused at the driver ingress boundary."`
	// ReleaseErrs counts pool.Release calls that failed — a release of a
	// stale or double-freed handle. Any nonzero value is a refcounting
	// bug (a use-after-free caught by the pool's generation tags), so
	// the counter exists to make such bugs visible instead of silently
	// discarding the error on the drop paths.
	ReleaseErrs uint64 `metric:"host_release_errors_total" help:"Failed pool releases (refcounting bugs made visible)."`
	Misses      uint64 `metric:"host_misses_total" help:"Flow-table misses escalated to the controller."`
	// Unresolved counts misses the controller answered without error
	// but whose installed rules still did not cover the packet (an empty
	// rule set, or only rules the table refused). Each is dropped, so it
	// also counts in Drops.
	Unresolved   uint64 `metric:"host_unresolved_total" help:"Misses still uncovered after installing the controller's answer, dropped."`
	CtrlMessages uint64 `metric:"host_ctrl_messages_total" help:"Cross-layer messages from NFs handled by the manager."`
	// MsgsRejected counts cross-layer messages that were refused:
	// structurally invalid ones from NFs (dropped before any effect)
	// plus upstream policy rejections reported synchronously by the
	// southbound backend. Policy rejections arrive after the message
	// has already taken local effect — the NF Manager applies messages
	// autonomously (§3.4 "without touching the controller"); the
	// application's verdict only gates propagation beyond this host.
	MsgsRejected uint64 `metric:"host_msgs_rejected_total" help:"Cross-layer messages refused (invalid or policy-rejected)."`
	// MsgsDropped counts cross-layer messages an NF emitted while the
	// manager's control ring was full. They never reach the manager: no
	// local effect, no upstream delivery, and no count in CtrlMessages.
	MsgsDropped uint64 `metric:"host_msgs_dropped_total" help:"Cross-layer messages lost because the control ring was full."`
	// NoticesRefused counts flow-removed notices (one per evicted rule)
	// the southbound refused to carry upstream. Eviction itself is not
	// undone; the count makes the lost notice visible.
	NoticesRefused uint64 `metric:"control_notices_refused_total" help:"Flow-removed notices the southbound refused to carry upstream."`
	// ResolveBatches counts the Flow Controller's southbound ResolveBatch
	// calls. ResolveNanos is their total wall time, and InstallNanos the
	// total time spent installing their answers (Table.AddBatch), so
	// either over ResolveBatches is the mean cost of one batch.
	ResolveBatches uint64          `metric:"host_fc_resolve_batches_total" help:"Flow Controller southbound ResolveBatch calls."`
	ResolveNanos   uint64          `metric:"host_fc_resolve_nanos_total" help:"Wall time the Flow Controller spent in ResolveBatch, in nanoseconds."`
	InstallNanos   uint64          `metric:"host_fc_install_nanos_total" help:"Time the Flow Controller spent installing resolved rules, in nanoseconds."`
	Pool           mempool.Stats   `metric:"host_pool_"`
	Table          flowtable.Stats `metric:"flowtable_"`
	// Replicas is the per-replica telemetry snapshot (queue depth,
	// processed/overflow counts, EWMA service time), ordered by
	// registration.
	Replicas []ReplicaStats
	// Ports is the wire-boundary telemetry of every registered port
	// driver (RegisterPortStats), ordered by port. These are the
	// drivers' own counters — socket-level drops and reconnects that
	// happen outside the host's conservation identity.
	Ports []PortDriverStats
}

// Conserved reports whether the per-host accounting identity
// RxPackets == TxPackets + Drops + Overflows + TxDrops + RxDrops holds:
// every frame the host took in left it, or was counted where it died.
// It is exact once the host is idle and no parallel fan-out rule was
// involved (see Drops). A leak-free pool (Pool.InUse == 0) is a
// separate check, and only an idle host passes it.
func (s HostStats) Conserved() bool {
	return s.RxPackets == s.TxPackets+s.Drops+s.Overflows+s.TxDrops+s.RxDrops
}

// routeSnap is the immutable routing snapshot the packet-path threads
// read lock-free. Lifecycle operations publish a new snapshot atomically;
// each manager thread records the epoch of the snapshot it last loaded so
// a remover can wait until no thread still dispatches with a stale view.
type routeSnap struct {
	epoch uint64
	svc   map[flowtable.ServiceID][]*Instance
	// inst is every instance whose out ring the TX threads must drain.
	// During a replica drain it still contains the victim (whose queued
	// output must complete) even though svc no longer offers to it.
	inst []*Instance
}

// Host is one NF host: the NF Manager plus its NF instances.
// Construct with NewHost, add NFs and rules, then Start. After Start the
// packet path is lock-free: all routing state lives in immutable snapshots
// published atomically (so replicas can be added and retired at runtime,
// §3.3/§5 dynamic scaling), and all inter-thread traffic flows through
// SPSC rings.
type Host struct {
	cfg   Config
	pool  *mempool.Pool
	table *flowtable.Table

	mu        sync.Mutex
	services  map[flowtable.ServiceID][]*Instance
	instances []*Instance
	started   bool
	// nextIdx assigns stable per-service replica indices: an index is
	// never reused after a removal, so it identifies a replica for its
	// whole life (FlowState, RemoveNF, rendezvous hashing).
	nextIdx map[flowtable.ServiceID]int
	// instSeq is the host-wide instance launch counter (stable TX-thread
	// assignment and rendezvous identity).
	instSeq uint64
	// snapEpoch numbers published routing snapshots (guarded by mu).
	snapEpoch uint64

	// snap is the atomically published routing snapshot (lock-free reads
	// on the fast path).
	snap atomic.Pointer[routeSnap]
	// snapSeen[p] is the epoch of the snapshot producer thread p last
	// loaded (slots follow the producer layout below).
	snapSeen []atomic.Uint64

	// nicIn is the simulated NIC RX queue (producers serialized by
	// injectMu; consumer: RX thread).
	nicIn    *ring.SPSCOf[Desc]
	injectMu sync.Mutex

	// fcIn carries miss descriptors to the Flow Controller thread, one
	// ring per producer thread.
	fcIn []*ring.SPSCOf[Desc]

	// ctrl carries cross-layer messages from NFs to the manager loop.
	ctrl *ring.MPSC

	// egress is the atomically published per-port sink table; the TX
	// path reads it with one atomic load (no locks, matching the rest of
	// the packet path). Bind* methods publish fresh tables copy-on-write.
	egress atomic.Pointer[egressTable]

	// ingress is the atomically published ingress-bound port set:
	// Ingest admits wire frames only on ports a driver has bound
	// (BindIngress), read with one atomic load like egress.
	ingress atomic.Pointer[ingressTable]
	// ports holds the registered per-port driver stats hooks
	// (RegisterPortStats), guarded by mu; lazily allocated.
	ports map[int]registeredPort

	// parallel-join state, indexed by buffer slot.
	parPending []atomic.Int32
	parBest    []atomic.Uint64

	// fanScratch[p] is producer thread p's reusable fan-out target list,
	// so parallel dispatch does not allocate per packet. Each slice is
	// touched only by its owning producer thread.
	fanScratch [][]*Instance
	// fanDesc[p] is producer thread p's scratch copy of a fan-out member
	// descriptor: a refused member joins through a pointer to it, and a
	// stack copy handed to the indirect egress sink would escape to the
	// heap once per member.
	fanDesc []Desc

	// Wakers of the consumer threads (see waker): the RX thread, each TX
	// thread and the Flow Controller. Each NF replica owns its own.
	rxWake *waker
	txWake []*waker
	fcWake *waker
	// woke[p] is set when manager thread p woke a parked consumer during
	// its current burst (see idler.busy); only thread p touches it.
	woke []bool
	// asleep counts consumer threads blocked in Host.park.
	asleep atomic.Int32

	rxCount         atomic.Uint64
	rxDropCount     atomic.Uint64
	txCount         atomic.Uint64
	txDropCount     atomic.Uint64
	dropCount       atomic.Uint64
	overflowCount   atomic.Uint64
	missCount       atomic.Uint64
	unresolved      atomic.Uint64
	msgCount        atomic.Uint64
	msgRejected     atomic.Uint64
	msgDropped      atomic.Uint64
	releaseErrCount atomic.Uint64
	noticesRefused  atomic.Uint64
	resolveBatches  atomic.Uint64
	resolveNanos    atomic.Uint64
	installNanos    atomic.Uint64

	// notices is onFlowEvicted's buffer, reused by every sweep tick, and
	// quiet counts the ticks in a row that used under an eighth of it; the
	// twentieth lets it go, so a past peak does not stay on the heap. Only
	// the sweeper goroutine touches them, and the southbound keeps none of
	// the buffer.
	notices []control.FlowRemoved
	quiet   int

	stop atomic.Bool
	wg   sync.WaitGroup
	// lifeMu serializes lifecycle operations (AddNF, RemoveNF, Start,
	// Stop, NamedHost.Launch). It keeps Stop's single-consumer ring
	// drain exclusive, and it lets user Init/Close hooks run OUTSIDE h.mu
	// so a hook may call inspection APIs (FlowState, Instances, Stats).
	// Hooks must not call lifecycle methods — that self-deadlocks on
	// lifeMu. For the same reason AddNF and RemoveNF must not be called
	// from a manager thread (an NF body or the cross-layer message
	// path): on a started host they wait on those threads.
	lifeMu sync.Mutex
}

// NewHost builds a Host from cfg.
func NewHost(cfg Config) *Host {
	cfg.fillDefaults()
	h := &Host{
		cfg:      cfg,
		pool:     mempool.New(cfg.PoolSize, cfg.BufSize),
		table:    flowtable.New(),
		services: make(map[flowtable.ServiceID][]*Instance),
		nextIdx:  make(map[flowtable.ServiceID]int),
		nicIn:    ring.NewSPSCOf[Desc](cfg.RingSize),
		ctrl:     ring.NewMPSC(4096),
	}
	h.parPending = make([]atomic.Int32, cfg.PoolSize)
	h.parBest = make([]atomic.Uint64, cfg.PoolSize)
	h.fanScratch = make([][]*Instance, h.producerCount())
	for p := range h.fanScratch {
		h.fanScratch[p] = make([]*Instance, 0, 8)
	}
	h.fanDesc = make([]Desc, h.producerCount())
	h.woke = make([]bool, h.producerCount())
	h.snapSeen = make([]atomic.Uint64, h.producerCount())
	h.rxWake, h.fcWake = newWaker(), newWaker()
	h.txWake = make([]*waker, cfg.TXThreads)
	for t := range h.txWake {
		h.txWake[t] = newWaker()
	}
	h.snap.Store(&routeSnap{svc: map[flowtable.ServiceID][]*Instance{}})
	if cfg.FlowIdleTimeout != 0 || cfg.FlowHardTimeout != 0 {
		h.table.SetDefaultTimeouts(cfg.FlowIdleTimeout, cfg.FlowHardTimeout)
	}
	return h
}

// sweeperEnabled reports whether Start should run the background
// eviction sweeper: any lifecycle default (or an explicit interval)
// opts the host in.
func (h *Host) sweeperEnabled() bool {
	return h.cfg.FlowIdleTimeout != 0 || h.cfg.FlowHardTimeout != 0 || h.cfg.FlowSweepInterval > 0
}

// Table exposes the host flow table (the NF Manager owns it; the SDN
// controller and cross-layer messages mutate it through this handle).
func (h *Host) Table() *flowtable.Table { return h.table }

// Pool exposes the packet pool for diagnostics and tests.
func (h *Host) Pool() *mempool.Pool { return h.pool }

// PortSink receives frames the host transmits out a NIC port: the
// per-port egress binding (a traffic sink, a measurement probe, or a
// cluster fabric link delivering the frame to a peer host's ingress).
// The sink must not retain data beyond the call — the underlying pool
// buffer is released as soon as the sink returns.
type PortSink func(port int, data []byte, d *Desc)

// egressTable is the immutable per-port sink table the TX path reads
// lock-free. sinks is indexed by port number; def catches ports with no
// specific binding.
type egressTable struct {
	sinks []PortSink
	def   PortSink
}

// sinkFor resolves the sink bound to port (nil when unbound).
//
//sdnfv:hotpath
func (e *egressTable) sinkFor(port int) PortSink {
	if e == nil {
		return nil
	}
	if port >= 0 && port < len(e.sinks) && e.sinks[port] != nil {
		return e.sinks[port]
	}
	return e.def
}

// BindPort binds sink as the egress for NIC port (replacing any previous
// binding; nil unbinds). Per-port bindings are what let one host face
// several next hops at once — e.g. port 1 to the measurement sink and
// port 2 onto a fabric link toward a peer host. The binding is published
// atomically, so it is safe while traffic flows; the packet path itself
// stays lock-free (one atomic load per transmit). Frames egressing an
// unbound port count as TxDrops.
func (h *Host) BindPort(port int, sink PortSink) {
	if port < 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.egress.Load()
	next := &egressTable{}
	if cur != nil {
		next.def = cur.def
		next.sinks = append([]PortSink(nil), cur.sinks...)
	}
	for len(next.sinks) <= port {
		next.sinks = append(next.sinks, nil)
	}
	next.sinks[port] = sink
	h.egress.Store(next)
}

// BindDefault binds sink as the egress for every port without a specific
// BindPort binding — the single-sink convenience for hosts whose entire
// output goes one place (tests, examples, single-host tools).
func (h *Host) BindDefault(sink PortSink) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.egress.Load()
	next := &egressTable{def: sink}
	if cur != nil {
		next.sinks = append([]PortSink(nil), cur.sinks...)
	}
	h.egress.Store(next)
}

// producer thread slot layout: 0 = RX, 1..TXThreads = TX, last = Flow
// Controller.
//
//sdnfv:hotpath
func (h *Host) producerCount() int { return 2 + h.cfg.TXThreads }

//sdnfv:hotpath
func (h *Host) fcProducerSlot() int { return 1 + h.cfg.TXThreads }

// publishSnapLocked publishes a new routing snapshot built from the
// registered services/instances plus any extra instances whose out rings
// must keep draining (a retiring replica). Caller holds h.mu.
func (h *Host) publishSnapLocked(extra ...*Instance) uint64 {
	h.snapEpoch++
	s := &routeSnap{
		epoch: h.snapEpoch,
		svc:   make(map[flowtable.ServiceID][]*Instance, len(h.services)),
		inst:  append(append([]*Instance(nil), h.instances...), extra...),
	}
	for svc, insts := range h.services {
		s.svc[svc] = append([]*Instance(nil), insts...)
	}
	h.snap.Store(s)
	// A parked thread would never observe the new epoch, and
	// waitSnapObserved would wait on it forever.
	h.kickAll(s.inst)
	return s.epoch
}

// kickAll wakes every manager thread and the given replicas, whatever
// rung of the idle ladder each is on.
func (h *Host) kickAll(insts []*Instance) {
	h.rxWake.kick()
	h.fcWake.kick()
	for _, w := range h.txWake {
		w.kick()
	}
	for _, inst := range insts {
		inst.wake.kick()
	}
}

// observeSnap loads the current routing snapshot and records its epoch in
// the calling producer thread's slot. Every manager loop calls it once
// per iteration, so waitSnapObserved can tell when no thread still routes
// with an older snapshot.
//
//sdnfv:hotpath
func (h *Host) observeSnap(producer int) *routeSnap {
	s := h.snap.Load()
	if h.snapSeen[producer].Load() != s.epoch {
		// Store only on change: the seen slots share cache lines across
		// threads, and an unconditional store per poll iteration would
		// ping-pong them.
		h.snapSeen[producer].Store(s.epoch)
	}
	return s
}

// waitSnapObserved blocks until every producer thread has loaded a
// snapshot at least as new as epoch. Caller holds lifeMu with the host
// started, so the threads are guaranteed to keep iterating. A thread
// stuck in a southbound resolution can delay this by up to
// resolveTimeout.
func (h *Host) waitSnapObserved(epoch uint64) {
	for i := range h.snapSeen {
		for h.snapSeen[i].Load() < epoch {
			runtime.Gosched()
		}
	}
}

// AddNF registers a replica of service svc running fn. priority breaks
// action-conflict ties among parallel NFs (higher wins). On a started
// host this is a live scale-up: the replica's Init hook runs, its rings
// and goroutine launch, per-flow state owned by it under LBFlowHash
// migrates over, and a new routing snapshot makes it eligible for
// traffic: AddNF returns once every manager thread routes with it, so a
// packet injected afterwards can reach the replica. The engine attaches
// a per-replica flow-state store to the NF's context and buffers its
// cross-layer messages per burst.
func (h *Host) AddNF(svc flowtable.ServiceID, fn nf.BatchFunction, priority uint16) (*Instance, error) {
	h.lifeMu.Lock()
	defer h.lifeMu.Unlock()
	return h.addReplica(svc, fn, priority)
}

// addReplica registers a replica and, when the host is running, brings it
// live. Caller holds lifeMu.
func (h *Host) addReplica(svc flowtable.ServiceID, fn nf.BatchFunction, priority uint16) (*Instance, error) {
	h.mu.Lock()
	inst, err := h.addLocked(svc, fn, priority)
	started := h.started
	h.mu.Unlock()
	if err != nil || !started {
		return inst, err
	}

	// Live scale-up. Init runs outside h.mu (hooks may inspect the host);
	// on failure the registration is rolled back and nothing launched.
	if err := nf.InitNF(inst.fn, &inst.ctx); err != nil {
		inst.ctx.DropEmits()
		h.mu.Lock()
		h.unregisterLocked(inst)
		h.publishSnapLocked()
		h.mu.Unlock()
		return nil, &NFInitError{Service: inst.Service, Instance: inst.Index, Err: err}
	}
	inst.opened = true
	inst.ctx.FlushEmits()

	h.mu.Lock()
	h.buildRingsLocked(inst)
	all := h.services[svc]
	h.mu.Unlock()

	// Under flow hashing some flows now map to the new replica; move
	// their engine-owned state over before the snapshot steers packets at
	// it, so the new owner starts from the predecessor's state. A flow
	// updated by its old owner between the copy and the snapshot flip can
	// lose that last update — full consistency would need OpenNF-style
	// packet buffering; quiesced transitions are exact.
	h.migrateFlowsTo(inst, all)

	inst.launch(h)
	h.mu.Lock()
	epoch := h.publishSnapLocked()
	h.mu.Unlock()
	h.waitSnapObserved(epoch)
	return inst, nil
}

// addLocked registers a replica under h.mu.
func (h *Host) addLocked(svc flowtable.ServiceID, fn nf.BatchFunction, priority uint16) (*Instance, error) {
	if svc.IsPort() || svc == graph.Source || svc == graph.Sink {
		return nil, fmt.Errorf("dataplane: invalid service id %s", svc)
	}
	inst := &Instance{
		Service:  svc,
		Index:    h.nextIdx[svc],
		Priority: priority,
		seq:      h.instSeq,
		fn:       fn,
		readOnly: fn.ReadOnly(),
		svcTime:  newServiceTimeEWMA(),
		wake:     newWaker(),
	}
	h.nextIdx[svc]++
	h.instSeq++
	inst.txThread = int(inst.seq) % h.cfg.TXThreads
	inst.ctx = nf.Context{
		Service:  svc,
		Instance: inst.Index,
		// The flow store belongs to the replica slot, not the function:
		// Stop/Start cycles and same-implementation replacement keep it,
		// and the manager can inspect it (FlowState) for §3.4-style
		// per-flow decisions.
		Flows: nf.NewFlowState(),
		Emit: func(m nf.Message) {
			if err := h.ctrl.Push(ctrlMsg{src: svc, msg: m}); err != nil {
				h.msgDropped.Add(1)
				return
			}
			h.msgCount.Add(1)
			h.txWake[0].wake() // TX thread 0 applies the messages
		},
	}
	inst.ctx.BufferEmits(true)
	h.services[svc] = append(h.services[svc], inst)
	h.instances = append(h.instances, inst)
	return inst, nil
}

// unregisterLocked removes inst from the service and instance lists.
// Caller holds h.mu.
func (h *Host) unregisterLocked(inst *Instance) {
	insts := h.services[inst.Service]
	for i, in := range insts {
		if in == inst {
			h.services[inst.Service] = append(append([]*Instance(nil), insts[:i]...), insts[i+1:]...)
			break
		}
	}
	if len(h.services[inst.Service]) == 0 {
		delete(h.services, inst.Service)
	}
	for i, in := range h.instances {
		if in == inst {
			h.instances = append(append([]*Instance(nil), h.instances[:i]...), h.instances[i+1:]...)
			break
		}
	}
}

// buildRingsLocked allocates an instance's descriptor rings. Caller holds
// h.mu.
func (h *Host) buildRingsLocked(inst *Instance) {
	producers := h.producerCount()
	inst.in = make([]*ring.SPSCOf[Desc], producers)
	for p := range inst.in {
		inst.in[p] = ring.NewSPSCOf[Desc](h.cfg.RingSize)
	}
	inst.out = ring.NewSPSCOf[Desc](h.cfg.RingSize)
}

// findReplica returns the replica of svc with the given stable index, or
// nil. Caller holds h.mu.
func (h *Host) findReplica(svc flowtable.ServiceID, index int) *Instance {
	for _, in := range h.services[svc] {
		if in.Index == index {
			return in
		}
	}
	return nil
}

// RemoveNF retires replica index of service svc with a flow-state-safe
// drain (§3.3/§5 scale-down). On a running host it: (1) publishes a
// routing snapshot that stops offering the replica packets and waits
// until every manager thread has observed it; (2) lets the replica's NF
// goroutine run its input rings dry and exit, so every accepted packet is
// fully processed; (3) waits for the TX thread to drain the replica's out
// ring, then retires it from the TX scan; (4) hands the replica's
// engine-owned per-flow state off to the remaining replicas (the flow's
// new owner under LBFlowHash, a hash-spread otherwise) and runs the NF's
// Close hook. Removing the last replica of a service is allowed; packets
// forwarded to the service then drop.
//
// Handoff semantics under live traffic: packets arriving after step (1)
// already reach the flow's new owner, so by step (4) both replicas may
// hold state for the same flow. The victim's entry (the flow's entire
// history up to the routing flip) overwrites the new owner's (only the
// drain window) — the drain-window updates are lost. Exactly preserving
// both would need OpenNF-style packet buffering; transitions quiesced by
// the caller are exact.
//
// Must not be called from a manager thread or an NF hook (see lifeMu).
func (h *Host) RemoveNF(svc flowtable.ServiceID, index int) error {
	h.lifeMu.Lock()
	defer h.lifeMu.Unlock()
	h.mu.Lock()
	victim := h.findReplica(svc, index)
	if victim == nil {
		h.mu.Unlock()
		return fmt.Errorf("dataplane: no replica %d of service %s", index, svc)
	}
	h.unregisterLocked(victim)
	remaining := append([]*Instance(nil), h.services[svc]...)
	started := h.started
	var epoch uint64
	if started {
		// Stop offering: svc no longer lists the victim, but its out ring
		// stays on the TX threads' scan list until drained.
		epoch = h.publishSnapLocked(victim)
	}
	h.mu.Unlock()

	if started {
		h.waitSnapObserved(epoch)
		// No producer offers to the victim anymore; ask its goroutine to
		// run the input rings dry and exit. The drain flag (checked only
		// when a full pass over the rings found nothing) guarantees the
		// final burst is fully processed and enqueued before exit.
		victim.drain.Store(true)
		victim.wake.kick() // a parked replica must wake to see drain
		<-victim.done
		// Let the TX thread finish the queued output, then retire the out
		// ring from the scan.
		for victim.out.Len() > 0 {
			runtime.Gosched()
		}
		h.mu.Lock()
		epoch = h.publishSnapLocked()
		h.mu.Unlock()
		h.waitSnapObserved(epoch)
	}

	h.handoffFlows(victim, remaining)
	h.closeInst(victim)
	return nil
}

// handoffFlows merges a retired replica's engine-owned per-flow state
// into the remaining replicas: each flow lands on the replica that now
// owns it (rendezvous owner under LBFlowHash, hash-spread otherwise).
// On collision the victim's value wins: it holds the flow's history up
// to the routing flip, while the destination has at most the updates of
// the drain window, which are sacrificed (see RemoveNF).
func (h *Host) handoffFlows(victim *Instance, remaining []*Instance) {
	if len(remaining) == 0 {
		return
	}
	victim.ctx.Flows.Range(func(k packet.FlowKey, v any) bool {
		h.flowOwner(remaining, k).ctx.Flows.Set(k, v)
		return true
	})
	victim.ctx.Flows.Clear()
}

// migrateFlowsTo moves engine-owned per-flow state whose owner under the
// new replica set is the freshly added replica. Only meaningful under
// LBFlowHash, where ownership is deterministic.
func (h *Host) migrateFlowsTo(newInst *Instance, all []*Instance) {
	if h.cfg.LoadBalancer != LBFlowHash || len(all) < 2 {
		return
	}
	for _, r := range all {
		if r == newInst {
			continue
		}
		var keys []packet.FlowKey
		var vals []any
		r.ctx.Flows.Range(func(k packet.FlowKey, v any) bool {
			if ownerOf(all, k) == newInst {
				keys = append(keys, k)
				vals = append(vals, v)
			}
			return true
		})
		for i, k := range keys {
			newInst.ctx.Flows.Set(k, vals[i])
			r.ctx.Flows.Delete(k)
		}
	}
}

// flowOwner returns the replica owning flow k for state placement: the
// rendezvous owner under LBFlowHash (matching pick), a stable hash spread
// otherwise (no policy preserves affinity there; the state just needs a
// deterministic home).
func (h *Host) flowOwner(insts []*Instance, k packet.FlowKey) *Instance {
	if h.cfg.LoadBalancer == LBFlowHash {
		return ownerOf(insts, k)
	}
	return insts[k.Hash()%uint64(len(insts))]
}

// closeInst runs an instance's Close hook if (and only if) a matching
// successful Init ran: Close fires at most once per Init. Caller holds
// lifeMu (which guards opened and keeps the hook outside h.mu).
func (h *Host) closeInst(inst *Instance) {
	if !inst.opened {
		return
	}
	inst.opened = false
	_ = nf.CloseNF(inst.fn)
}

// replace swaps an instance's function; caller holds lifeMu and the host
// is stopped. The outgoing NF is closed if it is still open (an NF
// replaced between Stop and Start has normally been closed by Stop
// already). When the replacement is a different NF implementation, the
// replica's flow store is cleared — the survive-replacement guarantee is
// for upgrades of the same NF, and handing one NF's state values to
// another would only poison it.
func (h *Host) replace(inst *Instance, fn nf.BatchFunction) {
	h.closeInst(inst)
	if !sameNFImpl(inst.fn, fn) {
		inst.ctx.Flows.Clear()
	}
	h.mu.Lock()
	inst.fn = fn
	inst.readOnly = fn.ReadOnly()
	h.mu.Unlock()
}

// sameNFImpl reports whether two functions are the same NF
// implementation for the state-survival check: same concrete type and
// same name (an adapter type like BatchAdapter would otherwise conflate
// unrelated NFs built from it).
func sameNFImpl(a, b nf.BatchFunction) bool {
	return reflect.TypeOf(a) == reflect.TypeOf(b) && a.Name() == b.Name()
}

// FlowState returns the engine-owned per-flow store of replica index of
// service svc (nil when the replica does not exist). The manager and
// control layers use it to inspect NF flow state.
func (h *Host) FlowState(svc flowtable.ServiceID, index int) *nf.FlowState {
	h.mu.Lock()
	defer h.mu.Unlock()
	inst := h.findReplica(svc, index)
	if inst == nil {
		return nil
	}
	return inst.ctx.Flows
}

// NamedHost adapts a Host to the orchestrator's HostHandle: Launch makes
// svc available backed by fn. While the host is stopped it adds a first
// replica or replaces replica 0 (which runs the outgoing NF's Close hook
// and keeps its flow state), matching the paper's VM (re)boot model. On a
// started host it is a live scale-up: a new replica joins the service's
// load-balanced set (§3.3, §5.2). The scale-down path is RemoveNF,
// reached through orchestrator.Retire.
type NamedHost struct {
	Name string
	*Host
}

// HostName implements orchestrator.HostHandle.
func (n NamedHost) HostName() string { return n.Name }

// Launch implements orchestrator.HostHandle. The replace-or-add decision
// and the mutation happen in one critical section, so two concurrent
// launches of the same service cannot both add a replica.
func (n NamedHost) Launch(ctx context.Context, svc flowtable.ServiceID, fn nf.BatchFunction) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	h := n.Host
	h.lifeMu.Lock()
	defer h.lifeMu.Unlock()
	h.mu.Lock()
	insts := h.services[svc]
	started := h.started
	h.mu.Unlock()
	if len(insts) > 0 && !started {
		h.replace(insts[0], fn)
		return nil
	}
	_, err := h.addReplica(svc, fn, 0)
	return err
}

type ctrlMsg struct {
	src flowtable.ServiceID
	msg nf.Message
}

// InstallGraph compiles g into rules (ingress inPort, egress outPort) and
// installs them atomically through the batched writer API: each affected
// table shard publishes one new snapshot for the whole graph.
func (h *Host) InstallGraph(g *graph.Graph, inPort, outPort int) error {
	rules, err := g.Rules(inPort, outPort)
	if err != nil {
		return err
	}
	_, err = h.table.AddBatch(rules)
	return err
}

// NFInitError reports an NF whose Init lifecycle hook failed, aborting
// Host.Start.
type NFInitError struct {
	Service  flowtable.ServiceID
	Instance int
	Err      error
}

// Error implements error.
func (e *NFInitError) Error() string {
	return fmt.Sprintf("dataplane: NF init failed for %s replica %d: %v", e.Service, e.Instance, e.Err)
}

// Unwrap exposes the NF's own error for errors.Is/As.
func (e *NFInitError) Unwrap() error { return e.Err }

// Start runs every NF's Init hook, then launches the manager threads and
// all NF instances. An Init error aborts the start: already-initialized
// NFs are closed again, no thread is launched, and the typed *NFInitError
// identifies the failing replica. The host stays stopped and can be
// started again (e.g. after NamedHost.Launch replaced the failing NF).
func (h *Host) Start() error {
	h.lifeMu.Lock()
	defer h.lifeMu.Unlock()
	h.mu.Lock()
	if h.started {
		h.mu.Unlock()
		return errors.New("dataplane: already started")
	}
	insts := append([]*Instance(nil), h.instances...)
	h.mu.Unlock()

	// Run the Init hooks outside h.mu, so a hook may use inspection APIs
	// (FlowState, Instances, Stats); lifeMu keeps the instance set and
	// lifecycle state stable meanwhile. Announcements the hooks send stay
	// buffered until every Init has succeeded, so an aborted start leaves
	// no half-started announcements behind (and messages queued by a
	// previous run are untouched).
	for i, inst := range insts {
		if err := nf.InitNF(inst.fn, &inst.ctx); err != nil {
			for _, prev := range insts[:i] {
				prev.ctx.DropEmits()
				h.closeInst(prev)
			}
			inst.ctx.DropEmits()
			return &NFInitError{Service: inst.Service, Instance: inst.Index, Err: err}
		}
		inst.opened = true
	}
	for _, inst := range insts {
		// Deliver the announcement messages the hooks sent (§3.4, e.g. a
		// scrubber's RequestMe); they are drained once TX thread 0 runs.
		inst.ctx.FlushEmits()
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	h.started = true
	// Unlatch the stop flags a previous Stop left set (they gate Inject
	// while the host is down).
	h.stop.Store(false)
	for _, inst := range h.instances {
		inst.stop.Store(false)
		inst.drain.Store(false)
	}

	for _, inst := range h.instances {
		h.buildRingsLocked(inst)
	}
	producers := h.producerCount()
	h.fcIn = make([]*ring.SPSCOf[Desc], producers)
	for p := range h.fcIn {
		h.fcIn[p] = ring.NewSPSCOf[Desc](h.cfg.RingSize)
	}
	// Publish the routing snapshot for lock-free fast-path reads.
	h.publishSnapLocked()

	h.wg.Add(1)
	go func() { defer h.wg.Done(); h.rxLoop() }()
	for t := 0; t < h.cfg.TXThreads; t++ {
		t := t
		h.wg.Add(1)
		go func() { defer h.wg.Done(); h.txLoop(t) }()
	}
	h.wg.Add(1)
	go func() { defer h.wg.Done(); h.fcLoop() }()
	for _, inst := range h.instances {
		inst.launch(h)
	}
	if h.sweeperEnabled() {
		h.table.StartSweeper(flowtable.LifecycleConfig{
			SweepInterval: h.cfg.FlowSweepInterval,
			OnEvict:       h.onFlowEvicted,
		})
	}
	return nil
}

// Stop halts all threads, waits for them to exit, releases every
// descriptor still queued in a ring (so no pool buffer leaks across a
// stop), and runs each NF's Close hook. The host can be started again
// afterwards; per-replica flow state survives. Safe to call
// concurrently: the drain consumes the rings single-threaded, so only
// one Stop runs at a time and late callers return once it is done.
func (h *Host) Stop() {
	h.lifeMu.Lock()
	defer h.lifeMu.Unlock()
	h.mu.Lock()
	if !h.started {
		h.mu.Unlock()
		return
	}
	snap := append([]*Instance(nil), h.instances...)
	h.mu.Unlock()
	// The sweeper goes first: once stopped, no eviction callback can
	// race the ring drain below or fire against a half-stopped host.
	h.table.StopSweeper()
	h.stop.Store(true)
	for _, inst := range snap {
		inst.stop.Store(true)
	}
	h.kickAll(snap)
	h.wg.Wait()
	h.drainRings(snap)
	h.mu.Lock()
	h.started = false
	// h.stop (and the per-instance flags) stay latched until the next
	// Start: an Inject arriving after the drain must keep being refused,
	// or its descriptor would sit in nicIn defeating the no-leak
	// guarantee above.
	h.mu.Unlock()
	// Close hooks run outside h.mu (lifeMu still held), so an NF's Close
	// may use inspection APIs.
	for _, inst := range snap {
		h.closeInst(inst)
	}
}

// drainRings releases descriptors left in flight when the threads
// stopped: packets in the NIC/FC rings, in instance input rings, and in
// instance out rings. Each queued descriptor holds exactly one pool
// reference, so one release each is exact — the instance stop path has
// already released (only) the part of its burst the out ring never
// accepted. Runs with all producer/consumer threads stopped.
func (h *Host) drainRings(insts []*Instance) {
	drain := func(r *ring.SPSCOf[Desc]) {
		for {
			d, ok := r.Dequeue()
			if !ok {
				return
			}
			h.releaseDesc(&d)
		}
	}
	// injectMu pairs with Inject's stop check: any Inject that slipped in
	// before the stop flag enqueued under the lock we now hold, so its
	// descriptor is visible to this drain.
	h.injectMu.Lock()
	drain(h.nicIn)
	h.injectMu.Unlock()
	for _, r := range h.fcIn {
		drain(r)
	}
	for _, inst := range insts {
		for _, r := range inst.in {
			drain(r)
		}
		drain(inst.out)
	}
}

// Stats returns a counter snapshot, including per-replica telemetry.
func (h *Host) Stats() HostStats {
	h.mu.Lock()
	replicas := make([]ReplicaStats, len(h.instances))
	for i, inst := range h.instances {
		replicas[i] = inst.Stats()
	}
	h.mu.Unlock()
	return HostStats{
		RxPackets:      h.rxCount.Load(),
		RxDrops:        h.rxDropCount.Load(),
		TxPackets:      h.txCount.Load(),
		TxDrops:        h.txDropCount.Load(),
		ReleaseErrs:    h.releaseErrCount.Load(),
		Drops:          h.dropCount.Load(),
		Overflows:      h.overflowCount.Load(),
		Misses:         h.missCount.Load(),
		Unresolved:     h.unresolved.Load(),
		CtrlMessages:   h.msgCount.Load(),
		MsgsRejected:   h.msgRejected.Load(),
		MsgsDropped:    h.msgDropped.Load(),
		NoticesRefused: h.noticesRefused.Load(),
		ResolveBatches: h.resolveBatches.Load(),
		ResolveNanos:   h.resolveNanos.Load(),
		InstallNanos:   h.installNanos.Load(),
		Pool:           h.pool.Stats(),
		Table:          h.table.Stats(),
		Replicas:       replicas,
		Ports:          h.portDriverStats(),
	}
}

// ReplicaStats returns the telemetry snapshot of every replica of svc —
// the per-service load signal the autoscale policy loop samples.
func (h *Host) ReplicaStats(svc flowtable.ServiceID) []ReplicaStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	insts := h.services[svc]
	out := make([]ReplicaStats, len(insts))
	for i, inst := range insts {
		out[i] = inst.Stats()
	}
	return out
}

// Instances returns the registered instances (tests/diagnostics).
func (h *Host) Instances() []*Instance {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*Instance(nil), h.instances...)
}

// waker lets an idle consumer thread (the RX thread, each TX thread, the
// Flow Controller, each NF replica) block until a producer hands it
// work. The paper's manager threads poll on dedicated cores; here they
// share two with the socket goroutines, and a thread that polls or
// yields forever keeps its run queue non-empty, so the Go netpoller only
// runs on sysmon's 10 ms tick. Instead the consumer climbs a ladder
// (idler): spin, yield, set parked, poll once more, block on ch.
// Producers load parked after every successful enqueue and signal only
// when it is set. Go's atomics are sequentially consistent, so either
// the producer sees the flag or the consumer's re-poll sees the item: no
// wake-up is lost.
//
// Go queues a goroutine woken by a channel send in the sender's run-next
// slot, where it waits until the sender blocks or yields — for a busy
// producer thread, its next idle spell (20–80 µs on chain_steady). So a
// producer that woke a parked consumer yields once at the end of its
// burst (idler.busy), handing the processor over with the consumer's
// batch complete.
type waker struct {
	parked atomic.Bool
	ch     chan struct{} // 1-buffered: a signal sent before the consumer blocks is kept
	// Producers load parked on every enqueue; padding keeps it off any
	// cache line another thread writes per packet.
	_ [48]byte
}

func newWaker() *waker { return &waker{ch: make(chan struct{}, 1)} }

// wake is the producer side, called after every successful enqueue: one
// atomic load while the consumer is awake. It reports whether it woke a
// parked consumer, which the producer should then yield to.
//
//sdnfv:hotpath
func (w *waker) wake() bool {
	if w.parked.Load() {
		//sdnfv:allow(call) reached only when the consumer parked; the swap and the send are the cold half
		return w.signal()
	}
	return false
}

// signal wakes a parked consumer; of several producers racing here only
// the one that clears parked sends, and reports true.
func (w *waker) signal() bool {
	if w.parked.Swap(false) {
		w.kick()
		return true
	}
	return false
}

// wakeFor wakes w's consumer on behalf of manager thread p, which yields
// to it at the end of its burst.
//
//sdnfv:hotpath
func (h *Host) wakeFor(p int, w *waker) {
	if w.wake() {
		h.woke[p] = true
	}
}

// kick sends a wake-up whether or not the consumer is parked, without
// blocking: lifecycle changes (a new routing snapshot, Stop, a replica
// drain) must reach a thread on any rung of the ladder. A signal already
// pending serves as well as a new one.
func (w *waker) kick() {
	select {
	case w.ch <- struct{}{}:
	default:
	}
}

// park blocks the calling consumer on w until a producer signal or a
// kick, counting it in h.asleep meanwhile.
func (h *Host) park(w *waker) {
	h.asleep.Add(1)
	<-w.ch
	h.asleep.Add(-1)
	w.parked.Store(false) // a kick leaves it set
}

// The idle ladder's two thresholds. A thread that finds no work polls
// idleSpins more times, then yields the processor until idleYield has
// passed, then parks. The yield rung is bounded in time, not in calls:
// every yield keeps a run queue non-empty, and Go polls the network only
// when the run queues are empty (or on sysmon's tick), so yielding holds
// up the socket reads of the controller and the drivers; but what a
// yield costs depends on who else is runnable, so no count of them
// bounds that wait under every load. Chosen on 2 vCPUs (README "How
// engine threads wait"): shorter budgets did as well on cmd/sdnfv-bench
// but made TestFig6ParallelBeatsSequential fail under -race, where every
// hop is several times slower.
const (
	idleSpins = 16
	idleYield = 100 * time.Microsecond
)

// The rungs of the idle ladder (idler.rung).
const (
	spinning = iota
	yielding
	armed // parked is set; the next empty poll blocks
)

// idler is a consumer thread's position on its idle ladder. It lives in
// the thread's own frame; only that thread touches it.
type idler struct {
	h     *Host
	w     *waker
	woke  *bool                // the thread woke a parked consumer during this burst
	clock func() time.Duration // sinceStart; TestIdlerRungs passes a fake
	rung  uint8
	n     int           // empty polls on the spin rung
	until time.Duration // clock reading that ends the yield rung
}

// sinceStart is the idle ladder's clock: monotonic, one vDSO read.
//
//sdnfv:hotpath
func sinceStart() time.Duration { return time.Since(processStart) }

var processStart = time.Now()

//sdnfv:hotpath
func (h *Host) idler(w *waker, woke *bool) idler {
	return idler{h: h, w: w, woke: woke, clock: sinceStart}
}

// wait is called after an empty poll. The first idleSpins calls return
// at once (spin). The calls after them yield the processor, reading the
// clock once each, until idleYield has passed since the first yield;
// the call that finds it passed sets parked and returns so the caller
// polls once more, and the next blocks until a producer or a lifecycle
// kick wakes the thread.
//
//sdnfv:hotpath
func (l *idler) wait() {
	switch l.rung {
	case spinning:
		if l.n++; l.n <= idleSpins {
			return
		}
		l.rung = yielding
		//sdnfv:allow(dyncall) the clock is sinceStart outside the ladder's own test
		l.until = l.clock() + idleYield
		runtime.Gosched()
	case yielding:
		//sdnfv:allow(dyncall) the clock is sinceStart outside the ladder's own test
		if l.clock() < l.until {
			runtime.Gosched()
			return
		}
		l.w.parked.Store(true)
		l.rung = armed
	default:
		//sdnfv:allow(call) blocking on the waker channel is idle time, not per-packet work
		l.h.park(l.w)
		l.n, l.rung = 0, spinning
	}
}

// busy is called at the end of a burst that found work.
//
//sdnfv:hotpath
func (l *idler) busy() {
	if l.rung == armed {
		// The re-poll after arming found work: producers need not signal.
		l.w.parked.Store(false)
	}
	l.n, l.rung = 0, spinning
	if *l.woke {
		// Hand the processor to the consumer this burst woke (see waker).
		*l.woke = false
		runtime.Gosched()
	}
}

// Inject delivers a raw frame into the host NIC on port (the traffic
// generator's DMA, or a fabric link's far end). The frame is copied into
// a pool buffer and admitted as strictly as Ingest admits it
// (ErrFrameOversize, ErrMalformedFrame). A refusal is reported to the
// caller and NOT counted in any host counter: the frame was never
// admitted, so accounting it is the injector's job — like a NIC with no
// free descriptors back-pressuring DMA. Capacity refusals (pool
// exhausted, NIC ring full, host stopped) wrap ErrIngestRefused. Safe
// for concurrent use.
func (h *Host) Inject(port int, frame []byte) error {
	d, err := h.admit(port, frame, time.Now().UnixNano())
	if err != nil {
		return err
	}
	return h.enqueue(d)
}

// wakeRX is the wake of the producers outside the engine (Inject, Ingest,
// IngestBurst): their call is the burst, so a parked RX thread gets the
// processor right away (see waker).
func (h *Host) wakeRX() {
	if h.rxWake.wake() {
		runtime.Gosched()
	}
}

// release returns a buffer reference, counting failures: a failed
// Release means the handle was stale (generation mismatch) — a
// refcounting bug that must surface in HostStats.ReleaseErrs, not vanish.
//
//sdnfv:hotpath
func (h *Host) release(hd mempool.Handle) {
	if err := h.pool.Release(hd); err != nil {
		h.releaseErrCount.Add(1)
	}
}

// releaseDesc returns d's buffer reference.
//
//sdnfv:hotpath
func (h *Host) releaseDesc(d *Desc) {
	h.release(d.H)
}

// rxBatch is the burst size of the RX, TX and ingress loops.
const rxBatch = 64

// burstScratch is a manager thread's per-thread burst storage. The
// descriptor and lookup arrays are allocated once at thread launch, so the
// poll loops themselves stay allocation-free. The southbound
// request/result arrays, the dedupe map and the rule list serve only the
// Flow Controller's cold half, which allocates them on its first call to
// the controller, so a host that never misses never pays for them.
type burstScratch struct {
	batch   []Desc
	scopes  []flowtable.ServiceID
	keys    []packet.FlowKey
	entries []*flowtable.Entry
	reqs    []control.ResolveRequest
	results []control.ResolveResult
	slot    []int // descriptor -> unique request index
	seen    map[control.ResolveRequest]int
	rules   []flowtable.Rule // AddBatch copies what it keeps, so bursts share it
}

func newBurstScratch(n int) *burstScratch {
	return &burstScratch{
		batch:   make([]Desc, n),
		scopes:  make([]flowtable.ServiceID, n),
		keys:    make([]packet.FlowKey, n),
		entries: make([]*flowtable.Entry, n),
	}
}

// rxLoop is the RX thread: drain the NIC ring in bursts, resolve the
// whole burst against the flow table in one LookupBatch pass (one
// snapshot load amortized across the burst, §4.1), then dispatch.
//
//sdnfv:hotpath
func (h *Host) rxLoop() {
	const producer = 0
	var rr uint64
	idle := h.idler(h.rxWake, &h.woke[producer])
	//sdnfv:allow(call) scratch construction runs once at thread launch, before the poll loop
	s := newBurstScratch(rxBatch)
	for !h.stop.Load() {
		snap := h.observeSnap(producer)
		n := h.nicIn.DequeueBatch(s.batch)
		if n == 0 {
			idle.wait()
			continue
		}
		h.rxCount.Add(uint64(n))
		for i := 0; i < n; i++ {
			s.scopes[i] = s.batch[i].Scope
			s.keys[i] = s.batch[i].Key
		}
		h.table.LookupBatch(s.scopes[:n], s.keys[:n], s.entries[:n])
		for i := 0; i < n; i++ {
			if s.entries[i] == nil {
				// Flow-table miss: punt to the Flow Controller (§4.1).
				h.punt(&s.batch[i], producer)
				continue
			}
			h.dispatchEntry(snap, &s.batch[i], s.entries[i], producer, &rr)
		}
		idle.busy()
	}
}

// dispatchEntry applies e to d: parallel fan-out or the default action.
//
//sdnfv:hotpath
func (h *Host) dispatchEntry(snap *routeSnap, d *Desc, e *flowtable.Entry, producer int, rr *uint64) {
	if e.Parallel && len(e.Actions) > 1 {
		h.fanOut(snap, d, e, producer, rr)
		return
	}
	def, ok := e.Default()
	if !ok {
		h.dropPacket(d)
		return
	}
	h.applyAction(snap, d, def, producer, rr)
}

// fanOut dispatches one shared packet to every NF in a parallel action
// list (§4.2 "Parallel Packet Processing"). Parallel rules always target
// replica 0 of each member service: replication inside a parallel segment
// would need per-member balancing state that the paper does not define.
//
//sdnfv:hotpath
func (h *Host) fanOut(snap *routeSnap, d *Desc, e *flowtable.Entry, producer int, rr *uint64) {
	targets := h.fanScratch[producer][:0]
	for _, a := range e.Actions {
		if a.Type != flowtable.ActionForward {
			continue
		}
		if insts := snap.svc[a.Dest]; len(insts) > 0 {
			//sdnfv:allow(alloc) amortized: the scratch grows to the peak fan-out width once, then is reused
			targets = append(targets, insts[0])
		}
	}
	h.fanScratch[producer] = targets
	if len(targets) == 0 {
		h.dropPacket(d)
		return
	}
	if len(targets) > 1 {
		// The descriptor already holds one reference; add the rest of the
		// parallelization factor (§4.2) BEFORE any copy is offered. A
		// failed retain (stale handle) means the parallel copies would
		// each release a reference the pool never granted, corrupting the
		// refcount — drop the packet instead.
		if err := h.pool.Retain(d.H, len(targets)-1); err != nil {
			h.dropPacket(d)
			return
		}
	}
	idx := d.H.Index()
	h.parPending[idx].Store(int32(len(targets)))
	h.parBest[idx].Store(0)
	cp := &h.fanDesc[producer]
	for _, inst := range targets {
		*cp = *d
		cp.parallel = true
		cp.Entry = nil
		if !h.cfg.DisableLookupCache {
			if me, err := h.table.Lookup(inst.Service, d.Key); err == nil {
				cp.Entry = me
			}
		}
		if !h.offer(inst, producer, *cp) {
			// Member queue full: overflow pressure on that replica.
			// Account the member as done with the lowest-priority outcome
			// so the join still completes.
			h.overflowCount.Add(1)
			h.parJoin(snap, cp, packAction(flowtable.Forward(inst.Service), 0), producer, rr)
		}
	}
}

// applyAction delivers d per a (non-parallel path).
//
//sdnfv:hotpath
func (h *Host) applyAction(snap *routeSnap, d *Desc, a flowtable.Action, producer int, rr *uint64) {
	switch a.Type {
	case flowtable.ActionDrop:
		h.dropPacket(d)
	case flowtable.ActionOut:
		h.transmit(d, a.Dest.PortNum())
	case flowtable.ActionForward:
		insts := snap.svc[a.Dest]
		if len(insts) == 0 {
			h.dropPacket(d)
			return
		}
		inst := h.pick(insts, d.Key, rr)
		nd := *d
		nd.parallel = false
		nd.Verb = nf.VerbDefault
		nd.Entry = nil
		if !h.cfg.DisableLookupCache {
			// Look ahead: resolve the entry governing the packet at its
			// next scope and carry it in the descriptor so the TX thread
			// skips the hash lookup (§4.2 "Caching flow table lookups").
			if ne, err := h.table.Lookup(a.Dest, d.Key); err == nil {
				nd.Entry = ne
			}
		}
		if !h.offer(inst, producer, nd) {
			// NF queue overflow: replica capacity pressure, not policy —
			// counted separately so the autoscale layer sees it (§3.3).
			h.overflowDrop(d)
		}
	}
}

// transmit hands the packet to the egress sink bound to port and
// releases it. A frame only counts in TxPackets when a sink actually
// received its bytes; an unbound port or a stale buffer handle counts in
// TxDrops instead, so packets never vanish from the accounting while the
// stats claim they egressed.
//
//sdnfv:hotpath
func (h *Host) transmit(d *Desc, port int) {
	sink := h.egress.Load().sinkFor(port)
	if sink == nil {
		h.txDropCount.Add(1)
		h.releaseDesc(d)
		return
	}
	data, err := h.pool.Data(d.H)
	if err != nil {
		h.txDropCount.Add(1)
		h.releaseDesc(d)
		return
	}
	h.txCount.Add(1)
	//sdnfv:allow(dyncall) PortSink is the egress indirection point; one indirect call per transmitted frame
	sink(port, data, d)
	h.releaseDesc(d)
}

// dropPacket discards d (policy or manager-ring overload drop).
//
//sdnfv:hotpath
func (h *Host) dropPacket(d *Desc) {
	h.dropCount.Add(1)
	h.releaseDesc(d)
}

// overflowDrop discards d because an NF replica's input rings were full.
//
//sdnfv:hotpath
func (h *Host) overflowDrop(d *Desc) {
	h.overflowCount.Add(1)
	h.releaseDesc(d)
}

// txLoop is TX thread t: drain the out rings of assigned instances in
// bursts, resolve each NF's decision, and act on it. Thread 0
// additionally applies queued cross-layer messages so flow-table rewrites
// are serialized.
//
//sdnfv:hotpath
func (h *Host) txLoop(t int) {
	producer := 1 + t
	var rr uint64
	idle := h.idler(h.txWake[t], &h.woke[producer])
	//sdnfv:allow(alloc) per-thread burst scratch, allocated once before the poll loop
	batch := make([]Desc, rxBatch)
	for !h.stop.Load() {
		snap := h.observeSnap(producer)
		progressed := false
		for _, inst := range snap.inst {
			if inst.txThread != t {
				continue
			}
			for {
				n := inst.out.DequeueBatch(batch)
				if n == 0 {
					break
				}
				progressed = true
				for i := 0; i < n; i++ {
					h.completeNF(snap, &batch[i], inst, producer, &rr)
				}
			}
		}
		if t == 0 {
			//sdnfv:allow(call) cross-layer messages are control-plane work, cold by design (§3.4)
			if h.pumpControl() {
				progressed = true
			}
		}
		if !progressed {
			idle.wait()
		} else {
			idle.busy()
		}
	}
}

// pumpControl drains and applies every queued cross-layer message.
// Control-plane work: it takes the MPSC ring's mutex and rewrites the
// flow table, so it lives outside the hotpath-annotated TX loop body and
// runs only on TX thread 0 to keep table rewrites serialized.
func (h *Host) pumpControl() bool {
	progressed := false
	for {
		m, ok := h.ctrl.Pop()
		if !ok {
			return progressed
		}
		progressed = true
		cm := m.(ctrlMsg)
		h.handleNFMessage(cm.src, cm.msg)
	}
}

// resolveEntry returns the flow-table entry at d's current scope, using
// the descriptor cache when enabled. A nil entry with ok=true means the
// flow has no rule (a miss); ok=false means the packet bytes could not be
// parsed back into a flow key, so no lookup can be trusted — the caller
// must drop rather than dispatch the malformed frame by a stale key.
//
//sdnfv:hotpath
func (h *Host) resolveEntry(d *Desc) (e *flowtable.Entry, ok bool) {
	if !h.cfg.DisableLookupCache && d.Entry != nil {
		if h.table.EntryLive(d.Entry) {
			return d.Entry, true
		}
		// The cached entry's lease expired while the packet was in
		// flight. Its key is still trusted (set at RX), so fall through
		// to a fresh table lookup: a concurrent reinstall may have
		// produced a live replacement, and a true miss returns nil.
		d.Entry = nil
	}
	if h.cfg.DisableLookupCache {
		// Without descriptor caching the TX thread pays the full cost:
		// re-extract the 5-tuple from the packet, then hash-lookup.
		data, err := h.pool.Data(d.H)
		if err != nil {
			return nil, false
		}
		v, err := packet.Parse(data)
		if err != nil {
			return nil, false
		}
		d.Key = v.FlowKey()
	}
	e, err := h.table.Lookup(d.Scope, d.Key)
	if err != nil {
		return nil, true
	}
	return e, true
}

// onFlowEvicted is the sweeper's eviction callback (cold path, sweeper
// goroutine). It releases the engine-owned per-flow NF state of every
// evicted exact-match flow — in per-flow mode each service hop holds a
// rule AT its own scope, so the eviction at scope S names exactly the
// replicas whose state is dead — and forwards the batch upstream as one
// typed flow-removed notification so the controller session and the
// application tier drop their view of the flows. evs is the sweeper's
// buffer: nothing of it outlives the call.
func (h *Host) onFlowEvicted(evs []flowtable.Evicted) {
	h.mu.Lock()
	for _, ev := range evs {
		if ev.Scope.IsPort() {
			continue // port scopes carry no NF state
		}
		key, ok := ev.Match.ExactKey()
		if !ok {
			continue // wildcard rules are not per-flow state owners
		}
		for _, inst := range h.services[ev.Scope] {
			inst.ctx.Flows.Delete(key)
		}
	}
	h.mu.Unlock()
	if h.cfg.Control == nil {
		return
	}
	removals := h.notices[:0]
	for _, ev := range evs {
		reason := control.RemovedIdleTimeout
		if ev.Reason == flowtable.EvictHard {
			reason = control.RemovedHardTimeout
		}
		removals = append(removals, control.FlowRemoved{
			Scope:  ev.Scope,
			Match:  ev.Match,
			RuleID: ev.ID,
			Reason: reason,
		})
	}
	if h.notices, h.quiet = removals, h.quiet+1; len(removals) >= cap(removals)/8 {
		h.quiet = 0
	} else if h.quiet == 20 {
		h.notices, h.quiet = nil, 0 // the load fell: let the peak's buffer go
	}
	ctx, cancel := context.WithTimeout(context.Background(), resolveTimeout)
	defer cancel()
	if err := h.cfg.Control.NotifyFlowRemoved(ctx, removals); err != nil {
		// Notices are advisory and the rules are gone either way; count
		// the loss so it shows in HostStats and at /metrics.
		h.noticesRefused.Add(uint64(len(removals)))
	}
}

// dropUnparsed discards a descriptor whose packet bytes no longer parse.
// A parallel member must still vote in its join — it votes Drop — or the
// group's pending count would never reach zero.
//
//sdnfv:hotpath
func (h *Host) dropUnparsed(snap *routeSnap, d *Desc, inst *Instance, producer int, rr *uint64) {
	if d.parallel {
		h.parJoin(snap, d, packAction(flowtable.Drop(), inst.Priority), producer, rr)
		return
	}
	h.dropPacket(d)
}

// completeNF handles a descriptor returned by an NF: resolve its verb to a
// concrete action, then either join a parallel group or apply the action.
//
//sdnfv:hotpath
func (h *Host) completeNF(snap *routeSnap, d *Desc, inst *Instance, producer int, rr *uint64) {
	var act flowtable.Action
	switch d.Verb {
	case nf.VerbDiscard:
		act = flowtable.Drop()
	case nf.VerbOut:
		act = flowtable.Action{Type: flowtable.ActionOut, Dest: d.Dest}
	case nf.VerbSendTo:
		e, ok := h.resolveEntry(d)
		if !ok {
			h.dropUnparsed(snap, d, inst, producer, rr)
			return
		}
		req := flowtable.Forward(d.Dest)
		switch {
		case d.parallel || (e != nil && e.Allows(req)):
			act = req
		case e != nil:
			// Disallowed next hop: fall back to the default (§3.4 — only
			// listed next hops are permitted).
			if def, ok := e.Default(); ok {
				act = def
			} else {
				act = flowtable.Drop()
			}
		default:
			h.punt(d, producer)
			return
		}
	default: // VerbDefault
		e, ok := h.resolveEntry(d)
		if !ok {
			h.dropUnparsed(snap, d, inst, producer, rr)
			return
		}
		if e == nil {
			h.punt(d, producer)
			return
		}
		if def, ok := e.Default(); ok {
			act = def
		} else {
			act = flowtable.Drop()
		}
	}

	if d.parallel {
		h.parJoin(snap, d, packAction(act, inst.Priority), producer, rr)
		return
	}
	d.Entry = nil
	h.applyAction(snap, d, act, producer, rr)
}

// punt sends a missing-rule descriptor to the Flow Controller.
//
//sdnfv:hotpath
func (h *Host) punt(d *Desc, producer int) {
	h.missCount.Add(1)
	if !h.fcIn[producer].Enqueue(*d) {
		h.dropPacket(d)
		return
	}
	h.wakeFor(producer, h.fcWake)
}

// parJoin merges one parallel member's resolved action; the last member to
// arrive continues the packet with the merged action, using the calling
// thread's round-robin state so post-join forwards keep balancing across
// replicas instead of restarting from a zero counter every join.
//
//sdnfv:hotpath
func (h *Host) parJoin(snap *routeSnap, d *Desc, packed mergedAction, producer int, rr *uint64) {
	idx := d.H.Index()
	for {
		cur := h.parBest[idx].Load()
		if uint64(packed) <= cur {
			break
		}
		if h.parBest[idx].CompareAndSwap(cur, uint64(packed)) {
			break
		}
	}
	if h.parPending[idx].Add(-1) > 0 {
		// Another member still holds the packet; drop this reference.
		h.releaseDesc(d)
		return
	}
	merged := mergedAction(h.parBest[idx].Load())
	if !merged.valid() {
		h.dropPacket(d)
		return
	}
	d.parallel = false
	d.Entry = nil
	h.applyAction(snap, d, merged.action(), producer, rr)
}

// fcBatch caps the misses one Flow Controller pass drains, and so the
// requests one ResolveBatch carries.
const fcBatch = 256

// resolveTimeout bounds each southbound exchange: one resolution batch
// or one flow-removed notice.
const resolveTimeout = 30 * time.Second

// fcLoop is the Flow Controller thread (§4.1): it owns flow-table misses
// and resolves them through the southbound control API off the critical
// path. Each pass drains every producer ring into one batch of at most
// fcBatch misses, starting one ring later each pass so that no ring
// waits behind a busy one at the cap. Over that batch it (1) re-checks
// the table — a miss enqueued before an earlier resolution landed is
// stale and dispatches straight away; then resolveMisses (2) dedupes the
// true misses by (scope, key) across all rings, so a backlog of one new
// flow costs one controller request; (3) pipelines the unique requests
// in one ResolveBatch call — one controller round trip for the whole
// backlog that built up during the last one; (4) installs the returned
// rules through the batched writer API and re-routes the triggering
// packets with one LookupBatch pass.
//
// The loop body itself is hot — every punted descriptor passes through
// the stale-miss filter, and under steady state most of them dispatch
// right there without a controller round trip. The round trip, when one
// is needed, happens in resolveMisses, the cold half.
//
//sdnfv:hotpath
func (h *Host) fcLoop() {
	var rr uint64
	producer := h.fcProducerSlot()
	idle := h.idler(h.fcWake, &h.woke[producer])
	//sdnfv:allow(call) scratch construction runs once at thread launch, before the poll loop
	s := newBurstScratch(fcBatch)
	first := 0
	for !h.stop.Load() {
		snap := h.observeSnap(producer)
		n := 0
		for i := 0; i < len(h.fcIn) && n < fcBatch; i++ {
			n += h.fcIn[(first+i)%len(h.fcIn)].DequeueBatch(s.batch[n:])
		}
		first = (first + 1) % len(h.fcIn)
		if n == 0 {
			idle.wait()
			continue
		}
		idle.busy()
		// Stale-miss filter: dispatch descriptors whose rule has arrived
		// since they were punted.
		for i := 0; i < n; i++ {
			s.scopes[i] = s.batch[i].Scope
			s.keys[i] = s.batch[i].Key
		}
		h.table.LookupBatch(s.scopes[:n], s.keys[:n], s.entries[:n])
		miss := 0
		for i := 0; i < n; i++ {
			if s.entries[i] != nil {
				h.dispatchEntry(snap, &s.batch[i], s.entries[i], producer, &rr)
				continue
			}
			s.batch[miss] = s.batch[i]
			miss++
		}
		if miss > 0 {
			//sdnfv:allow(call) true misses leave the hot path here: the controller round trip is the cold half (§4.1)
			h.resolveMisses(snap, s, miss, producer, &rr)
		}
	}
}

// resolveMisses is the Flow Controller's cold half: it dedupes one
// pass's true misses, drained from every producer ring, pipelines one
// southbound ResolveBatch for the unique flows, installs the returned
// rules, and re-routes the survivors (a survivor the installed rules
// still do not cover is dropped). The first miss descriptors of s.batch
// are the misses; the southbound arrays and dedupe map are allocated on
// the first call that reaches the controller and, with the rule list,
// reused by every pass after. Deliberately NOT hotpath-annotated — it blocks
// on the controller for up to resolveTimeout and allocates per
// southbound exchange, which is exactly the work the Flow Controller
// thread exists to keep off the RX/TX threads.
func (h *Host) resolveMisses(snap *routeSnap, s *burstScratch, miss, producer int, rr *uint64) {
	if h.cfg.Control == nil {
		for i := 0; i < miss; i++ {
			h.dropPacket(&s.batch[i])
		}
		return
	}
	if s.seen == nil {
		n := len(s.batch)
		s.reqs = make([]control.ResolveRequest, n)
		s.results = make([]control.ResolveResult, n)
		s.slot = make([]int, n)
		s.seen = make(map[control.ResolveRequest]int, n)
	}
	// Dedupe: one southbound request per distinct (scope, key).
	uniq := 0
	clear(s.seen)
	for i := 0; i < miss; i++ {
		req := control.ResolveRequest{Scope: s.batch[i].Scope, Key: s.batch[i].Key}
		j, ok := s.seen[req]
		if !ok {
			j = uniq
			s.seen[req] = j
			s.reqs[j] = req
			uniq++
		}
		s.slot[i] = j
	}
	ctx, cancel := context.WithTimeout(context.Background(), resolveTimeout)
	// The deadline is the clock WithTimeout read, plus resolveTimeout:
	// the batch's start, with no clock read of its own.
	start, _ := ctx.Deadline()
	start = start.Add(-resolveTimeout)
	h.cfg.Control.ResolveBatch(ctx, s.reqs[:uniq], s.results[:uniq])
	cancel()
	resolved := time.Now()
	h.resolveBatches.Add(1)
	h.resolveNanos.Add(uint64(resolved.Sub(start)))
	// Install every returned rule in one batched write, then re-route the
	// survivors in one table pass.
	s.rules = s.rules[:0]
	for i := 0; i < uniq; i++ {
		if s.results[i].Err == nil {
			s.rules = append(s.rules, s.results[i].Rules...)
		}
	}
	if _, err := h.table.AddBatch(s.rules); err != nil {
		// AddBatch is all-or-nothing; a compiler mixing one bad rule into
		// a valid set must not lose the whole set (and livelock the
		// packets), so salvage rule by rule.
		for _, rule := range s.rules {
			_, _ = h.table.Add(rule)
		}
	}
	h.installNanos.Add(uint64(time.Since(resolved)))
	live := 0
	for i := 0; i < miss; i++ {
		if s.results[s.slot[i]].Err != nil {
			h.dropPacket(&s.batch[i])
			continue
		}
		s.batch[live] = s.batch[i]
		s.scopes[live] = s.batch[i].Scope
		s.keys[live] = s.batch[i].Key
		live++
	}
	// The table keeps copies; let the controller's answers go.
	clear(s.results[:uniq])
	if live == 0 {
		return
	}
	h.table.LookupBatch(s.scopes[:live], s.keys[:live], s.entries[:live])
	for i := 0; i < live; i++ {
		if s.entries[i] == nil {
			// The controller answered, but nothing it installed covers
			// the packet; punting it again would ask forever.
			h.unresolved.Add(1)
			h.dropPacket(&s.batch[i])
			continue
		}
		h.dispatchEntry(snap, &s.batch[i], s.entries[i], producer, rr)
	}
}

// handleNFMessage validates one NF-emitted message, applies it locally,
// and forwards it upstream through the southbound endpoint. Invalid
// messages and synchronous upstream rejections are counted in
// MsgsRejected.
func (h *Host) handleNFMessage(src flowtable.ServiceID, m nf.Message) {
	if err := control.Validate(m); err != nil {
		h.msgRejected.Add(1)
		return
	}
	h.applyLocal(m)
	if h.cfg.Control != nil {
		if err := h.cfg.Control.SendNFMessage(context.Background(), src, m); err != nil {
			h.msgRejected.Add(1)
		}
	}
}

// applyLocal executes a validated cross-layer message against the local
// flow table (§3.4). Application data (MsgData) has no local effect.
func (h *Host) applyLocal(m nf.Message) {
	switch m.Kind {
	case nf.MsgSkipMe:
		// NFs whose default edge leads to S bypass S: their default
		// becomes S's own default action. The forward(S) edge stays in
		// the action list so a later RequestMe can restore it.
		if e := h.lookupAnyRule(m.S); e != nil {
			if def, ok := e.Default(); ok {
				for _, sc := range h.table.ScopesWithActionTo(m.Flows, m.S) {
					h.table.UpdateDefault(sc, m.Flows, def, false)
				}
			}
		}
	case nf.MsgRequestMe:
		// All nodes with an edge to S make S their default.
		for _, sc := range h.table.ScopesWithActionTo(m.Flows, m.S) {
			h.table.UpdateDefault(sc, m.Flows, flowtable.Forward(m.S), true)
		}
	case nf.MsgChangeDefault:
		// Default rule for service S becomes T (constrained to edges
		// already present, i.e. the original service graph). T may be a
		// port-encoded destination (an egress link, as in Fig. 8).
		newDef := flowtable.Forward(m.T)
		if m.T.IsPort() {
			newDef = flowtable.Action{Type: flowtable.ActionOut, Dest: m.T}
		}
		h.table.UpdateDefault(m.S, m.Flows, newDef, true)
	}
}

// lookupAnyRule returns some rule scoped at s (wildcard preferred), used
// to discover s's default action for SkipMe. The zero-key lookup finds
// the governing wildcard cheaply; a scope holding only exact-match rules
// (per-flow compilation mode) answers nothing for the zero key, so fall
// back to scanning the scope's installed rules — otherwise SkipMe would
// silently no-op exactly when rules are specialized.
func (h *Host) lookupAnyRule(s flowtable.ServiceID) *flowtable.Entry {
	if e, err := h.table.Lookup(s, packet.FlowKey{}); err == nil {
		return e
	}
	return h.table.AnyEntry(s)
}

// WaitIdle blocks until the data plane has no packets in flight (pool
// in-use returns to zero) or the timeout elapses.
func (h *Host) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if h.pool.Stats().InUse == 0 {
			return true
		}
		time.Sleep(50 * time.Microsecond)
	}
	return h.pool.Stats().InUse == 0
}
