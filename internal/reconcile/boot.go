package reconcile

// Boot is the one place a spec becomes a running stack. Every
// deployment of in-process hosts — sdnfv-host with or without -spec, the
// cluster, reconcile and churn experiments — goes through it, so boot
// delays, drain logic and shutdown ordering cannot drift apart.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sdnfv/internal/app"
	"sdnfv/internal/autoscale"
	"sdnfv/internal/cluster"
	"sdnfv/internal/control"
	"sdnfv/internal/controller"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/orchestrator"
	"sdnfv/internal/spec"
)

const (
	hostRingSize = 1024
	// injectWindow caps the frames Inject lets be in flight cluster-wide
	// before it holds the generator. It sits well under hostRingSize so
	// no ring on the path can fill: an in-process generator that outruns
	// the chain back-pressures instead of shedding load as overflows.
	injectWindow = 256
	// injectBurst is how many frames Inject admits between looks at the
	// in-flight count.
	injectBurst = 32
	// bootTimeout bounds Boot's wait for the first generation to converge
	// and one Inject's wait for room.
	bootTimeout = 10 * time.Second
)

// Timings are the control-loop configurations Boot's callers genuinely
// differ on (an interactive host ticks in tens of milliseconds; the
// chaos experiment pins its autoscalers quiet). Everything else about a
// booted stack is fixed inside Boot.
type Timings struct {
	Reconcile Config
	// Scale templates the per-service autoscale loops (Min/Max come from
	// the spec per service).
	Scale autoscale.Config
	Orch  orchestrator.Config
}

// Cluster is a booted stack. Fields are read-only after Boot.
type Cluster struct {
	Fabric *cluster.Fabric
	// Hosts and Datapaths are keyed by spec host name.
	Hosts     map[string]*dataplane.Host
	Datapaths map[string]control.DatapathID
	// Controller is the in-process SDN controller (nil when Boot was
	// handed a remote southbound).
	Controller *controller.Controller
	Reconciler *Reconciler
	Actuators  *ClusterActuators

	ingress     *dataplane.Host
	ingressPort int
	delivered   map[string]*atomic.Uint64
	burst       int
	closeOnce   sync.Once
}

// Boot assembles the stack sp declares in the paper's hierarchy order
// (§3) — controller → fabric → hosts → links → app → orchestrator →
// actuators → reconciler — starts it, and blocks until the reconciler
// reports the first generation converged. nfs resolves the spec's NF
// bindings. remote, when non-nil, supplies each host's southbound (the
// paper's miss → PACKET_IN → remote controller → FLOW_MOD path): no
// in-process controller or application is built and routing rules
// arrive on miss. On error everything already started is torn down.
func Boot(sp *spec.Spec, nfs *spec.NFRegistry, t Timings, remote func(control.DatapathID) control.Southbound) (*Cluster, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if err := sp.BindCheck(nfs); err != nil {
		return nil, err
	}
	c := &Cluster{
		Fabric:      cluster.New(),
		Hosts:       map[string]*dataplane.Host{},
		Datapaths:   DatapathsOf(sp),
		ingressPort: sp.Ingress.Port,
		delivered:   map[string]*atomic.Uint64{},
	}
	booted := false
	defer func() {
		if !booted {
			c.Close()
		}
	}()
	if remote == nil {
		c.Controller = controller.New(controller.Config{Workers: 2})
		c.Controller.Start()
		remote = func(dp control.DatapathID) control.Southbound { return c.Controller.Session(dp) }
	}

	// Lifecycle: the spec-wide flow_timeouts stanza becomes every host
	// table's install-time default; per-service stanzas override at that
	// scope. Any stanza at all turns the background sweeper on.
	flowIdle, flowHard := sp.FlowTimeouts.Durations()
	var sweep time.Duration
	if sp.HasFlowLifecycle() {
		sweep = flowtable.DefaultSweepInterval
	}
	for _, name := range sp.HostNames() {
		h := dataplane.NewHost(dataplane.Config{
			PoolSize: 4096, RingSize: hostRingSize,
			Control:         remote(c.Datapaths[name]),
			FlowIdleTimeout: flowIdle, FlowHardTimeout: flowHard,
			FlowSweepInterval: sweep,
		})
		for i := range sp.Services {
			if ft := sp.Services[i].FlowTimeouts; ft != nil {
				idle, hard := ft.Durations()
				h.Table().SetScopeTimeouts(sp.Services[i].ID, idle, hard)
			}
		}
		// Frames leaving the declared egress port are this host's
		// deliveries (a port driver bound there later takes them instead).
		n := new(atomic.Uint64)
		h.BindPort(sp.EgressPort, func(int, []byte, *dataplane.Desc) { n.Add(1) })
		c.Hosts[name], c.delivered[name] = h, n
		if err := c.Fabric.AddHost(c.Datapaths[name], name, h); err != nil {
			return nil, err
		}
	}
	c.ingress = c.Hosts[sp.Ingress.Host]
	for _, l := range sp.Links {
		if err := c.Fabric.Link(c.Datapaths[l.A.Host], l.A.Port, c.Datapaths[l.B.Host], l.B.Port); err != nil {
			return nil, err
		}
	}

	var a *app.App
	if c.Controller != nil {
		g, err := sp.Graph()
		if err != nil {
			return nil, err
		}
		a = app.New(app.Config{IngressPort: sp.Ingress.Port, EgressPort: sp.EgressPort, WildcardRules: true})
		if err := a.RegisterGraph(g); err != nil {
			return nil, err
		}
		a.SetDownstream(c.Fabric)
		c.Controller.SetNorthbound(a)
	}

	clock := autoscale.NewRealClock()
	orch := orchestrator.New(t.Orch, clock)
	for name, h := range c.Hosts {
		orch.AddHost(dataplane.NamedHost{Name: name, Host: h})
	}
	c.Actuators = &ClusterActuators{
		Fabric: c.Fabric, App: a, Orch: orch, NFs: nfs, Clock: clock,
		Scale: t.Scale, Datapaths: c.Datapaths,
	}
	c.Reconciler = New(t.Reconcile, ClusterObserver{Fabric: c.Fabric, Datapaths: c.Datapaths}, c.Actuators, clock)
	if _, _, err := c.Reconciler.Apply(sp); err != nil {
		return nil, err
	}
	if err := c.Fabric.Start(); err != nil {
		return nil, err
	}
	c.Reconciler.Start()
	// Converge before returning: every placement up, routing in force.
	for deadline := time.Now().Add(bootTimeout); !c.Reconciler.Status().Converged; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("reconcile: spec %q never converged: %+v", sp.Name, c.Reconciler.Status())
		}
	}
	booted = true
	return c, nil
}

// Delivered counts the frames host has transmitted out the spec's
// egress port since boot.
func (c *Cluster) Delivered(host string) uint64 {
	if n, ok := c.delivered[host]; ok {
		return n.Load()
	}
	return 0
}

// Inject offers one frame at the spec's ingress with backpressure: at
// each burst boundary it holds while more than injectWindow frames are
// in flight cluster-wide, and a frame the ingress host refuses for
// capacity (dataplane.ErrIngestRefused: pool or NIC ring momentarily
// full) is retried, so an in-process generator paces itself to the
// chain instead of overflowing its rings. It fails at once on a frame
// the host will never admit (malformed, oversize), and otherwise only
// when the cluster makes no room for bootTimeout (a stopped ingress
// host, a wedged chain). One generator goroutine at a time.
func (c *Cluster) Inject(frame []byte) error {
	wait := c.burst == 0
	c.burst = (c.burst + 1) % injectBurst
	var deadline time.Time // armed on the first refusal, so the fast path reads no clock
	for {
		var err error
		if wait && c.Fabric.InFlight() > injectWindow {
			err = fmt.Errorf("%d frames still in flight", c.Fabric.InFlight())
		} else if err = c.ingress.Inject(c.ingressPort, frame); err == nil {
			return nil
		} else if !errors.Is(err, dataplane.ErrIngestRefused) {
			return fmt.Errorf("reconcile: inject: %w", err)
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(bootTimeout)
		} else if time.Now().After(deadline) {
			return fmt.Errorf("reconcile: inject: %w", err)
		}
		time.Sleep(10 * time.Microsecond)
	}
}

// Close tears the stack down in dependency order: autoscale loops (they
// actuate through the orchestrator), the reconciler, then the fabric —
// hosts first so every TX thread drains through its sinks and links,
// then port drivers bound with Fabric.BindWire, which flush their
// egress queues onto the wire — and last the controller the
// hosts' Flow Controller threads were resolving against. Idempotent.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		if c.Actuators != nil {
			c.Actuators.Close()
		}
		if c.Reconciler != nil {
			c.Reconciler.Stop()
		}
		c.Fabric.Stop()
		if c.Controller != nil {
			c.Controller.Stop()
		}
	})
}
