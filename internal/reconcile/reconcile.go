// Package reconcile is the controller-style loop that keeps the cluster
// converged on a declarative deployment spec (internal/spec). Where the
// orchestrator's Instantiate/Retire are one-shot imperative calls, the
// reconciler owns desired state: each tick it observes the
// cluster (host liveness, per-service replica counts — the same
// registry snapshots telemetry gathers), computes drift against the
// active spec generation, and converges through typed actuators —
// re-placing NFs when a host dies, recompiling the app deployment when
// placement changes, resuming autoscale within spec bounds after
// failover. Failed actions back off exponentially per action key, the
// per-tick work queue is bounded (overflow is dropped and re-derived
// from the next observation, so drops are self-healing), and duplicate
// boots are suppressed while an async launch is still in flight.
package reconcile

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"sdnfv/internal/autoscale"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/spec"
)

// Clock abstracts time for the loop; autoscale's clocks (real and
// virtual) plug in unchanged.
type Clock = autoscale.Clock

// HostState is one host's observed condition.
type HostState struct {
	// Alive reports whether the host is up (dataplane running,
	// reachable). A dead host's replicas are gone with it.
	Alive bool
	// Replicas counts running NF replicas per service scope.
	Replicas map[flowtable.ServiceID]int
}

// Observation is one snapshot of the cluster, keyed by spec host name.
type Observation struct {
	Hosts map[string]HostState
}

// Observer produces cluster snapshots. Implementations read the same
// state telemetry collectors export (cluster fabric membership, host
// Stats) — the reconciler never inspects the data path directly.
type Observer interface {
	Observe() Observation
}

// Actuators is the typed surface the reconciler converges through. All
// calls receive the active spec so implementations can resolve NF
// bindings, link wiring, and autoscale bounds without private copies of
// desired state. Implementations must be safe for repeated invocation:
// the loop re-derives drift every tick and retries failures.
type Actuators interface {
	// Place boots one replica of svc on host (spec bounds configure the
	// service's autoscaler there, resuming it after a failover).
	Place(ctx context.Context, sp *spec.Spec, svc spec.Service, host string) error
	// Retire drains one replica of svc on host (flow-state-safe).
	Retire(ctx context.Context, sp *spec.Spec, svc spec.Service, host string) error
	// Reroute makes the routed topology match assign (service name →
	// host name): recompile the deployment, reinstall changed hosts.
	Reroute(ctx context.Context, sp *spec.Spec, assign map[string]string) error
	// SetBounds applies svc's spec autoscale bounds on host.
	SetBounds(ctx context.Context, sp *spec.Spec, svc spec.Service, host string) error
}

// ActionKind enumerates the reconciler's actuator primitives.
type ActionKind int

// Action kinds, in the order the loop emits them.
const (
	ActionPlace ActionKind = iota
	ActionRetire
	ActionReroute
	ActionSetBounds
)

func (k ActionKind) String() string {
	switch k {
	case ActionPlace:
		return "place"
	case ActionRetire:
		return "retire"
	case ActionReroute:
		return "reroute"
	case ActionSetBounds:
		return "set-bounds"
	}
	return "unknown"
}

// Action is one unit of convergence work.
type Action struct {
	Kind    ActionKind
	Service string // empty for reroute
	Host    string // empty for reroute
	// Assign is the desired routing (reroute only).
	Assign map[string]string
	// Bounds are svc's spec bounds (place / set-bounds).
	Bounds spec.Bounds
}

// Key identifies the action for dedup, backoff, and pending tracking.
func (a Action) Key() string {
	if a.Kind == ActionReroute {
		return "reroute"
	}
	return fmt.Sprintf("%s/%s@%s", a.Kind, a.Service, a.Host)
}

func (a Action) String() string {
	if a.Kind == ActionReroute {
		return "reroute"
	}
	return fmt.Sprintf("%s %s on %s", a.Kind, a.Service, a.Host)
}

// Config tunes the loop. Zero values take the documented defaults.
type Config struct {
	// IntervalSec is the tick period (default 1s).
	IntervalSec float64
	// QueueDepth bounds the per-tick work queue (default 32); excess
	// drift is dropped, counted, and re-derived next tick.
	QueueDepth int
	// BackoffSec is the initial per-action retry delay (default 0.5s),
	// doubling per consecutive failure up to BackoffMaxSec (default 30s).
	BackoffSec    float64
	BackoffMaxSec float64
	// PendingSec suppresses a repeated Place of the same key while an
	// async boot is in flight (default 5s).
	PendingSec float64
}

func (c *Config) fillDefaults() {
	if c.IntervalSec <= 0 {
		c.IntervalSec = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.BackoffSec <= 0 {
		c.BackoffSec = 0.5
	}
	if c.BackoffMaxSec <= 0 {
		c.BackoffMaxSec = 30
	}
	if c.PendingSec <= 0 {
		c.PendingSec = 5
	}
}

type backoffState struct {
	until float64
	delay float64
}

type boundsState struct {
	host string
	b    spec.Bounds
}

// Status is a snapshot of the loop for telemetry (/state/reconcile and
// the metric-tagged sdnfv_reconcile_* families).
type Status struct {
	// Generation is the active spec generation (0 = none applied).
	Generation uint64 `json:"generation" metric:"generation" help:"Active spec generation (0 = none applied)."`
	SpecName   string `json:"spec,omitempty"`
	// Converged reports the last tick observed zero drift.
	Converged bool `json:"converged" metric:"converged" help:"1 when the last tick observed zero drift."`
	// Drift lists the last tick's raw drift actions.
	Drift []string `json:"drift,omitempty" metric:"drift_actions" help:"Drift actions observed on the last tick."`
	// Pending lists action keys suppressed while a boot is in flight.
	Pending []string `json:"pending,omitempty"`
	// Placement is the routed assignment (service → host) in force.
	Placement map[string]string `json:"placement,omitempty"`
	// LastConvergeSec is how long the last drift episode took to
	// converge (drift first observed → zero drift observed).
	LastConvergeSec float64 `json:"last_converge_sec" metric:"convergence_seconds" help:"Duration of the last drift episode (drift observed to zero drift)."`
	LastError       string  `json:"last_error,omitempty"`

	Ticks         uint64 `json:"ticks" metric:"ticks_total" help:"Reconcile cycles run."`
	DriftEvents   uint64 `json:"drift_events" metric:"drift_events_total" help:"Transitions from converged to drifted."`
	ActionsOK     uint64 `json:"actions_ok" metric:"actions_total,outcome=ok" help:"Actuator invocations by outcome."`
	ActionsFailed uint64 `json:"actions_failed" metric:"actions_total,outcome=failed" help:"Actuator invocations by outcome."`
	QueueDrops    uint64 `json:"queue_drops" metric:"queue_drops_total" help:"Drift actions dropped by the bounded work queue."`
	Generations   uint64 `json:"generations" metric:"generations_total" help:"Spec generations applied."`
}

// Reconciler runs the loop. Construct with New, Apply a spec, then
// Start (or drive ticks manually with TickNow under a virtual clock).
// Ticks are serial: the timer chain fires one at a time, and manual
// TickNow callers must not overlap calls.
type Reconciler struct {
	cfg   Config
	obs   Observer
	act   Actuators
	clock Clock

	mu       sync.Mutex
	running  bool
	timerGen uint64

	sp  *spec.Spec
	gen uint64

	routed        map[string]string
	appliedBounds map[string]boundsState
	backoff       map[string]backoffState
	pending       map[string]float64

	converged  bool
	driftStart float64
	lastDrift  []string

	ticks         uint64
	driftEvents   uint64
	actionsOK     uint64
	actionsFailed uint64
	queueDrops    uint64
	generations   uint64
	lastConverge  float64
	lastError     string
}

// New builds a reconciler; obs, act, and clock must not be nil.
func New(cfg Config, obs Observer, act Actuators, clock Clock) *Reconciler {
	cfg.fillDefaults()
	return &Reconciler{
		cfg: cfg, obs: obs, act: act, clock: clock,
		appliedBounds: map[string]boundsState{},
		backoff:       map[string]backoffState{},
		pending:       map[string]float64{},
	}
}

// Apply activates a new spec generation. The spec is validated; on
// success the generation number and the typed change set against the
// previous generation are returned, and the loop starts converging the
// cluster toward it from the next tick. Backoff and pending state carry
// over (an in-flight boot is still in flight under the new generation).
func (r *Reconciler) Apply(s *spec.Spec) (uint64, *spec.ChangeSet, error) {
	if err := s.Validate(); err != nil {
		return 0, nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var cs *spec.ChangeSet
	if r.sp != nil {
		cs = spec.Diff(r.sp, s)
	} else {
		cs = spec.Diff(&spec.Spec{Version: spec.Version}, s)
	}
	r.sp = s
	r.gen++
	r.generations++
	// A new generation must prove itself converged.
	r.converged = false
	r.driftStart = r.clock.Now()
	return r.gen, cs, nil
}

// Spec returns the active spec and its generation (nil, 0 before the
// first Apply).
func (r *Reconciler) Spec() (*spec.Spec, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sp, r.gen
}

// Start begins periodic reconciliation every IntervalSec. Stop ends the
// loop; Start may be called again afterwards.
func (r *Reconciler) Start() {
	r.mu.Lock()
	if r.running {
		r.mu.Unlock()
		return
	}
	r.running = true
	r.timerGen++
	gen := r.timerGen
	r.mu.Unlock()
	r.schedule(gen)
}

func (r *Reconciler) schedule(gen uint64) {
	r.clock.After(r.cfg.IntervalSec, func() {
		r.mu.Lock()
		live := r.running && r.timerGen == gen
		r.mu.Unlock()
		if !live {
			return
		}
		r.TickNow()
		r.schedule(gen)
	})
}

// Stop ends the periodic loop (an in-flight tick completes).
func (r *Reconciler) Stop() {
	r.mu.Lock()
	r.running = false
	r.mu.Unlock()
}

// computeDrift derives the raw drift action list from one observation.
// Deterministic: services in spec order, stray hosts sorted. Returns
// the desired assignment alongside (nil when placement is impossible).
func (r *Reconciler) computeDrift(sp *spec.Spec, o Observation) ([]Action, map[string]string, error) {
	alive := func(h string) bool {
		hs, ok := o.Hosts[h]
		return ok && hs.Alive
	}
	assign, err := sp.Place(alive)
	if err != nil {
		return nil, nil, err
	}
	var drift []Action
	for _, svc := range sp.Services {
		h := assign[svc.Name]
		n := o.Hosts[h].Replicas[svc.ID]
		switch {
		case n < svc.Scale.Min:
			drift = append(drift, Action{Kind: ActionPlace, Service: svc.Name, Host: h, Bounds: svc.Scale})
		case n > svc.Scale.Max:
			drift = append(drift, Action{Kind: ActionRetire, Service: svc.Name, Host: h})
		}
		// Strays: replicas on a live host that is not the desired one
		// (a dead host's replicas died with it — nothing to retire).
		var strays []string
		for hn, hs := range o.Hosts {
			if hn != h && hs.Alive && hs.Replicas[svc.ID] > 0 {
				strays = append(strays, hn)
			}
		}
		sort.Strings(strays)
		for _, hn := range strays {
			drift = append(drift, Action{Kind: ActionRetire, Service: svc.Name, Host: hn})
		}
		if ab, ok := r.appliedBounds[svc.Name]; !ok || ab.host != h || ab.b != svc.Scale {
			drift = append(drift, Action{Kind: ActionSetBounds, Service: svc.Name, Host: h, Bounds: svc.Scale})
		}
	}
	if !sameAssign(r.routed, assign) {
		// Reroute is drift the moment the desired routing differs, but
		// it only becomes actionable once every service has a replica
		// standing on its desired host — routing traffic at an empty
		// host would blackhole the chain mid-convergence.
		drift = append(drift, Action{Kind: ActionReroute, Assign: assign})
	}
	return drift, assign, nil
}

// actionable reports whether a drift action may run now (reroute waits
// for replicas; backoff and pending filters are applied by the caller).
func actionable(a Action, sp *spec.Spec, o Observation) bool {
	if a.Kind != ActionReroute {
		return true
	}
	for _, svc := range sp.Services {
		if o.Hosts[a.Assign[svc.Name]].Replicas[svc.ID] < 1 {
			return false
		}
	}
	return true
}

// TickNow runs one observe → diff → converge cycle. Exported so tests
// and experiments can drive the loop deterministically.
func (r *Reconciler) TickNow() {
	o := r.obs.Observe()
	now := r.clock.Now()

	r.mu.Lock()
	r.ticks++
	sp := r.sp
	specGen := r.gen
	if sp == nil {
		r.mu.Unlock()
		return
	}
	drift, _, derr := r.computeDrift(sp, o)
	wasConverged := r.converged
	nowConverged := derr == nil && len(drift) == 0
	if wasConverged && !nowConverged {
		r.driftEvents++
		r.driftStart = now
	}
	if derr != nil {
		r.lastError = derr.Error()
	}
	r.lastDrift = r.lastDrift[:0]
	for _, a := range drift {
		r.lastDrift = append(r.lastDrift, a.String())
	}

	// Build this tick's bounded work queue: dedup by key, skip actions
	// backing off, boots still pending, and the not-yet-actionable
	// reroute; drop (and count) overflow beyond QueueDepth.
	var run []Action
	seen := map[string]bool{}
	for _, a := range drift {
		k := a.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		if b, ok := r.backoff[k]; ok && now < b.until {
			continue
		}
		if exp, ok := r.pending[k]; ok {
			if now < exp {
				continue
			}
			delete(r.pending, k)
		}
		if !actionable(a, sp, o) {
			continue
		}
		if len(run) >= r.cfg.QueueDepth {
			r.queueDrops++
			continue
		}
		run = append(run, a)
	}
	r.mu.Unlock()

	ctx := context.Background()
	for _, a := range run {
		var err error
		switch a.Kind {
		case ActionPlace, ActionRetire, ActionSetBounds:
			svc, ok := sp.Service(a.Service)
			if !ok {
				err = fmt.Errorf("reconcile: unknown service %q", a.Service)
				break
			}
			switch a.Kind {
			case ActionPlace:
				err = r.act.Place(ctx, sp, svc, a.Host)
			case ActionRetire:
				err = r.act.Retire(ctx, sp, svc, a.Host)
			default:
				err = r.act.SetBounds(ctx, sp, svc, a.Host)
			}
		case ActionReroute:
			err = r.act.Reroute(ctx, sp, a.Assign)
		}

		r.mu.Lock()
		k := a.Key()
		if err != nil {
			r.actionsFailed++
			b := r.backoff[k]
			if b.delay == 0 {
				b.delay = r.cfg.BackoffSec
			} else {
				b.delay *= 2
				if b.delay > r.cfg.BackoffMaxSec {
					b.delay = r.cfg.BackoffMaxSec
				}
			}
			b.until = r.clock.Now() + b.delay
			r.backoff[k] = b
			r.lastError = a.String() + ": " + err.Error()
		} else {
			r.actionsOK++
			delete(r.backoff, k)
			switch a.Kind {
			case ActionPlace:
				r.pending[k] = r.clock.Now() + r.cfg.PendingSec
				r.appliedBounds[a.Service] = boundsState{host: a.Host, b: a.Bounds}
			case ActionSetBounds:
				r.appliedBounds[a.Service] = boundsState{host: a.Host, b: a.Bounds}
			case ActionReroute:
				r.routed = a.Assign
			}
		}
		r.mu.Unlock()
	}

	r.mu.Lock()
	if specGen == r.gen {
		r.converged = nowConverged
		if nowConverged {
			r.lastError = ""
			if !wasConverged {
				r.lastConverge = now - r.driftStart
			}
		}
	}
	r.mu.Unlock()
}

// Status snapshots the loop for telemetry.
func (r *Reconciler) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		Generation:      r.gen,
		Converged:       r.converged,
		Drift:           append([]string(nil), r.lastDrift...),
		LastConvergeSec: r.lastConverge,
		LastError:       r.lastError,
		Ticks:           r.ticks,
		DriftEvents:     r.driftEvents,
		ActionsOK:       r.actionsOK,
		ActionsFailed:   r.actionsFailed,
		QueueDrops:      r.queueDrops,
		Generations:     r.generations,
	}
	if r.sp != nil {
		st.SpecName = r.sp.Name
	}
	if len(r.routed) > 0 {
		st.Placement = make(map[string]string, len(r.routed))
		for k, v := range r.routed {
			st.Placement[k] = v
		}
	}
	now := r.clock.Now()
	for k, exp := range r.pending {
		if now < exp {
			st.Pending = append(st.Pending, k)
		}
	}
	sort.Strings(st.Pending)
	return st
}

func sameAssign(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
