// Package autoscale closes the elasticity loop the paper assigns to the
// SDNFV management hierarchy (§3.3 "Automatic Load Balancing", §5 dynamic
// scaling): a policy loop watches the per-replica load signals the NF
// Manager exports (queue backlog, input-ring overflows, EWMA service
// time) and grows or shrinks a service's replica set through the NFV
// orchestrator — Instantiate to scale up, Retire (a flow-state-safe
// drain) to scale down.
//
// The controller is deliberately conservative: scale decisions need a
// streak of consecutive agreeing intervals (hysteresis) and respect a
// cooldown after every action, so a bursty signal cannot flap the replica
// set; boots already in flight count toward capacity, so a slow VM boot
// (the paper measures 7.75 s cold) cannot trigger a boot storm. The loop
// runs on a caller-supplied clock, so the same policy code drives the
// real engine under the wall clock and the discrete-event simulator under
// virtual time.
package autoscale

import (
	"context"
	"fmt"
	"sync"

	"sdnfv/internal/orchestrator"
)

// Clock schedules callbacks in seconds, real or virtual: the
// orchestrator's clock, so one implementation serves both layers.
type Clock = orchestrator.Clock

// Sample is one observation of a service's load.
type Sample struct {
	// Replicas is the number of live replicas.
	Replicas int `metric:"replicas" help:"Live replicas at the last tick."`
	// Pending is the number of boots in flight (counted as capacity so
	// the controller does not re-trigger while a VM boots).
	Pending int `metric:"pending" help:"Replica boots in flight at the last tick."`
	// Backlog is the total descriptors queued across the replicas' input
	// rings.
	Backlog int `metric:"backlog" help:"Queued descriptors across replicas at the last tick."`
	// ServiceTimeNs is the mean per-packet NF service time across
	// replicas (EWMA, 0 if none measured).
	ServiceTimeNs float64 `metric:"service_time_ns" help:"Mean per-packet service time at the last tick."`
	// Overflows is the cumulative count of offers refused because a
	// replica's input rings were full; the controller reacts to its
	// delta between ticks.
	Overflows uint64
}

// Source samples the scaled service's load.
type Source interface {
	Sample() Sample
}

// Actuator executes scale decisions.
type Actuator interface {
	// ScaleUp requests one more replica (may complete asynchronously).
	ScaleUp(ctx context.Context) error
	// ScaleDown retires one replica (synchronous drain).
	ScaleDown(ctx context.Context) error
}

// Config tunes the scaling policy. Zero values select the documented
// defaults.
type Config struct {
	// Min/Max bound the replica count (defaults 1 and 4).
	Min, Max int
	// UpBacklog is the per-replica queued-descriptor level that argues
	// for growth (default 64). Any input-ring overflow since the last
	// tick argues for growth regardless of backlog.
	UpBacklog float64
	// DownBacklog is the per-replica backlog at or below which the
	// service is considered over-provisioned (default 1).
	DownBacklog float64
	// UpServiceTimeNs, when non-zero, also argues for growth once the
	// mean per-packet service time crosses it.
	UpServiceTimeNs float64
	// UpStreak/DownStreak are the consecutive agreeing ticks required
	// before acting (hysteresis; defaults 2 and 4 — scale-down is the
	// disruptive direction, so it needs the longer streak).
	UpStreak, DownStreak int
	// CooldownSec is the minimum time between actions (default
	// 2×IntervalSec), letting the previous action take effect before the
	// signal is trusted again.
	CooldownSec float64
	// IntervalSec is the evaluation period (default 1 s).
	IntervalSec float64
}

func (c *Config) fillDefaults() {
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = 4
	}
	if c.UpBacklog == 0 {
		c.UpBacklog = 64
	}
	if c.DownBacklog == 0 {
		c.DownBacklog = 1
	}
	if c.UpStreak <= 0 {
		c.UpStreak = 2
	}
	if c.DownStreak <= 0 {
		c.DownStreak = 4
	}
	if c.IntervalSec <= 0 {
		c.IntervalSec = 1
	}
	if c.CooldownSec == 0 {
		c.CooldownSec = 2 * c.IntervalSec
	}
}

// Decision is one tick's outcome.
type Decision uint8

// Decisions.
const (
	Hold Decision = iota
	Up
	Down
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Up:
		return "up"
	case Down:
		return "down"
	default:
		return "hold"
	}
}

// Event records one non-hold decision (and its actuation error, if any).
type Event struct {
	At       float64
	Decision Decision
	// Replicas/Pending/Backlog are the sample that triggered the action.
	Replicas, Pending, Backlog int
	Err                        error
}

// Controller is the policy loop. Construct with New, then Start (or
// drive it manually with TickNow under a virtual clock).
type Controller struct {
	cfg   Config
	src   Source
	act   Actuator
	clock Clock

	mu      sync.Mutex
	running bool
	// gen numbers the timer chain: Stop/Start cycles would otherwise
	// resurrect the previous chain's pending callback alongside the new
	// one and double the tick rate forever.
	gen           uint64
	upStreak      int
	downStreak    int
	lastActionAt  float64
	haveActed     bool
	lastOverflows uint64
	haveOverflow  bool
	events        []Event

	// Telemetry counters (see Stats).
	ticks        uint64
	ups          uint64
	downs        uint64
	actErrors    uint64
	lastDecision Decision
	lastTickAt   float64
	lastSample   Sample
}

// Stats is a telemetry snapshot of the policy loop: cumulative tick and
// decision counts plus the most recent tick's outcome and load sample.
type Stats struct {
	// Ticks counts policy evaluations; Ups/Downs count actuated scale
	// decisions (including ones whose actuator returned an error);
	// Errors counts actuator failures.
	Ticks  uint64 `metric:"ticks_total" help:"Autoscale policy evaluations."`
	Ups    uint64 `metric:"decisions_total,decision=up" help:"Actuated scale decisions by direction."`
	Downs  uint64 `metric:"decisions_total,decision=down" help:"Actuated scale decisions by direction."`
	Errors uint64 `metric:"errors_total" help:"Actuator failures on scale decisions."`
	// LastDecision and LastTickAt describe the most recent tick;
	// Last is the load sample it evaluated.
	LastDecision Decision
	LastTickAt   float64
	Last         Sample `metric:""`
	// Min/Max are the replica bounds currently in force (SetBounds may
	// have changed them since construction).
	Min, Max int
}

// Stats returns a snapshot of the loop's telemetry counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Ticks:        c.ticks,
		Ups:          c.ups,
		Downs:        c.downs,
		Errors:       c.actErrors,
		LastDecision: c.lastDecision,
		LastTickAt:   c.lastTickAt,
		Last:         c.lastSample,
		Min:          c.cfg.Min,
		Max:          c.cfg.Max,
	}
}

// SetBounds replaces the replica bounds the policy enforces, taking
// effect from the next tick. This is how a new spec generation adjusts
// a running loop without rebuilding it (losing streak and cooldown
// state): the reconciler applies spec bounds here, and corrects any
// out-of-bounds replica count itself.
func (c *Controller) SetBounds(min, max int) error {
	if min < 1 || max < min {
		return fmt.Errorf("autoscale: bounds [%d,%d] invalid (need 1 <= min <= max)", min, max)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg.Min = min
	c.cfg.Max = max
	return nil
}

// New builds a controller; src, act, and clock must not be nil.
func New(cfg Config, src Source, act Actuator, clock Clock) *Controller {
	cfg.fillDefaults()
	return &Controller{cfg: cfg, src: src, act: act, clock: clock}
}

// Start begins periodic evaluation every IntervalSec. Stop ends the
// loop; Start may be called again afterwards.
func (c *Controller) Start() {
	c.mu.Lock()
	if c.running {
		c.mu.Unlock()
		return
	}
	c.running = true
	c.gen++
	gen := c.gen
	c.mu.Unlock()
	c.schedule(gen)
}

func (c *Controller) schedule(gen uint64) {
	c.clock.After(c.cfg.IntervalSec, func() {
		c.mu.Lock()
		live := c.running && c.gen == gen
		c.mu.Unlock()
		if !live {
			return
		}
		c.TickNow()
		c.schedule(gen)
	})
}

// Stop ends the periodic loop (an in-flight tick completes).
func (c *Controller) Stop() {
	c.mu.Lock()
	c.running = false
	c.mu.Unlock()
}

// Events returns a copy of the action log.
func (c *Controller) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// TickNow samples the source, evaluates the policy, and actuates a
// non-hold decision. Exported so tests and virtual-time experiments can
// drive the loop deterministically.
func (c *Controller) TickNow() Decision {
	s := c.src.Sample()
	now := c.clock.Now()

	c.mu.Lock()
	c.ticks++
	c.lastTickAt = now
	c.lastSample = s
	overflowDelta := uint64(0)
	if c.haveOverflow && s.Overflows >= c.lastOverflows {
		overflowDelta = s.Overflows - c.lastOverflows
	}
	c.lastOverflows = s.Overflows
	c.haveOverflow = true

	perReplica := float64(s.Backlog)
	if s.Replicas > 1 {
		perReplica /= float64(s.Replicas)
	}
	pressure := perReplica >= c.cfg.UpBacklog || overflowDelta > 0 ||
		(c.cfg.UpServiceTimeNs > 0 && s.ServiceTimeNs >= c.cfg.UpServiceTimeNs)
	calm := perReplica <= c.cfg.DownBacklog && overflowDelta == 0

	switch {
	case pressure:
		c.upStreak++
		c.downStreak = 0
	case calm:
		c.downStreak++
		c.upStreak = 0
	default:
		c.upStreak = 0
		c.downStreak = 0
	}

	cooled := !c.haveActed || now-c.lastActionAt >= c.cfg.CooldownSec
	capacity := s.Replicas + s.Pending
	decision := Hold
	switch {
	case c.upStreak >= c.cfg.UpStreak && capacity < c.cfg.Max && cooled:
		decision = Up
	case c.downStreak >= c.cfg.DownStreak && s.Replicas > c.cfg.Min && s.Pending == 0 && cooled:
		// Never shrink with a boot in flight: the pending replica would
		// land on a set the policy just judged over-provisioned.
		decision = Down
	}
	prevUp, prevDown := c.upStreak, c.downStreak
	c.lastDecision = decision
	if decision != Hold {
		c.lastActionAt = now
		c.haveActed = true
		c.upStreak = 0
		c.downStreak = 0
		if decision == Up {
			c.ups++
		} else {
			c.downs++
		}
	}
	c.mu.Unlock()

	if decision == Hold {
		return Hold
	}
	var err error
	if decision == Up {
		err = c.act.ScaleUp(context.Background())
	} else {
		err = c.act.ScaleDown(context.Background())
	}
	c.mu.Lock()
	if err != nil {
		c.actErrors++
		// Nothing was actuated: keep the streak memory so the retry only
		// waits out the cooldown (a throttle on failing actuators)
		// instead of rebuilding the whole hysteresis window.
		c.upStreak, c.downStreak = prevUp, prevDown
	}
	c.events = append(c.events, Event{
		At: now, Decision: decision,
		Replicas: s.Replicas, Pending: s.Pending, Backlog: s.Backlog,
		Err: err,
	})
	c.mu.Unlock()
	return decision
}
