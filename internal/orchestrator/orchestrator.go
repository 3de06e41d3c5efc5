// Package orchestrator implements the NFV Orchestrator (Fig. 2): it boots
// and retires NF instances on hosts on behalf of the SDNFV Application.
//
// Instantiating a VM is slow — the paper measures about 7.75 s to boot a
// new VM, and notes it "can be further reduced by just starting a new
// process in a stand-by VM" (§5.2). The orchestrator models both paths: a
// configurable boot delay for cold starts and a standby pool for fast
// starts. The delay runs on a caller-supplied clock so the same code works
// under the real clock and the discrete-event simulator.
package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
)

// HostHandle abstracts the per-host operations the orchestrator needs; the
// real dataplane.Host and the experiments' simulated hosts both satisfy
// it through thin adapters. Like the rest of the control API (internal/control), the
// operations are typed and context-aware so callers can bound slow boots.
type HostHandle interface {
	// HostName identifies the host.
	HostName() string
	// Launch makes service svc available backed by fn; called after the
	// boot delay has elapsed. ctx carries the deadline of the
	// Instantiate call that scheduled the boot. Hosts run the outgoing
	// NF's Close hook when a launch replaces an existing instance.
	Launch(ctx context.Context, svc flowtable.ServiceID, fn nf.BatchFunction) error
}

// Clock schedules a callback after a virtual or real delay in seconds.
type Clock interface {
	// After runs fn once delay seconds have passed.
	After(delay float64, fn func())
	// Now returns the current time in seconds.
	Now() float64
}

// Config tunes the orchestrator.
type Config struct {
	// BootDelaySec is the cold-start VM boot time (paper: 7.75 s).
	BootDelaySec float64
	// StandbyDelaySec is the fast-start delay when a standby VM exists.
	StandbyDelaySec float64
	// Standby is the number of pre-booted standby slots per host.
	Standby int
}

// Launch records one instantiation.
type Launch struct {
	Host    string
	Service flowtable.ServiceID
	// RequestedAt/ReadyAt are clock timestamps in seconds.
	RequestedAt float64
	ReadyAt     float64
	// Standby reports whether the fast path was used.
	Standby bool
}

// Orchestrator boots NF instances with realistic delays.
type Orchestrator struct {
	cfg   Config
	clock Clock

	mu          sync.Mutex
	hosts       map[string]HostHandle
	standby     map[string]int
	retirements []Retirement
	pending     int
}

// New builds an orchestrator. clock must not be nil.
func New(cfg Config, clock Clock) *Orchestrator {
	if cfg.BootDelaySec == 0 {
		cfg.BootDelaySec = 7.75
	}
	if cfg.StandbyDelaySec == 0 {
		cfg.StandbyDelaySec = 0.5
	}
	return &Orchestrator{
		cfg:     cfg,
		clock:   clock,
		hosts:   make(map[string]HostHandle),
		standby: make(map[string]int),
	}
}

// AddHost registers a host under the orchestrator's control, seeding its
// standby pool.
func (o *Orchestrator) AddHost(h HostHandle) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.hosts[h.HostName()] = h
	o.standby[h.HostName()] = o.cfg.Standby
}

// ErrUnknownHost reports an Instantiate against an unregistered host.
var ErrUnknownHost = errors.New("orchestrator: unknown host")

// Instantiate boots fn as service svc on the named host. onReady (may be
// nil) runs once the NF is launched and registered. The launch completes
// after the cold-boot delay, or the standby delay when a standby slot is
// available. Instantiation is asynchronous: Instantiate returns after
// scheduling the boot, and a ctx cancelled before the boot delay
// elapses aborts the launch.
func (o *Orchestrator) Instantiate(ctx context.Context, host string, svc flowtable.ServiceID, fn nf.BatchFunction, onReady func(Launch)) error {
	o.mu.Lock()
	h, ok := o.hosts[host]
	if !ok {
		o.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownHost, host)
	}
	delay := o.cfg.BootDelaySec
	usedStandby := false
	if o.standby[host] > 0 {
		o.standby[host]--
		delay = o.cfg.StandbyDelaySec
		usedStandby = true
	}
	o.pending++
	now := o.clock.Now()
	o.mu.Unlock()

	o.clock.After(delay, func() {
		l := Launch{
			Host:        host,
			Service:     svc,
			RequestedAt: now,
			ReadyAt:     o.clock.Now(),
			Standby:     usedStandby,
		}
		err := ctx.Err()
		if err == nil {
			err = h.Launch(ctx, svc, fn)
		} else if usedStandby {
			// Aborted before boot: the pre-booted VM was never used,
			// so its standby slot goes back to the pool.
			o.mu.Lock()
			o.standby[host]++
			o.mu.Unlock()
		}
		o.mu.Lock()
		o.pending--
		o.mu.Unlock()
		if err == nil && onReady != nil {
			onReady(l)
		}
	})
	return nil
}

// Remover is the optional scale-down capability of a HostHandle: retiring
// one replica of a service with a flow-state-safe drain.
// dataplane.NamedHost satisfies it through Host.RemoveNF.
type Remover interface {
	RemoveNF(svc flowtable.ServiceID, index int) error
}

// Retirement records one completed scale-down.
type Retirement struct {
	Host    string
	Service flowtable.ServiceID
	Index   int
	// At is the clock timestamp in seconds.
	At float64
}

// ErrCannotRetire reports a Retire against a host whose handle has no
// remove capability (e.g. a simulation stub).
var ErrCannotRetire = errors.New("orchestrator: host cannot retire NFs")

// Retire removes replica index of service svc on the named host — the
// scale-down counterpart of Instantiate. The call is synchronous: it
// returns once the host has drained and closed the replica (the paper's
// dynamic scaling scenarios, §3.3/§5.2). The freed VM joins the host's
// standby pool, modeling §5.2's "starting a new process in a stand-by
// VM": a later Instantiate reuses it at the fast-start delay.
func (o *Orchestrator) Retire(ctx context.Context, host string, svc flowtable.ServiceID, index int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	o.mu.Lock()
	h, ok := o.hosts[host]
	o.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, host)
	}
	r, ok := h.(Remover)
	if !ok {
		return fmt.Errorf("%w: %q", ErrCannotRetire, host)
	}
	if err := r.RemoveNF(svc, index); err != nil {
		return err
	}
	o.mu.Lock()
	o.standby[host]++
	o.retirements = append(o.retirements, Retirement{
		Host: host, Service: svc, Index: index, At: o.clock.Now(),
	})
	o.mu.Unlock()
	return nil
}

// Retirements returns a copy of the completed retirement log.
func (o *Orchestrator) Retirements() []Retirement {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Retirement(nil), o.retirements...)
}

// Pending returns the number of in-flight instantiations.
func (o *Orchestrator) Pending() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.pending
}
