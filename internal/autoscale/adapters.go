package autoscale

import (
	"context"
	"errors"
	"time"

	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/orchestrator"
)

// ServiceSource samples one service of a dataplane Host through the
// manager's per-replica telemetry (ReplicaStats).
type ServiceSource struct {
	Host    *dataplane.Host
	Service flowtable.ServiceID
	// Orch, when set, contributes its in-flight boot count as
	// Sample.Pending. (The orchestrator counts boots host-wide; with one
	// autoscaled service per orchestrator the figure is exact, otherwise
	// it overestimates pending capacity — the safe direction.)
	Orch *orchestrator.Orchestrator
}

// Sample implements Source.
func (s ServiceSource) Sample() Sample {
	reps := s.Host.ReplicaStats(s.Service)
	out := Sample{Replicas: len(reps)}
	var svcSum float64
	measured := 0
	for _, r := range reps {
		out.Backlog += r.QueueDepth
		out.Overflows += r.OverflowDrops
		if r.ServiceTimeNs > 0 {
			svcSum += r.ServiceTimeNs
			measured++
		}
	}
	if measured > 0 {
		out.ServiceTimeNs = svcSum / float64(measured)
	}
	if s.Orch != nil {
		out.Pending = s.Orch.Pending()
	}
	return out
}

// OrchestratorActuator scales a service through the NFV orchestrator:
// ScaleUp boots a new replica (Instantiate, standby pool permitting the
// fast-start path), ScaleDown retires the newest replica (Retire, which
// runs the host's flow-state-safe drain and returns the VM to the
// standby pool).
type OrchestratorActuator struct {
	Orch     *orchestrator.Orchestrator
	HostName string
	Host     *dataplane.Host
	Service  flowtable.ServiceID
	// NewNF builds the function backing each new replica.
	NewNF func() nf.BatchFunction
	// OnReady, when set, is forwarded to Instantiate.
	OnReady func(orchestrator.Launch)
}

// ErrNoReplica reports a scale-down with no replica left to retire.
var ErrNoReplica = errors.New("autoscale: no replica to retire")

// ScaleUp implements Actuator.
func (a OrchestratorActuator) ScaleUp(ctx context.Context) error {
	return a.Orch.Instantiate(ctx, a.HostName, a.Service, a.NewNF(), a.OnReady)
}

// ScaleDown implements Actuator: retire the replica with the highest
// stable index (the newest — LIFO keeps the long-lived replicas, which
// own the most flow state, in place).
func (a OrchestratorActuator) ScaleDown(ctx context.Context) error {
	reps := a.Host.ReplicaStats(a.Service)
	if len(reps) == 0 {
		return ErrNoReplica
	}
	newest := reps[0].Index
	for _, r := range reps[1:] {
		if r.Index > newest {
			newest = r.Index
		}
	}
	return a.Orch.Retire(ctx, a.HostName, a.Service, newest)
}

// RealClock implements Clock on the wall clock, with time zero at
// construction.
type RealClock struct {
	start time.Time
}

// NewRealClock returns a wall clock starting at zero now.
func NewRealClock() *RealClock { return &RealClock{start: time.Now()} }

// Now implements Clock.
func (c *RealClock) Now() float64 { return time.Since(c.start).Seconds() }

// After implements Clock.
func (c *RealClock) After(delay float64, fn func()) {
	time.AfterFunc(time.Duration(delay*float64(time.Second)), fn)
}
