package reconcile

// Cluster-backed Observer and Actuators: the reconciler driving the
// real stack — fabric liveness and replica counts in, orchestrator
// boots/retirements, incremental app recompiles, and autoscale bounds
// out. This is the wiring that turns the paper's one-shot management
// calls into continuously converged state.

import (
	"context"
	"fmt"
	"sync"

	"sdnfv/internal/app"
	"sdnfv/internal/autoscale"
	"sdnfv/internal/cluster"
	"sdnfv/internal/control"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/nf"
	"sdnfv/internal/orchestrator"
	"sdnfv/internal/spec"
)

// DatapathsOf maps a spec's host names to their datapath ids.
func DatapathsOf(sp *spec.Spec) map[string]control.DatapathID {
	out := make(map[string]control.DatapathID, len(sp.Hosts))
	for _, h := range sp.Hosts {
		out[h.Name] = control.DatapathID(h.Datapath)
	}
	return out
}

// BuildDeployment compiles a spec plus a concrete assignment (service
// name → host name) into the app-layer deployment form: the spec's
// links become fabric channels (one per direction), the spec graph the
// global service graph.
func BuildDeployment(sp *spec.Spec, assign map[string]string) (*app.Deployment, error) {
	g, err := sp.Graph()
	if err != nil {
		return nil, err
	}
	dps := DatapathsOf(sp)
	depAssign := make(map[flowtable.ServiceID]control.DatapathID, len(sp.Services))
	for _, svc := range sp.Services {
		host, ok := assign[svc.Name]
		if !ok {
			return nil, fmt.Errorf("reconcile: service %q unassigned", svc.Name)
		}
		dp, ok := dps[host]
		if !ok {
			return nil, fmt.Errorf("reconcile: service %q assigned to unknown host %q", svc.Name, host)
		}
		depAssign[svc.ID] = dp
	}
	channels := map[app.HostPair][]app.Channel{}
	for _, l := range sp.Links {
		a, b := dps[l.A.Host], dps[l.B.Host]
		channels[app.HostPair{Src: a, Dst: b}] = append(channels[app.HostPair{Src: a, Dst: b}],
			app.Channel{Out: l.A.Port, In: l.B.Port})
		channels[app.HostPair{Src: b, Dst: a}] = append(channels[app.HostPair{Src: b, Dst: a}],
			app.Channel{Out: l.B.Port, In: l.A.Port})
	}
	return &app.Deployment{
		Graph:       g,
		Assign:      depAssign,
		Ingress:     dps[sp.Ingress.Host],
		IngressPort: sp.Ingress.Port,
		EgressPort:  sp.EgressPort,
		Channels:    channels,
	}, nil
}

// ClusterObserver reads the cluster the way telemetry does: fabric
// membership and liveness, per-host instance registries. Cold-path
// only.
type ClusterObserver struct {
	Fabric *cluster.Fabric
	// Datapaths maps spec host names to datapaths (DatapathsOf).
	Datapaths map[string]control.DatapathID
}

// Observe implements Observer.
func (o ClusterObserver) Observe() Observation {
	out := Observation{Hosts: make(map[string]HostState, len(o.Datapaths))}
	for name, dp := range o.Datapaths {
		hs := HostState{Alive: o.Fabric.Alive(dp)}
		if hs.Alive {
			if h, ok := o.Fabric.Host(dp); ok {
				reps := map[flowtable.ServiceID]int{}
				for _, inst := range h.Instances() {
					reps[inst.Service]++
				}
				hs.Replicas = reps
			}
		}
		out.Hosts[name] = hs
	}
	return out
}

type scalerEntry struct {
	host string
	id   flowtable.ServiceID
	ctl  *autoscale.Controller
}

// ClusterActuators converges the real stack: boots and retirements go
// through the NFV orchestrator (async VM-boot model, standby pool,
// flow-state-safe drains), routing changes through the application's
// incremental recompile plus tracked rule replacement on the fabric,
// and autoscale bounds onto per-service policy loops that it owns —
// recreating a service's loop on its new host after a failover, which
// is how autoscale "resumes within spec bounds".
type ClusterActuators struct {
	Fabric *cluster.Fabric
	// App compiles routing for Reroute. Nil means routing is owned by a
	// remote controller (rules arrive on miss) and Reroute is a no-op.
	App   *app.App
	Orch  *orchestrator.Orchestrator
	NFs   *spec.NFRegistry
	Clock Clock
	// Scale templates the per-service policy loops (bounds come from
	// the spec per service; Min/Max here are ignored).
	Scale autoscale.Config
	// Datapaths maps spec host names to datapaths (DatapathsOf).
	Datapaths map[string]control.DatapathID

	mu        sync.Mutex
	installed map[control.DatapathID][]uint64
	scalers   map[string]*scalerEntry
}

func (a *ClusterActuators) dp(host string) (control.DatapathID, error) {
	dp, ok := a.Datapaths[host]
	if !ok {
		return 0, fmt.Errorf("reconcile: unknown host %q", host)
	}
	return dp, nil
}

// Place implements Actuators: boot one replica of svc on host through
// the orchestrator, and make sure the service's autoscaler runs there
// with spec bounds.
func (a *ClusterActuators) Place(ctx context.Context, sp *spec.Spec, svc spec.Service, host string) error {
	dp, err := a.dp(host)
	if err != nil {
		return err
	}
	if !a.Fabric.Alive(dp) {
		return fmt.Errorf("reconcile: host %q is dead", host)
	}
	fn, err := a.NFs.New(svc.NF)
	if err != nil {
		return err
	}
	if err := a.Orch.Instantiate(ctx, host, svc.ID, fn, nil); err != nil {
		return err
	}
	return a.ensureScaler(sp, svc, host)
}

// Retire implements Actuators: drain the newest replica of svc on host.
func (a *ClusterActuators) Retire(ctx context.Context, _ *spec.Spec, svc spec.Service, host string) error {
	dp, err := a.dp(host)
	if err != nil {
		return err
	}
	h, ok := a.Fabric.Host(dp)
	if !ok {
		return fmt.Errorf("reconcile: no fabric member for %q", host)
	}
	reps := h.ReplicaStats(svc.ID)
	if len(reps) == 0 {
		return nil // already gone — converged by someone else
	}
	newest := reps[0].Index
	for _, r := range reps[1:] {
		if r.Index > newest {
			newest = r.Index
		}
	}
	return a.Orch.Retire(ctx, host, svc.ID, newest)
}

// Reroute implements Actuators: recompile the deployment incrementally
// for the new assignment and swap rules on exactly the hosts whose
// tables changed (dead hosts are skipped — their rules died with them).
func (a *ClusterActuators) Reroute(_ context.Context, sp *spec.Spec, assign map[string]string) error {
	if a.App == nil {
		return nil
	}
	d, err := BuildDeployment(sp, assign)
	if err != nil {
		return err
	}
	tables, changed, err := a.App.UpdateDeployment(d)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.installed == nil {
		a.installed = map[control.DatapathID][]uint64{}
	}
	for _, dp := range changed {
		if !a.Fabric.Alive(dp) {
			delete(a.installed, dp)
			continue
		}
		ids, err := a.Fabric.ReplaceRules(dp, a.installed[dp], tables[dp])
		if err != nil {
			return err
		}
		a.installed[dp] = ids
	}
	return nil
}

// SetBounds implements Actuators: apply svc's spec bounds to its policy
// loop on host, creating (or moving) the loop as needed.
func (a *ClusterActuators) SetBounds(_ context.Context, sp *spec.Spec, svc spec.Service, host string) error {
	return a.ensureScaler(sp, svc, host)
}

// ensureScaler guarantees svc's autoscale loop runs on host with spec
// bounds. Services pinned by the spec (Min == Max) get no loop — the
// reconciler itself holds their replica count. A loop on the wrong host
// (failover) is stopped and rebuilt on the new one.
func (a *ClusterActuators) ensureScaler(sp *spec.Spec, svc spec.Service, host string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.scalers == nil {
		a.scalers = map[string]*scalerEntry{}
	}
	ent := a.scalers[svc.Name]
	if !svc.Scale.Scaled() {
		if ent != nil {
			ent.ctl.Stop()
			delete(a.scalers, svc.Name)
		}
		return nil
	}
	if ent != nil && ent.host == host {
		return ent.ctl.SetBounds(svc.Scale.Min, svc.Scale.Max)
	}
	if ent != nil {
		ent.ctl.Stop()
		delete(a.scalers, svc.Name)
	}
	dp, err := a.dp(host)
	if err != nil {
		return err
	}
	h, ok := a.Fabric.Host(dp)
	if !ok {
		return fmt.Errorf("reconcile: no fabric member for %q", host)
	}
	cfg := a.Scale
	cfg.Min, cfg.Max = svc.Scale.Min, svc.Scale.Max
	name, id := svc.NF, svc.ID
	ctl := autoscale.New(cfg,
		autoscale.ServiceSource{Host: h, Service: id, Orch: a.Orch},
		autoscale.OrchestratorActuator{
			Orch: a.Orch, HostName: host, Host: h, Service: id,
			NewNF: func() nf.BatchFunction {
				fn, err := a.NFs.New(name)
				if err != nil {
					return nil
				}
				return fn
			},
		},
		a.Clock)
	ctl.Start()
	a.scalers[svc.Name] = &scalerEntry{host: host, id: id, ctl: ctl}
	return nil
}

// Scaler returns svc's policy loop and the host it runs on (nil, ""
// when the service has none).
func (a *ClusterActuators) Scaler(service string) (*autoscale.Controller, string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ent, ok := a.scalers[service]; ok {
		return ent.ctl, ent.host
	}
	return nil, ""
}

// Scalers snapshots the live policy loops by the service scope each one
// scales — what telemetry reads at scrape time, so loops the reconciler
// creates, moves or removes later show up without re-registration.
func (a *ClusterActuators) Scalers() map[flowtable.ServiceID]*autoscale.Controller {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[flowtable.ServiceID]*autoscale.Controller, len(a.scalers))
	for _, ent := range a.scalers {
		out[ent.id] = ent.ctl
	}
	return out
}

// Close stops every policy loop the actuators own. The stopped loops
// stay readable (Scaler, Scalers) so a final report can include them.
func (a *ClusterActuators) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, ent := range a.scalers {
		ent.ctl.Stop()
	}
}

var (
	_ Observer  = ClusterObserver{}
	_ Actuators = (*ClusterActuators)(nil)
)
