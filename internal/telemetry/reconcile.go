package telemetry

// Reconcile-loop telemetry: metrics and show/apply surfaces over the
// declarative-orchestration layer. /state/spec returns the active spec
// generation, /state/reconcile the loop's Status snapshot, and POST
// /apply/spec activates a new generation (the HTTP half of `sdnfv-ctl
// apply`). Like every collector here, reads go through the layer's
// snapshot accessors — never the packet path.

import (
	"context"
	"fmt"
	"sort"

	"sdnfv/internal/reconcile"
	"sdnfv/internal/spec"
)

// Show and apply paths registered by RegisterReconcile.
const (
	PathReconcile = "/state/reconcile"
	PathSpec      = "/state/spec"
	PathApplySpec = "/apply/spec"
)

// RegisterReconcile exposes the reconcile loop: sdnfv_reconcile_*
// metrics, the /state/spec and /state/reconcile snapshots, and the
// POST /apply/spec action. One reconciler per registry.
func RegisterReconcile(r *Registry, rec *reconcile.Reconciler) {
	r.shared("reconcile", func() any {
		r.MustRegister(CollectorFunc(func() []Family {
			st := rec.Status()
			b := newFamilyBuilder()
			var l []Label
			b.gauge("sdnfv_reconcile_generation", "Active spec generation (0 = none applied).", l, float64(st.Generation))
			conv := 0.0
			if st.Converged {
				conv = 1
			}
			b.gauge("sdnfv_reconcile_converged", "1 when the last tick observed zero drift.", l, conv)
			b.gauge("sdnfv_reconcile_drift_actions", "Drift actions observed on the last tick.", l, float64(len(st.Drift)))
			b.gauge("sdnfv_reconcile_convergence_seconds", "Duration of the last drift episode (drift observed to zero drift).", l, st.LastConvergeSec)
			b.counter("sdnfv_reconcile_ticks_total", "Reconcile cycles run.", l, float64(st.Ticks))
			b.counter("sdnfv_reconcile_drift_events_total", "Transitions from converged to drifted.", l, float64(st.DriftEvents))
			b.counter("sdnfv_reconcile_actions_total", "Actuator invocations by outcome.", []Label{{"outcome", "ok"}}, float64(st.ActionsOK))
			b.counter("sdnfv_reconcile_actions_total", "Actuator invocations by outcome.", []Label{{"outcome", "failed"}}, float64(st.ActionsFailed))
			b.counter("sdnfv_reconcile_queue_drops_total", "Drift actions dropped by the bounded work queue.", l, float64(st.QueueDrops))
			b.counter("sdnfv_reconcile_generations_total", "Spec generations applied.", l, float64(st.Generations))
			return b.families()
		}))
		r.MustRegisterShow(PathReconcile, func(context.Context) (any, error) {
			return rec.Status(), nil
		})
		r.MustRegisterShow(PathSpec, func(context.Context) (any, error) {
			sp, gen := rec.Spec()
			if sp == nil {
				return map[string]any{"generation": 0}, nil
			}
			return map[string]any{"generation": gen, "spec": sp}, nil
		})
		r.MustRegisterAction(PathApplySpec, func(_ context.Context, body []byte) (any, error) {
			sp, err := spec.Parse(body)
			if err != nil {
				return nil, fmt.Errorf("telemetry: apply spec: %w", err)
			}
			gen, cs, err := rec.Apply(sp)
			if err != nil {
				return nil, fmt.Errorf("telemetry: apply spec: %w", err)
			}
			return map[string]any{
				"generation": gen,
				"changes":    cs.Summary(),
			}, nil
		})
		return rec
	})
}

// RegisterStack registers everything a booted reconcile.Cluster owns —
// its hosts (by spec name), fabric links, in-process controller (absent
// under a remote southbound), reconcile loop, and the actuators' live
// autoscale loops — so a process that boots through reconcile.Boot
// exposes the whole stack with one call.
func RegisterStack(r *Registry, c *reconcile.Cluster) {
	names := make([]string, 0, len(c.Hosts))
	for name := range c.Hosts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		RegisterHost(r, name, c.Datapaths[name], c.Hosts[name])
	}
	RegisterCluster(r, c.Fabric)
	if c.Controller != nil {
		RegisterController(r, c.Controller)
	}
	RegisterReconcile(r, c.Reconciler)
	RegisterAutoscale(r, c.Actuators.Scalers)
}
