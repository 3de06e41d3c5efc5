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
	r.MustRegister(CollectorFunc(func() []Family {
		b := newFamilyBuilder()
		emitStats(b, "sdnfv_reconcile_", nil, rec.Status())
		return b.families()
	}))
}

// RegisterStack registers everything a booted reconcile.Cluster owns —
// its hosts (by spec name), fabric links, in-process controller (absent
// under a remote southbound), reconcile loop, and the actuators' live
// autoscale loops — so a process that boots through reconcile.Boot
// exposes the whole stack with one call.
func RegisterStack(r *Registry, c *reconcile.Cluster) {
	RegisterHosts(r, c.Hosts, c.Datapaths)
	RegisterCluster(r, c.Fabric)
	if c.Controller != nil {
		RegisterController(r, c.Controller)
	}
	RegisterReconcile(r, c.Reconciler)
	RegisterAutoscale(r, c.Actuators.Scalers)
}
