package spec

// Diffing two spec generations into a typed change set. The change set
// is what operators review (sdnfv-ctl diff) and what apply responses
// report (Reconciler.Apply returns it). It does not drive convergence:
// the reconcile loop derives its actions from observing the cluster
// against the whole active spec (computeDrift), so the diff is a report,
// never the plan. Output ordering is deterministic (sorted by name)
// regardless of declaration order in either spec, so the same pair of
// specs always renders the same diff.

import (
	"fmt"
	"sort"
	"strings"
)

// PlacementChange records a service whose candidate host list changed.
type PlacementChange struct {
	Service string   `json:"service"`
	From    []string `json:"from"`
	To      []string `json:"to"`
}

// BoundsChange records a service whose autoscale bounds changed.
type BoundsChange struct {
	Service string `json:"service"`
	From    Bounds `json:"from"`
	To      Bounds `json:"to"`
}

// NFChange records a service whose NF binding (or read-only marking)
// changed.
type NFChange struct {
	Service string `json:"service"`
	From    string `json:"from"`
	To      string `json:"to"`
}

// EdgeRef identifies one service-graph edge in a change set.
type EdgeRef struct {
	From    string `json:"from"`
	To      string `json:"to"`
	Default bool   `json:"default,omitempty"`
}

// LinkRef identifies one link in a change set, endpoints in canonical
// order.
type LinkRef struct {
	A Endpoint `json:"a"`
	B Endpoint `json:"b"`
}

// ChangeSet is the typed difference between two spec generations.
type ChangeSet struct {
	AddedHosts      []string          `json:"added_hosts,omitempty"`
	RemovedHosts    []string          `json:"removed_hosts,omitempty"`
	AddedServices   []string          `json:"added_services,omitempty"`
	RemovedServices []string          `json:"removed_services,omitempty"`
	Placement       []PlacementChange `json:"placement,omitempty"`
	Bounds          []BoundsChange    `json:"bounds,omitempty"`
	NFs             []NFChange        `json:"nfs,omitempty"`
	AddedEdges      []EdgeRef         `json:"added_edges,omitempty"`
	RemovedEdges    []EdgeRef         `json:"removed_edges,omitempty"`
	AddedLinks      []LinkRef         `json:"added_links,omitempty"`
	RemovedLinks    []LinkRef         `json:"removed_links,omitempty"`
	IngressChanged  bool              `json:"ingress_changed,omitempty"`
	EgressChanged   bool              `json:"egress_changed,omitempty"`
	// FlowTimeoutsChanged is set when the spec-wide or any surviving
	// service's flow_timeouts stanza differs. Timeouts apply at rule
	// install time, so existing rules keep their old lease until they
	// churn; the reconciler treats this as host-config drift.
	FlowTimeoutsChanged bool `json:"flow_timeouts_changed,omitempty"`
}

// Empty reports whether the change set contains no changes.
func (c *ChangeSet) Empty() bool {
	return len(c.AddedHosts) == 0 && len(c.RemovedHosts) == 0 &&
		len(c.AddedServices) == 0 && len(c.RemovedServices) == 0 &&
		len(c.Placement) == 0 && len(c.Bounds) == 0 && len(c.NFs) == 0 &&
		len(c.AddedEdges) == 0 && len(c.RemovedEdges) == 0 &&
		len(c.AddedLinks) == 0 && len(c.RemovedLinks) == 0 &&
		!c.IngressChanged && !c.EgressChanged && !c.FlowTimeoutsChanged
}

// Summary renders the change set as human-readable lines, one per
// change, in a stable order.
func (c *ChangeSet) Summary() []string {
	var out []string
	for _, h := range c.AddedHosts {
		out = append(out, "+ host "+h)
	}
	for _, h := range c.RemovedHosts {
		out = append(out, "- host "+h)
	}
	for _, s := range c.AddedServices {
		out = append(out, "+ service "+s)
	}
	for _, s := range c.RemovedServices {
		out = append(out, "- service "+s)
	}
	for _, p := range c.Placement {
		out = append(out, fmt.Sprintf("~ placement %s: %v -> %v", p.Service, p.From, p.To))
	}
	for _, b := range c.Bounds {
		out = append(out, fmt.Sprintf("~ scale %s: [%d,%d] -> [%d,%d]",
			b.Service, b.From.Min, b.From.Max, b.To.Min, b.To.Max))
	}
	for _, n := range c.NFs {
		out = append(out, fmt.Sprintf("~ nf %s: %s -> %s", n.Service, n.From, n.To))
	}
	for _, e := range c.AddedEdges {
		out = append(out, "+ edge "+edgeLabel(e))
	}
	for _, e := range c.RemovedEdges {
		out = append(out, "- edge "+edgeLabel(e))
	}
	for _, l := range c.AddedLinks {
		out = append(out, "+ link "+linkLabel(l))
	}
	for _, l := range c.RemovedLinks {
		out = append(out, "- link "+linkLabel(l))
	}
	if c.IngressChanged {
		out = append(out, "~ ingress")
	}
	if c.EgressChanged {
		out = append(out, "~ egress port")
	}
	if c.FlowTimeoutsChanged {
		out = append(out, "~ flow timeouts")
	}
	return out
}

// String renders the summary joined by newlines ("(no changes)" when
// empty).
func (c *ChangeSet) String() string {
	lines := c.Summary()
	if len(lines) == 0 {
		return "(no changes)"
	}
	return strings.Join(lines, "\n")
}

func edgeLabel(e EdgeRef) string {
	l := e.From + "->" + e.To
	if e.Default {
		l += " (default)"
	}
	return l
}

func linkLabel(l LinkRef) string {
	return fmt.Sprintf("%s:%d<->%s:%d", l.A.Host, l.A.Port, l.B.Host, l.B.Port)
}

// canonLink orders a link's endpoints deterministically so the same
// wire declared in either direction diffs as the same link.
func canonLink(l Link) LinkRef {
	a, b := l.A, l.B
	if b.Host < a.Host || (b.Host == a.Host && b.Port < a.Port) {
		a, b = b, a
	}
	return LinkRef{A: a, B: b}
}

// Diff computes the typed change set turning old into new. Both specs
// must already have passed Validate (Diff relies on name uniqueness).
func Diff(oldSpec, newSpec *Spec) *ChangeSet {
	c := &ChangeSet{}

	oldHosts := map[string]Host{}
	for _, h := range oldSpec.Hosts {
		oldHosts[h.Name] = h
	}
	newHosts := map[string]Host{}
	for _, h := range newSpec.Hosts {
		newHosts[h.Name] = h
	}
	for name, nh := range newHosts {
		oh, ok := oldHosts[name]
		if !ok || oh.Datapath != nh.Datapath {
			c.AddedHosts = append(c.AddedHosts, name)
		}
	}
	for name, oh := range oldHosts {
		nh, ok := newHosts[name]
		if !ok || nh.Datapath != oh.Datapath {
			c.RemovedHosts = append(c.RemovedHosts, name)
		}
	}
	sort.Strings(c.AddedHosts)
	sort.Strings(c.RemovedHosts)

	oldSvcs := map[string]Service{}
	for _, sv := range oldSpec.Services {
		oldSvcs[sv.Name] = sv
	}
	newSvcs := map[string]Service{}
	for _, sv := range newSpec.Services {
		newSvcs[sv.Name] = sv
	}
	for name, nsv := range newSvcs {
		osv, ok := oldSvcs[name]
		if !ok || osv.ID != nsv.ID {
			// An id change re-scopes every rule: treat as remove+add.
			c.AddedServices = append(c.AddedServices, name)
			continue
		}
		if !equalStrings(osv.Placement, nsv.Placement) {
			c.Placement = append(c.Placement, PlacementChange{
				Service: name,
				From:    append([]string(nil), osv.Placement...),
				To:      append([]string(nil), nsv.Placement...),
			})
		}
		if osv.Scale != nsv.Scale {
			c.Bounds = append(c.Bounds, BoundsChange{Service: name, From: osv.Scale, To: nsv.Scale})
		}
		if osv.NF != nsv.NF || osv.ReadOnly != nsv.ReadOnly {
			c.NFs = append(c.NFs, NFChange{Service: name, From: nfLabel(osv), To: nfLabel(nsv)})
		}
		if !equalFlowTimeouts(osv.FlowTimeouts, nsv.FlowTimeouts) {
			c.FlowTimeoutsChanged = true
		}
	}
	for name, osv := range oldSvcs {
		nsv, ok := newSvcs[name]
		if !ok || nsv.ID != osv.ID {
			c.RemovedServices = append(c.RemovedServices, name)
		}
	}
	sort.Strings(c.AddedServices)
	sort.Strings(c.RemovedServices)
	sort.Slice(c.Placement, func(i, j int) bool { return c.Placement[i].Service < c.Placement[j].Service })
	sort.Slice(c.Bounds, func(i, j int) bool { return c.Bounds[i].Service < c.Bounds[j].Service })
	sort.Slice(c.NFs, func(i, j int) bool { return c.NFs[i].Service < c.NFs[j].Service })

	oldEdges := map[EdgeRef]bool{}
	for _, e := range oldSpec.Edges {
		oldEdges[EdgeRef(e)] = true
	}
	newEdges := map[EdgeRef]bool{}
	for _, e := range newSpec.Edges {
		newEdges[EdgeRef(e)] = true
	}
	for e := range newEdges {
		if !oldEdges[e] {
			c.AddedEdges = append(c.AddedEdges, e)
		}
	}
	for e := range oldEdges {
		if !newEdges[e] {
			c.RemovedEdges = append(c.RemovedEdges, e)
		}
	}
	sortEdges(c.AddedEdges)
	sortEdges(c.RemovedEdges)

	oldLinks := map[LinkRef]bool{}
	for _, l := range oldSpec.Links {
		oldLinks[canonLink(l)] = true
	}
	newLinks := map[LinkRef]bool{}
	for _, l := range newSpec.Links {
		newLinks[canonLink(l)] = true
	}
	for l := range newLinks {
		if !oldLinks[l] {
			c.AddedLinks = append(c.AddedLinks, l)
		}
	}
	for l := range oldLinks {
		if !newLinks[l] {
			c.RemovedLinks = append(c.RemovedLinks, l)
		}
	}
	sortLinks(c.AddedLinks)
	sortLinks(c.RemovedLinks)

	c.IngressChanged = oldSpec.Ingress != newSpec.Ingress
	c.EgressChanged = oldSpec.EgressPort != newSpec.EgressPort
	if !equalFlowTimeouts(oldSpec.FlowTimeouts, newSpec.FlowTimeouts) {
		c.FlowTimeoutsChanged = true
	}
	return c
}

// equalFlowTimeouts compares two optional stanzas by value; nil equals
// only nil (an explicit all-zero stanza is a deliberate statement).
func equalFlowTimeouts(a, b *FlowTimeouts) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

func nfLabel(sv Service) string {
	if sv.ReadOnly {
		return sv.NF + " (ro)"
	}
	return sv.NF
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortEdges(es []EdgeRef) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		if es[i].To != es[j].To {
			return es[i].To < es[j].To
		}
		return !es[i].Default && es[j].Default
	})
}

func sortLinks(ls []LinkRef) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].A != ls[j].A {
			return ls[i].A.Host < ls[j].A.Host ||
				(ls[i].A.Host == ls[j].A.Host && ls[i].A.Port < ls[j].A.Port)
		}
		return ls[i].B.Host < ls[j].B.Host ||
			(ls[i].B.Host == ls[j].B.Host && ls[i].B.Port < ls[j].B.Port)
	})
}
