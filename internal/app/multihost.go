package app

// This file is the multi-host half of the SDNFV Application: compiling
// the *global* service graph plus a placement assignment into per-host
// flow tables (Fig. 2, §3.2 — one controller managing a set of NF
// hosts). A hop between services on the same host compiles to the usual
// Forward action; a hop that crosses hosts compiles to an ActionOut onto
// the fabric link port wired toward the destination host, paired with a
// port-scoped ingress rule on that host that resumes the chain at the
// right Service-ID scope. Service-ID scoping therefore stays correct at
// every hop even though the packet changed machines in between.

import (
	"errors"
	"fmt"
	"sort"

	"sdnfv/internal/control"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/nf"
)

// Errors returned by deployment compilation.
var (
	ErrUnknownDatapath = errors.New("app: datapath not in deployment")
	ErrUnassigned      = errors.New("app: service not assigned to a host")
	ErrNoChannel       = errors.New("app: no fabric channel between hosts")
	ErrNoEdge          = errors.New("app: graph has no such edge")
)

// Channel is one unidirectional inter-host conduit: frames the source
// host transmits out port Out arrive on the destination host's NIC port
// In. The cluster fabric realizes channels as links; the compiler
// consumes one channel per graph edge that crosses the host pair, so a
// flow that visits the same host twice still enters by a distinct port
// each time and lands at the correct Service-ID scope.
type Channel struct {
	Out int
	In  int
}

// HostPair is an ordered (source, destination) datapath pair.
type HostPair struct {
	Src, Dst control.DatapathID
}

// Deployment maps a validated service graph onto a set of hosts: the
// placement assignment (which host runs each service — typically from
// the placement engine, §3.5), the traffic entry point, and the fabric
// channels available between host pairs. Compile turns it into per-host
// flow tables, and App.SetDeployment compiles and installs it. Each
// placement generation is a new Deployment, compiled in full; a
// Deployment is immutable once compiled.
type Deployment struct {
	// Graph is the global service graph spanning all hosts.
	Graph *graph.Graph
	// Assign maps every service vertex to the datapath hosting it.
	Assign map[flowtable.ServiceID]control.DatapathID
	// Ingress is the host where traffic enters the deployment, on NIC
	// port IngressPort (the graph's Source pseudo-vertex lives there).
	Ingress     control.DatapathID
	IngressPort int
	// EgressPort is the local NIC port a host transmits on when a chain
	// reaches Sink on it (the same port number on every host; each
	// host's egress binding decides where those frames go).
	EgressPort int
	// Channels lists the fabric conduits available per ordered host
	// pair, consumed in order by Compile — one per crossing graph edge.
	Channels map[HostPair][]Channel

	// edgeCh records the channel Compile allocated to each crossing
	// edge, for ChangeDefault translation at runtime.
	edgeCh map[[2]flowtable.ServiceID]Channel
}

// HostOf returns the datapath hosting service s (the Ingress host for
// the Source pseudo-vertex). Sink has no host — chains exit wherever
// their last service runs.
func (d *Deployment) HostOf(s flowtable.ServiceID) (control.DatapathID, bool) {
	if s == graph.Source {
		return d.Ingress, true
	}
	dp, ok := d.Assign[s]
	return dp, ok
}

// Hosts returns every datapath the deployment touches, ascending.
func (d *Deployment) Hosts() []control.DatapathID {
	seen := map[control.DatapathID]bool{d.Ingress: true}
	for _, dp := range d.Assign {
		seen[dp] = true
	}
	out := make([]control.DatapathID, 0, len(seen))
	for dp := range seen {
		out = append(out, dp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Compile validates the deployment and produces each host's flow table.
// Every graph edge is compiled — the default edge first (it becomes the
// rule's default action) and the alternatives after it, so runtime
// steering (ChangeDefault, Send-to) finds its target action already in
// the list, exactly as on a single host. Cross-host edges additionally
// emit the destination host's port-scoped ingress rule. Parallel
// segments are not collapsed across a deployment: fan-out sharing one
// packet copy is a single-host memory optimization (§4.2) with no
// cross-machine analogue, so deployed graphs dispatch sequentially.
func (d *Deployment) Compile() (map[control.DatapathID][]flowtable.Rule, error) {
	if d.Graph == nil {
		return nil, errors.New("app: deployment has no graph")
	}
	if err := d.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrGraphInvalid, err)
	}
	// Deterministic vertex order: Source, then services ascending.
	ids := []flowtable.ServiceID{graph.Source}
	for _, v := range d.Graph.Vertices() {
		ids = append(ids, v.Service)
		if _, ok := d.Assign[v.Service]; !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnassigned, v.Service)
		}
	}

	// Allocate one channel per crossing edge, in vertex-then-edge order
	// (default edge first — the same order the action lists use).
	used := map[HostPair]int{}
	d.edgeCh = map[[2]flowtable.ServiceID]Channel{}
	for _, u := range ids {
		src, _ := d.HostOf(u)
		for _, e := range d.Graph.Out(u) {
			if e.To == graph.Sink {
				continue
			}
			dst, _ := d.HostOf(e.To)
			if dst == src {
				continue
			}
			pair := HostPair{Src: src, Dst: dst}
			avail := d.Channels[pair]
			if used[pair] >= len(avail) {
				return nil, fmt.Errorf("%w: edge %s->%s needs channel %d of %s->%s but only %d exist",
					ErrNoChannel, u, e.To, used[pair]+1, src, dst, len(avail))
			}
			d.edgeCh[[2]flowtable.ServiceID{u, e.To}] = avail[used[pair]]
			used[pair]++
		}
	}

	tables := make(map[control.DatapathID][]flowtable.Rule)
	for _, dp := range d.Hosts() {
		tables[dp] = nil
	}
	for _, u := range ids {
		src, _ := d.HostOf(u)
		scope := u
		if u == graph.Source {
			scope = flowtable.Port(d.IngressPort)
		}
		edges := d.Graph.Out(u)
		if len(edges) == 0 {
			continue
		}
		acts := make([]flowtable.Action, 0, len(edges))
		for _, e := range edges {
			act, err := d.EdgeAction(u, e.To)
			if err != nil {
				return nil, err
			}
			acts = append(acts, act)
			if e.To != graph.Sink {
				if dst, _ := d.HostOf(e.To); dst != src {
					// The matching ingress rule: the frame arriving on the
					// channel's In port resumes the chain at e.To's scope.
					ch := d.edgeCh[[2]flowtable.ServiceID{u, e.To}]
					tables[dst] = append(tables[dst], flowtable.Rule{
						Scope:   flowtable.Port(ch.In),
						Match:   flowtable.MatchAll,
						Actions: []flowtable.Action{flowtable.Forward(e.To)},
					})
				}
			}
		}
		tables[src] = append(tables[src], flowtable.Rule{
			Scope:   scope,
			Match:   flowtable.MatchAll,
			Actions: acts,
		})
	}
	return tables, nil
}

// EdgeAction returns the action that implements graph edge from→to in
// from's host table: Out(EgressPort) when to is Sink, Forward(to) when
// the hosts coincide, and Out onto the allocated channel's egress port
// when the edge crosses hosts. Valid after Compile.
func (d *Deployment) EdgeAction(from, to flowtable.ServiceID) (flowtable.Action, error) {
	if to == graph.Sink {
		return flowtable.Out(d.EgressPort), nil
	}
	src, ok := d.HostOf(from)
	if !ok {
		return flowtable.Action{}, fmt.Errorf("%w: %s", ErrUnassigned, from)
	}
	dst, ok := d.HostOf(to)
	if !ok {
		return flowtable.Action{}, fmt.Errorf("%w: %s", ErrUnassigned, to)
	}
	if src == dst {
		return flowtable.Forward(to), nil
	}
	ch, ok := d.edgeCh[[2]flowtable.ServiceID{from, to}]
	if !ok {
		return flowtable.Action{}, fmt.Errorf("%w: %s->%s", ErrNoEdge, from, to)
	}
	return flowtable.Out(ch.Out), nil
}

// Downstream is the application's path back down to the data plane: a
// scoped rule update applied on one datapath's flow table. The cluster
// fabric implements it for in-process hosts; a wire implementation would
// ship a FLOW_MOD on the host's control channel.
type Downstream interface {
	// UpdateDefault rewrites the default action of the rules at scope
	// matching flows on datapath dp, constrained to actions the rules
	// already list (§3.4: only edges of the original service graph).
	UpdateDefault(dp control.DatapathID, scope flowtable.ServiceID, flows flowtable.Match, def flowtable.Action) error
}

// SetDeployment compiles d and installs it, replacing any previous
// deployment, and returns its per-host tables. From the moment it
// returns, CompileFlow answers and steering track d; on error the
// previous deployment stays installed. The compiled wildcard tables are
// cached; per-flow mode specializes them per request.
func (a *App) SetDeployment(d *Deployment) (map[control.DatapathID][]flowtable.Rule, error) {
	tables, err := d.Compile()
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.deployment = d
	a.deployed = tables
	return tables, nil
}

// SetDownstream installs the applier used to push translated rule
// updates down to the data plane when cross-layer messages re-route a
// deployed chain.
func (a *App) SetDownstream(ds Downstream) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.downstream = ds
}

// steerDeployment applies an accepted ChangeDefault to the deployment:
// the new default of S's rule on S's host becomes the action that
// implements the requested edge S->T — Forward for a co-located target,
// Out onto the fabric channel for a remote one (this is how a chain hop
// moves to another host at runtime), Out on the local egress port for a
// port target. The update is constrained to listed actions, so a
// translation the compiled table does not already allow cannot take
// effect.
func (a *App) steerDeployment(dep *Deployment, ds Downstream, cd nf.Message) error {
	var act flowtable.Action
	if cd.T.IsPort() {
		act = flowtable.Action{Type: flowtable.ActionOut, Dest: cd.T}
	} else {
		var err error
		act, err = dep.EdgeAction(cd.S, cd.T)
		if err != nil {
			return err
		}
	}
	dp, ok := dep.HostOf(cd.S)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnassigned, cd.S)
	}
	return ds.UpdateDefault(dp, cd.S, cd.Flows, act)
}
