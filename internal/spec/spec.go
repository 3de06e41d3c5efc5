// Package spec is the declarative half of the SDNFV management plane: a
// versioned deployment specification describing the desired state of a
// cluster — the service graph, which NF implementation backs each
// service, where each service may be placed, per-service autoscale
// bounds, and the inter-host link wiring. A Spec is loadable from JSON,
// validated as a whole, and diffable: two generations produce a typed
// change set, which is what the reconcile loop (internal/reconcile) and
// the operator surfaces (sdnfv-ctl apply/diff) consume.
//
// The paper's management plane (§3) issues imperative calls — boot this
// NF here, install that rule. A spec inverts that: callers describe the
// cluster they want, and the reconciler continuously converges the
// observed cluster onto it, so a dead host or a failed launch is drift
// to be corrected rather than a silently wrong cluster.
package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"sdnfv/internal/control"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/nf"
)

// Version is the spec schema version this package reads and writes.
const Version = 1

// Reserved edge endpoint names: "ingress" is the traffic entry (the
// graph's Source pseudo-vertex), "egress" the exit (Sink).
const (
	EndpointIngress = "ingress"
	EndpointEgress  = "egress"
)

// Errors returned by spec validation and lookup. Validate wraps each
// finding's detail around one of these sentinels so rejection causes
// stay matchable.
var (
	ErrVersion   = errors.New("spec: unsupported version")
	ErrInvalid   = errors.New("spec: invalid")
	ErrDangling  = errors.New("spec: dangling reference")
	ErrDuplicate = errors.New("spec: duplicate")
	ErrBounds    = errors.New("spec: bad autoscale bounds")
	ErrPortClash = errors.New("spec: overlapping port binds")
	ErrUnknownNF = errors.New("spec: unknown NF binding")
	ErrUnplaced  = errors.New("spec: no live placement candidate")
)

// Host names one NF host of the cluster and the datapath id it
// announces on its control channel.
type Host struct {
	Name     string `json:"name"`
	Datapath uint64 `json:"datapath"`
}

// Bounds are a service's autoscale replica bounds. The zero value means
// "exactly one replica, no autoscaling"; Validate normalizes it to
// {1, 1}.
type Bounds struct {
	Min int `json:"min"`
	Max int `json:"max"`
}

// Scaled reports whether the bounds leave the autoscaler room to act.
func (b Bounds) Scaled() bool { return b.Max > b.Min }

// FlowTimeouts are declarative flow-rule lifecycle defaults, in
// milliseconds. They apply at install time to exact-match rules whose
// FlowMods carry no explicit timeouts (see
// flowtable.Table.SetDefaultTimeouts): idle_ms expires a rule that saw
// no packet for the window, hard_ms expires it regardless of traffic.
// Zero means unset (inherit, or never expire); -1 is the explicit
// never-expire opt-out a per-service stanza uses to shadow a
// table-wide default.
type FlowTimeouts struct {
	IdleMs int `json:"idle_ms,omitempty"`
	HardMs int `json:"hard_ms,omitempty"`
}

// Durations converts the millisecond stanza to the flowtable's
// duration-typed defaults, mapping the -1 opt-out to the negative
// duration the table recognizes.
func (f *FlowTimeouts) Durations() (idle, hard time.Duration) {
	if f == nil {
		return 0, 0
	}
	conv := func(ms int) time.Duration {
		if ms < 0 {
			return -time.Millisecond
		}
		return time.Duration(ms) * time.Millisecond
	}
	return conv(f.IdleMs), conv(f.HardMs)
}

func (f *FlowTimeouts) validate(where string) error {
	if f == nil {
		return nil
	}
	for _, v := range []struct {
		name string
		ms   int
	}{{"idle_ms", f.IdleMs}, {"hard_ms", f.HardMs}} {
		if v.ms < -1 {
			return fmt.Errorf("%w: %s flow_timeouts.%s = %d (want >= -1; -1 opts out)", ErrInvalid, where, v.name, v.ms)
		}
	}
	return nil
}

// Service is one vertex of the service graph: the Service-ID scope it
// owns in the flow tables, the NF registry binding that implements it,
// the hosts it may be placed on (preference order — the reconciler
// places it on the first live candidate), and its autoscale bounds.
type Service struct {
	Name      string              `json:"name"`
	ID        flowtable.ServiceID `json:"id"`
	NF        string              `json:"nf"`
	ReadOnly  bool                `json:"read_only,omitempty"`
	Placement []string            `json:"placement"`
	Scale     Bounds              `json:"scale,omitempty"`
	// FlowTimeouts overrides the spec-wide lifecycle defaults for rules
	// installed at this service's scope.
	FlowTimeouts *FlowTimeouts `json:"flow_timeouts,omitempty"`
}

// Edge is one service-graph edge by endpoint name. From/To may name a
// service or the reserved endpoints "ingress"/"egress". Default marks
// the edge taken when no per-flow steering overrides it.
type Edge struct {
	From    string `json:"from"`
	To      string `json:"to"`
	Default bool   `json:"default,omitempty"`
}

// Endpoint is one end of a link: a NIC port on a named host.
type Endpoint struct {
	Host string `json:"host"`
	Port int    `json:"port"`
}

// Link is one bidirectional inter-host wire. Each direction is a fabric
// channel the deployment compiler may route a crossing chain hop over.
type Link struct {
	A Endpoint `json:"a"`
	B Endpoint `json:"b"`
}

// IngressSpec names where traffic enters the deployment.
type IngressSpec struct {
	Host string `json:"host"`
	Port int    `json:"port"`
}

// Spec is one generation of desired cluster state.
type Spec struct {
	Version    int         `json:"version"`
	Name       string      `json:"name"`
	Hosts      []Host      `json:"hosts"`
	Services   []Service   `json:"services"`
	Edges      []Edge      `json:"edges"`
	Ingress    IngressSpec `json:"ingress"`
	EgressPort int         `json:"egress_port"`
	Links      []Link      `json:"links,omitempty"`
	// FlowTimeouts are the cluster-wide flow-rule lifecycle defaults
	// applied to every host's table; per-service stanzas override them.
	FlowTimeouts *FlowTimeouts `json:"flow_timeouts,omitempty"`
}

// HasFlowLifecycle reports whether any lifecycle stanza (spec-wide or
// per-service) is present — hosts booted from such a spec must run the
// background eviction sweeper.
func (s *Spec) HasFlowLifecycle() bool {
	if s.FlowTimeouts != nil {
		return true
	}
	for i := range s.Services {
		if s.Services[i].FlowTimeouts != nil {
			return true
		}
	}
	return false
}

// Parse decodes a spec from JSON and validates it. Unknown fields are
// rejected, so a typo'd key fails loudly instead of silently deploying
// something else.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if err := checkTrailing(dec); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func checkTrailing(dec *json.Decoder) error {
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%w: trailing data after spec document", ErrInvalid)
	}
	return nil
}

// Marshal renders the spec as indented JSON (the canonical on-disk
// form; Parse(Marshal(s)) round-trips).
func (s *Spec) Marshal() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Validate checks the spec as a whole. It normalizes zero autoscale
// bounds to {1, 1} and an empty link list to nil (Marshal omits it),
// and rejects, among others: unsupported versions, duplicate
// host/service names or ids, dangling service references in edges and
// placements, min > max bounds, overlapping port binds, and service
// graphs the graph validator refuses (unreachable services, no default
// path, cycles on the default path).
func (s *Spec) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("%w: %d (want %d)", ErrVersion, s.Version, Version)
	}
	if s.Name == "" {
		return fmt.Errorf("%w: spec has no name", ErrInvalid)
	}
	if len(s.Hosts) == 0 {
		return fmt.Errorf("%w: spec has no hosts", ErrInvalid)
	}
	hostNames := make(map[string]bool, len(s.Hosts))
	dps := make(map[uint64]string, len(s.Hosts))
	for _, h := range s.Hosts {
		if h.Name == "" {
			return fmt.Errorf("%w: host with empty name", ErrInvalid)
		}
		if hostNames[h.Name] {
			return fmt.Errorf("%w: host %q", ErrDuplicate, h.Name)
		}
		hostNames[h.Name] = true
		if prev, clash := dps[h.Datapath]; clash {
			return fmt.Errorf("%w: hosts %q and %q share datapath %d", ErrDuplicate, prev, h.Name, h.Datapath)
		}
		dps[h.Datapath] = h.Name
	}

	if len(s.Services) == 0 {
		return fmt.Errorf("%w: spec has no services", ErrInvalid)
	}
	svcNames := make(map[string]bool, len(s.Services))
	svcIDs := make(map[flowtable.ServiceID]string, len(s.Services))
	for i := range s.Services {
		sv := &s.Services[i]
		if sv.Name == "" {
			return fmt.Errorf("%w: service with empty name", ErrInvalid)
		}
		if sv.Name == EndpointIngress || sv.Name == EndpointEgress {
			return fmt.Errorf("%w: service name %q is reserved", ErrInvalid, sv.Name)
		}
		if svcNames[sv.Name] {
			return fmt.Errorf("%w: service %q", ErrDuplicate, sv.Name)
		}
		svcNames[sv.Name] = true
		if sv.ID == graph.Source || sv.ID >= graph.Sink {
			return fmt.Errorf("%w: service %q id %d is reserved", ErrInvalid, sv.Name, sv.ID)
		}
		if prev, clash := svcIDs[sv.ID]; clash {
			return fmt.Errorf("%w: services %q and %q share id %d", ErrDuplicate, prev, sv.Name, sv.ID)
		}
		svcIDs[sv.ID] = sv.Name
		if sv.NF == "" {
			return fmt.Errorf("%w: service %q has no NF binding", ErrInvalid, sv.Name)
		}
		if len(sv.Placement) == 0 {
			return fmt.Errorf("%w: service %q has no placement candidates", ErrInvalid, sv.Name)
		}
		seen := map[string]bool{}
		for _, host := range sv.Placement {
			if !hostNames[host] {
				return fmt.Errorf("%w: service %q placed on unknown host %q", ErrDangling, sv.Name, host)
			}
			if seen[host] {
				return fmt.Errorf("%w: service %q lists host %q twice", ErrDuplicate, sv.Name, host)
			}
			seen[host] = true
		}
		// Zero bounds mean "one fixed replica".
		if sv.Scale == (Bounds{}) {
			sv.Scale = Bounds{Min: 1, Max: 1}
		}
		if sv.Scale.Min < 1 || sv.Scale.Max < sv.Scale.Min {
			return fmt.Errorf("%w: service %q min=%d max=%d", ErrBounds, sv.Name, sv.Scale.Min, sv.Scale.Max)
		}
		if err := sv.FlowTimeouts.validate(fmt.Sprintf("service %q", sv.Name)); err != nil {
			return err
		}
	}
	if err := s.FlowTimeouts.validate("spec"); err != nil {
		return err
	}

	if !hostNames[s.Ingress.Host] {
		return fmt.Errorf("%w: ingress host %q", ErrDangling, s.Ingress.Host)
	}
	if s.Ingress.Port < 0 || s.EgressPort < 0 {
		return fmt.Errorf("%w: negative ingress/egress port", ErrInvalid)
	}
	if s.Ingress.Port == s.EgressPort {
		return fmt.Errorf("%w: ingress port %d and egress port %d coincide on %q",
			ErrPortClash, s.Ingress.Port, s.EgressPort, s.Ingress.Host)
	}

	// Links: every endpoint on a known host, and no NIC port bound
	// twice — by another link, by the ingress port on the ingress host,
	// or by the egress port (reserved on every host).
	bound := map[Endpoint]string{
		{Host: s.Ingress.Host, Port: s.Ingress.Port}: "ingress",
	}
	for _, h := range s.Hosts {
		bound[Endpoint{Host: h.Name, Port: s.EgressPort}] = "egress"
	}
	if len(s.Links) == 0 {
		s.Links = nil
	}
	for _, l := range s.Links {
		if l.A == l.B {
			return fmt.Errorf("%w: link endpoints coincide at %s:%d", ErrInvalid, l.A.Host, l.A.Port)
		}
		for _, ep := range []Endpoint{l.A, l.B} {
			if !hostNames[ep.Host] {
				return fmt.Errorf("%w: link endpoint on unknown host %q", ErrDangling, ep.Host)
			}
			if ep.Port < 0 {
				return fmt.Errorf("%w: negative link port on %q", ErrInvalid, ep.Host)
			}
			if holder, clash := bound[ep]; clash {
				return fmt.Errorf("%w: %s:%d already bound by %s", ErrPortClash, ep.Host, ep.Port, holder)
			}
			bound[ep] = "link"
		}
	}

	// Edges: endpoints resolve, directionality respects the reserved
	// endpoints, at most one default per source. Reachability, default
	// paths, and cycles are the graph validator's business — build the
	// graph and let it judge.
	defaults := map[string]bool{}
	edgeSeen := map[[2]string]bool{}
	for _, e := range s.Edges {
		for _, name := range []string{e.From, e.To} {
			if name != EndpointIngress && name != EndpointEgress && !svcNames[name] {
				return fmt.Errorf("%w: edge %s->%s names unknown service %q", ErrDangling, e.From, e.To, name)
			}
		}
		if e.From == EndpointEgress {
			return fmt.Errorf("%w: edge out of egress", ErrInvalid)
		}
		if e.To == EndpointIngress {
			return fmt.Errorf("%w: edge into ingress", ErrInvalid)
		}
		if e.From == e.To {
			return fmt.Errorf("%w: self-edge on %q", ErrInvalid, e.From)
		}
		key := [2]string{e.From, e.To}
		if edgeSeen[key] {
			return fmt.Errorf("%w: edge %s->%s", ErrDuplicate, e.From, e.To)
		}
		edgeSeen[key] = true
		if e.Default {
			if defaults[e.From] {
				return fmt.Errorf("%w: two default edges out of %q", ErrDuplicate, e.From)
			}
			defaults[e.From] = true
		}
	}
	g, err := s.Graph()
	if err != nil {
		return err
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("%w: service graph: %v", ErrInvalid, err)
	}
	return nil
}

// Graph builds the service graph the spec describes, with "ingress"
// and "egress" mapped to the Source and Sink pseudo-vertices.
func (s *Spec) Graph() (*graph.Graph, error) {
	g := graph.New(s.Name)
	for _, sv := range s.Services {
		if err := g.AddVertex(graph.Vertex{Service: sv.ID, Name: sv.Name, ReadOnly: sv.ReadOnly}); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
	}
	resolve := func(name string) (flowtable.ServiceID, error) {
		switch name {
		case EndpointIngress:
			return graph.Source, nil
		case EndpointEgress:
			return graph.Sink, nil
		}
		if sv, ok := s.Service(name); ok {
			return sv.ID, nil
		}
		return 0, fmt.Errorf("%w: edge endpoint %q", ErrDangling, name)
	}
	for _, e := range s.Edges {
		from, err := resolve(e.From)
		if err != nil {
			return nil, err
		}
		to, err := resolve(e.To)
		if err != nil {
			return nil, err
		}
		if err := g.AddEdge(from, to, e.Default); err != nil {
			return nil, fmt.Errorf("%w: edge %s->%s: %v", ErrInvalid, e.From, e.To, err)
		}
	}
	return g, nil
}

// Service returns the named service.
func (s *Spec) Service(name string) (Service, bool) {
	for _, sv := range s.Services {
		if sv.Name == name {
			return sv, true
		}
	}
	return Service{}, false
}

// Datapath returns the datapath id of the named host.
func (s *Spec) Datapath(host string) (control.DatapathID, bool) {
	for _, h := range s.Hosts {
		if h.Name == host {
			return control.DatapathID(h.Datapath), true
		}
	}
	return 0, false
}

// HostNames lists the spec's hosts in declaration order.
func (s *Spec) HostNames() []string {
	out := make([]string, len(s.Hosts))
	for i, h := range s.Hosts {
		out[i] = h.Name
	}
	return out
}

// Place resolves the desired placement under the given liveness view:
// each service lands on the first candidate host for which alive
// returns true. Services with no live candidate are reported together
// under ErrUnplaced — partial placements are never returned, because a
// partially placed chain black-holes traffic at the gap.
func (s *Spec) Place(alive func(host string) bool) (map[string]string, error) {
	out := make(map[string]string, len(s.Services))
	var stuck []string
	for _, sv := range s.Services {
		placed := false
		for _, host := range sv.Placement {
			if alive(host) {
				out[sv.Name] = host
				placed = true
				break
			}
		}
		if !placed {
			stuck = append(stuck, sv.Name)
		}
	}
	if len(stuck) > 0 {
		sort.Strings(stuck)
		return nil, fmt.Errorf("%w: %v", ErrUnplaced, stuck)
	}
	return out, nil
}

// BindCheck verifies every service's NF binding resolves in reg —
// callers run it before applying a spec so a typo'd NF name fails at
// apply time, not mid-convergence.
func (s *Spec) BindCheck(reg *NFRegistry) error {
	for _, sv := range s.Services {
		if !reg.Has(sv.NF) {
			return fmt.Errorf("%w: service %q wants %q (have %v)", ErrUnknownNF, sv.Name, sv.NF, reg.Names())
		}
	}
	return nil
}

// NFRegistry maps spec NF binding names to the factories that build
// fresh NF instances. It is how a declarative spec names code: the
// process hosting the reconciler registers the implementations it
// ships, and the spec refers to them by name.
type NFRegistry struct {
	mu sync.Mutex
	m  map[string]func() nf.BatchFunction
}

// NewNFRegistry builds an empty registry.
func NewNFRegistry() *NFRegistry {
	return &NFRegistry{m: make(map[string]func() nf.BatchFunction)}
}

// Register binds name to a factory. Re-binding an existing name is an
// error — silently swapping implementations under an active spec is
// exactly the kind of ambient mutation specs exist to remove.
func (r *NFRegistry) Register(name string, factory func() nf.BatchFunction) error {
	if name == "" || factory == nil {
		return fmt.Errorf("%w: empty NF registration", ErrInvalid)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		return fmt.Errorf("%w: NF binding %q", ErrDuplicate, name)
	}
	r.m[name] = factory
	return nil
}

// Has reports whether name is bound.
func (r *NFRegistry) Has(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.m[name]
	return ok
}

// New builds a fresh NF instance for the named binding.
func (r *NFRegistry) New(name string) (nf.BatchFunction, error) {
	r.mu.Lock()
	factory, ok := r.m[name]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNF, name)
	}
	return factory(), nil
}

// Names lists the bound NF names, sorted.
func (r *NFRegistry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.m))
	for n := range r.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
