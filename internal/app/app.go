// Package app implements the SDNFV Application — the top tier of the
// control hierarchy (Fig. 2). It owns the service-graph registry and the
// mapping of flow classes to graphs, drives the SDN Controller (rule
// compilation for new flows) and the NFV Orchestrator (instantiating NFs),
// and validates cross-layer messages arriving from NF Managers before
// they are allowed to affect other hosts (§3.4 "Cross-Layer Control").
//
// App implements control.Northbound, so attaching the application tier
// to a controller is one typed call:
//
//	ctl.SetNorthbound(app.New(app.Config{...}))
package app

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"sdnfv/internal/control"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
)

// GraphSelector maps a new flow to the name of the service graph that
// should process it. Empty string selects the registry's default graph.
type GraphSelector func(scope flowtable.ServiceID, key packet.FlowKey) string

// Config tunes the application.
type Config struct {
	// IngressPort / EgressPort are used when compiling graphs to rules.
	IngressPort int
	EgressPort  int
	// Selector routes flows to graphs; nil always selects the default.
	Selector GraphSelector
	// TrustNFs disables validation of cross-layer messages (trusted NFs
	// may rewrite anything the graph allows; untrusted ones are checked
	// against the graph's edge set, §3.4).
	TrustNFs bool
	// WildcardRules selects the paper's pre-population mode: compiled
	// rules match all flows. The default (false) is per-flow mode,
	// specializing every rule to the requesting flow's exact 5-tuple.
	WildcardRules bool
}

// App is the SDNFV Application.
type App struct {
	cfg Config

	mu           sync.Mutex
	graphs       map[string]*graph.Graph
	templates    map[*graph.Graph]template
	defGraph     string
	msgLog       []LoggedMessage
	policyKV     map[string]any
	listeners    []func(dp control.DatapathID, src flowtable.ServiceID, m nf.Message)
	flowsRemoved uint64

	// deployment, when set, switches the application to multi-host mode:
	// CompileFlow answers with the requesting datapath's slice of the
	// compiled deployment, and accepted ChangeDefault messages are
	// translated to per-host actions and pushed through downstream. Each
	// datapath's table in deployed is that host's rule template.
	deployment *Deployment
	deployed   map[control.DatapathID][]flowtable.Rule
	downstream Downstream
}

// template is a registered graph's compiled rules, current while the
// graph's generation is gen. The rules are never modified once stored:
// stamp copies them for each flow.
type template struct {
	gen   uint64
	rules []flowtable.Rule
}

// LoggedMessage is one validated cross-layer message.
type LoggedMessage struct {
	// Host is the datapath whose NF Manager forwarded the message (zero
	// for anonymous single-host deployments).
	Host control.DatapathID
	Src  flowtable.ServiceID
	Msg  nf.Message
	// Accepted reports whether validation allowed the message.
	Accepted bool
	// Reason explains a rejection.
	Reason string
}

// New builds an application.
func New(cfg Config) *App {
	return &App{
		cfg:       cfg,
		graphs:    make(map[string]*graph.Graph),
		templates: make(map[*graph.Graph]template),
		policyKV:  make(map[string]any),
	}
}

// Errors returned by App operations.
var (
	ErrNoGraph        = errors.New("app: no such service graph")
	ErrGraphInvalid   = errors.New("app: service graph failed validation")
	ErrDuplicateGraph = errors.New("app: duplicate graph name")
)

// RegisterGraph validates and registers g; the first registered graph
// becomes the default.
func (a *App) RegisterGraph(g *graph.Graph) error {
	if err := g.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrGraphInvalid, err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.graphs[g.Name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateGraph, g.Name)
	}
	a.graphs[g.Name] = g
	if a.defGraph == "" {
		a.defGraph = g.Name
	}
	return nil
}

// Graph returns the named graph ("" = default).
func (a *App) Graph(name string) (*graph.Graph, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if name == "" {
		name = a.defGraph
	}
	g, ok := a.graphs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoGraph, name)
	}
	return g, nil
}

// CompileRules picks the graph for the flow and compiles it to host
// rules. The compiled rules match all flows (wildcard) — the paper's
// pre-population mode — unless exact is true, in which case they are
// specialized to the flow's exact 5-tuple (per-flow mode). A graph is
// compiled once per generation; each call stamps a copy of the result.
func (a *App) CompileRules(scope flowtable.ServiceID, key packet.FlowKey, exact bool) ([]flowtable.Rule, error) {
	name := ""
	if a.cfg.Selector != nil {
		name = a.cfg.Selector(scope, key)
	}
	g, err := a.Graph(name)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	t, ok := a.templates[g]
	if !ok || t.gen != g.Generation() {
		// Rules re-validates: a graph edited since registration fails
		// here, as it would have on a fresh compile.
		t = template{gen: g.Generation()}
		if t.rules, err = g.Rules(a.cfg.IngressPort, a.cfg.EgressPort); err == nil {
			a.templates[g] = t
		}
	}
	a.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return stamp(t.rules, key, exact), nil
}

// stamp returns a caller-owned copy of the rule template tmpl, matching
// key's exact 5-tuple when exact is set. It makes one allocation: the
// rules' Actions stay shared with the template, and every consumer
// treats them as read-only (the flow table copies them on install).
func stamp(tmpl []flowtable.Rule, key packet.FlowKey, exact bool) []flowtable.Rule {
	rules := slices.Clone(tmpl)
	if exact {
		m := flowtable.ExactMatch(key)
		for i := range rules {
			rules[i].Match = m
		}
	}
	return rules
}

// CompileFlow implements control.Northbound: the rule compiler the SDN
// controller invokes per admitted PacketIn, in the specialization mode
// selected by Config.WildcardRules. With a deployment installed the
// compilation is scoped to the requesting datapath: the host receives
// its own slice of the global service graph (cross-host hops as egress
// actions onto fabric link ports), never another host's rules.
func (a *App) CompileFlow(_ context.Context, dp control.DatapathID, scope flowtable.ServiceID, key packet.FlowKey) ([]flowtable.Rule, error) {
	a.mu.Lock()
	deployed := a.deployed
	a.mu.Unlock()
	if deployed != nil {
		rules, ok := deployed[dp]
		if !ok {
			return nil, fmt.Errorf("%w: %s not in deployment", ErrUnknownDatapath, dp)
		}
		return stamp(rules, key, !a.cfg.WildcardRules), nil
	}
	return a.CompileRules(scope, key, !a.cfg.WildcardRules)
}

// Subscribe registers a listener for accepted cross-layer messages; dp
// is the datapath whose manager forwarded the message.
func (a *App) Subscribe(fn func(dp control.DatapathID, src flowtable.ServiceID, m nf.Message)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.listeners = append(a.listeners, fn)
}

// HandleNFMessage implements control.Northbound: it validates a
// cross-layer message against the service graphs and records it with
// the emitting host's identity. Refusals are reported as errors
// wrapping control.ErrRejected with the reason, and every verdict lands
// in the message log. Validation enforces the §3.4 constraint that NFs
// may only steer flows along edges defined in the original service
// graph; with a deployment installed it additionally checks that the
// emitting service is actually placed on the reporting host, and an
// accepted ChangeDefault is translated to its per-host actions and
// pushed to the affected datapath through the downstream applier (the
// cross-host reroute path).
func (a *App) HandleNFMessage(_ context.Context, dp control.DatapathID, src flowtable.ServiceID, m nf.Message) error {
	accepted, reason := a.validate(dp, src, m)
	a.mu.Lock()
	dep, ds := a.deployment, a.downstream
	a.mu.Unlock()
	if accepted && m.Kind == nf.MsgChangeDefault && dep != nil && ds != nil {
		// Steer BEFORE recording the verdict: a translated update the
		// data plane refuses means the reroute did not take effect, and
		// the log must not claim otherwise (nor may subscribers be told
		// it happened).
		if err := a.steerDeployment(dep, ds, m); err != nil {
			accepted, reason = false, fmt.Sprintf("steering failed: %v", err)
		}
	}
	a.mu.Lock()
	a.msgLog = append(a.msgLog, LoggedMessage{Host: dp, Src: src, Msg: m, Accepted: accepted, Reason: reason})
	if accepted && m.Kind == nf.MsgData {
		a.policyKV[m.Key] = m.Value
	}
	listeners := make([]func(control.DatapathID, flowtable.ServiceID, nf.Message), len(a.listeners))
	copy(listeners, a.listeners)
	a.mu.Unlock()
	if !accepted {
		return fmt.Errorf("%w: %s", control.ErrRejected, reason)
	}
	for _, fn := range listeners {
		fn(dp, src, m)
	}
	return nil
}

func (a *App) validate(dp control.DatapathID, src flowtable.ServiceID, m nf.Message) (bool, string) {
	if err := control.Validate(m); err != nil {
		return false, fmt.Sprintf("invalid message from %s: %v", src, err)
	}
	a.mu.Lock()
	dep := a.deployment
	a.mu.Unlock()
	if dep != nil && !src.IsPort() {
		// Host attribution check: an NF Manager may only speak for
		// services the placement put on it — a message claiming to come
		// from a service hosted elsewhere is spoofed or misrouted.
		if home, ok := dep.HostOf(src); !ok || home != dp {
			return false, fmt.Sprintf("service %s is not placed on %s", src, dp)
		}
	}
	if a.cfg.TrustNFs || m.Kind == nf.MsgData {
		return true, ""
	}
	a.mu.Lock()
	graphs := make([]*graph.Graph, 0, len(a.graphs))
	for _, g := range a.graphs {
		graphs = append(graphs, g)
	}
	a.mu.Unlock()
	if m.Kind != nf.MsgChangeDefault {
		// SkipMe and RequestMe (the kinds Validate leaves) name one
		// service, which some graph must contain.
		return a.validateVertex(graphs, m.S)
	}
	// The new default S->T must be an edge in some registered graph. A
	// port-encoded T is an egress link (the Fig. 8 reroute case); graphs
	// model egress as the Sink pseudo-vertex, so it is legal iff S may
	// exit the graph.
	want := m.T
	if m.T.IsPort() {
		want = graph.Sink
	}
	for _, g := range graphs {
		for _, e := range g.Out(m.S) {
			if e.To == want {
				return true, ""
			}
		}
	}
	return false, fmt.Sprintf("no graph defines edge %s->%s", m.S, m.T)
}

func (a *App) validateVertex(graphs []*graph.Graph, s flowtable.ServiceID) (bool, string) {
	for _, g := range graphs {
		if _, ok := g.Vertex(s); ok {
			return true, ""
		}
	}
	return false, fmt.Sprintf("service %s not in any graph", s)
}

// HandleFlowRemoved implements control.Northbound: the application tier
// records eviction notices so the global flow→graph view stays honest —
// a removed flow will raise a fresh PacketIn (and recompilation) if it
// returns. Notices are advisory, so this never fails.
func (a *App) HandleFlowRemoved(_ context.Context, _ control.DatapathID, removals []control.FlowRemoved) error {
	a.mu.Lock()
	a.flowsRemoved += uint64(len(removals))
	a.mu.Unlock()
	return nil
}

// FlowsRemoved returns the total number of flow-removed notices
// accepted from all hosts.
func (a *App) FlowsRemoved() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.flowsRemoved
}

// Messages returns a copy of the validated-message log.
func (a *App) Messages() []LoggedMessage {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]LoggedMessage(nil), a.msgLog...)
}

// Policy returns the value stored for key by AppData messages, if any.
func (a *App) Policy(key string) (any, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	v, ok := a.policyKV[key]
	return v, ok
}

var _ control.Northbound = (*App)(nil)
