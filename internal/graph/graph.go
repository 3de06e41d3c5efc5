// Package graph implements SDNFV service graphs (§3.2): a network
// application is a DAG whose vertices are abstract services and whose edges
// are the possible next hops an NF may select. One outgoing edge per vertex
// is marked as the default path.
//
// The package also implements the parallel-segment detection of §3.3: a run
// of adjacent read-only services on the default path whose packets all flow
// to the same successor can safely share one packet copy.
package graph

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"sdnfv/internal/flowtable"
)

// Source and Sink are the reserved pseudo-vertices bounding every graph.
// Source represents packet ingress (a NIC port) and Sink packet egress.
const (
	Source flowtable.ServiceID = 0
	Sink   flowtable.ServiceID = 0x7fff
)

// Vertex describes one service in the graph.
type Vertex struct {
	Service flowtable.ServiceID
	Name    string
	// ReadOnly mirrors the NF's advertisement at registration (§3.3); the
	// graph uses it to find parallelizable segments.
	ReadOnly bool
}

// Edge is a directed logical link between services.
type Edge struct {
	From, To flowtable.ServiceID
	// Default marks this edge as the vertex's default path.
	Default bool
}

// Graph is a service graph under construction or validated. The zero value
// is an empty graph ready for AddVertex/AddEdge.
type Graph struct {
	Name     string
	vertices map[flowtable.ServiceID]Vertex
	out      map[flowtable.ServiceID][]Edge
	in       map[flowtable.ServiceID][]Edge
}

// New returns an empty named service graph containing only Source and Sink.
func New(name string) *Graph {
	g := &Graph{
		Name:     name,
		vertices: make(map[flowtable.ServiceID]Vertex),
		out:      make(map[flowtable.ServiceID][]Edge),
		in:       make(map[flowtable.ServiceID][]Edge),
	}
	g.vertices[Source] = Vertex{Service: Source, Name: "source"}
	g.vertices[Sink] = Vertex{Service: Sink, Name: "sink"}
	return g
}

// Errors returned during construction and validation.
var (
	ErrDuplicateVertex = errors.New("graph: duplicate vertex")
	ErrUnknownVertex   = errors.New("graph: unknown vertex")
	ErrDuplicateEdge   = errors.New("graph: duplicate edge")
	ErrCycle           = errors.New("graph: cycle detected")
	ErrNoDefault       = errors.New("graph: vertex lacks a default edge")
	ErrMultipleDefault = errors.New("graph: vertex has multiple default edges")
	ErrUnreachable     = errors.New("graph: vertex unreachable from source")
	ErrDeadEnd         = errors.New("graph: default path does not reach sink")
)

// AddVertex registers a service vertex.
func (g *Graph) AddVertex(v Vertex) error {
	if v.Service == Source || v.Service == Sink {
		return fmt.Errorf("%w: reserved id %s", ErrDuplicateVertex, v.Service)
	}
	if _, ok := g.vertices[v.Service]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateVertex, v.Service)
	}
	g.vertices[v.Service] = v
	return nil
}

// AddEdge adds a directed edge. Set def on exactly one outgoing edge per
// vertex.
func (g *Graph) AddEdge(from, to flowtable.ServiceID, def bool) error {
	if _, ok := g.vertices[from]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownVertex, from)
	}
	if _, ok := g.vertices[to]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownVertex, to)
	}
	for _, e := range g.out[from] {
		if e.To == to {
			return fmt.Errorf("%w: %s->%s", ErrDuplicateEdge, from, to)
		}
	}
	e := Edge{From: from, To: to, Default: def}
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
	return nil
}

// Chain is a convenience constructor: it builds a linear service chain
// source -> services[0] -> ... -> services[n-1] -> sink with every edge
// marked default.
func Chain(name string, services ...Vertex) (*Graph, error) {
	g := New(name)
	prev := Source
	for _, v := range services {
		if err := g.AddVertex(v); err != nil {
			return nil, err
		}
		if err := g.AddEdge(prev, v.Service, true); err != nil {
			return nil, err
		}
		prev = v.Service
	}
	if err := g.AddEdge(prev, Sink, true); err != nil {
		return nil, err
	}
	return g, nil
}

// Vertex returns the vertex for id.
func (g *Graph) Vertex(id flowtable.ServiceID) (Vertex, bool) {
	v, ok := g.vertices[id]
	return v, ok
}

// Vertices returns all service vertices (excluding Source/Sink), sorted.
func (g *Graph) Vertices() []Vertex {
	out := make([]Vertex, 0, len(g.vertices))
	for id, v := range g.vertices {
		if id == Source || id == Sink {
			continue
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Service < out[j].Service })
	return out
}

// Out returns the outgoing edges of id with the default edge first.
func (g *Graph) Out(id flowtable.ServiceID) []Edge {
	es := append([]Edge(nil), g.out[id]...)
	sort.SliceStable(es, func(i, j int) bool { return es[i].Default && !es[j].Default })
	return es
}

// DefaultNext returns the default successor of id.
func (g *Graph) DefaultNext(id flowtable.ServiceID) (flowtable.ServiceID, bool) {
	for _, e := range g.out[id] {
		if e.Default {
			return e.To, true
		}
	}
	return 0, false
}

// Validate checks the structural invariants: the graph is a DAG, every
// vertex except Sink has exactly one default edge, every vertex is
// reachable from Source, and following default edges from any vertex
// reaches Sink.
func (g *Graph) Validate() error {
	// Exactly one default edge per non-sink vertex.
	for id := range g.vertices {
		if id == Sink {
			continue
		}
		n := 0
		for _, e := range g.out[id] {
			if e.Default {
				n++
			}
		}
		switch {
		case n == 0:
			return fmt.Errorf("%w: %s", ErrNoDefault, id)
		case n > 1:
			return fmt.Errorf("%w: %s", ErrMultipleDefault, id)
		}
	}
	// Acyclicity via DFS coloring.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[flowtable.ServiceID]int, len(g.vertices))
	var visit func(id flowtable.ServiceID) error
	visit = func(id flowtable.ServiceID) error {
		color[id] = gray
		for _, e := range g.out[id] {
			switch color[e.To] {
			case gray:
				return fmt.Errorf("%w: through %s->%s", ErrCycle, e.From, e.To)
			case white:
				if err := visit(e.To); err != nil {
					return err
				}
			}
		}
		color[id] = black
		return nil
	}
	for id := range g.vertices {
		if color[id] == white {
			if err := visit(id); err != nil {
				return err
			}
		}
	}
	// Reachability from Source.
	reach := map[flowtable.ServiceID]bool{Source: true}
	queue := []flowtable.ServiceID{Source}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, e := range g.out[id] {
			if !reach[e.To] {
				reach[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	for id := range g.vertices {
		if !reach[id] {
			return fmt.Errorf("%w: %s", ErrUnreachable, id)
		}
	}
	// Default path from every vertex reaches Sink (guaranteed by DAG +
	// one default each, but verify for defense in depth).
	for id := range g.vertices {
		cur := id
		for cur != Sink {
			next, ok := g.DefaultNext(cur)
			if !ok {
				return fmt.Errorf("%w: from %s stuck at %s", ErrDeadEnd, id, cur)
			}
			cur = next
		}
	}
	return nil
}

// Segment is a maximal run of services eligible for parallel dispatch: all
// members are read-only, each member's default edge leads to the next, and
// the run has a single exit. The NF Manager fans one shared packet copy out
// to every member (§3.3, §4.2).
type Segment struct {
	Members []flowtable.ServiceID
	// Next is the service (or Sink) packets proceed to after the segment.
	Next flowtable.ServiceID
}

// ParallelSegments finds maximal parallelizable runs along the default
// path from Source to Sink. A run extends while the current service is
// read-only, has exactly one outgoing edge (its default), and its successor
// (also read-only, single-in, single-out) receives packets only from the
// run — the paper's example: all packets leaving DDoS go to IDS, both are
// read-only, so both may analyze the same packet simultaneously.
func (g *Graph) ParallelSegments() []Segment {
	var segs []Segment
	cur, _ := g.DefaultNext(Source)
	for cur != Sink && cur != 0 {
		v := g.vertices[cur]
		next, _ := g.DefaultNext(cur)
		if v.ReadOnly && len(g.out[cur]) == 1 {
			members := []flowtable.ServiceID{cur}
			probe := next
			for probe != Sink {
				pv := g.vertices[probe]
				if !pv.ReadOnly || len(g.out[probe]) != 1 || len(g.in[probe]) != 1 {
					break
				}
				members = append(members, probe)
				probe, _ = g.DefaultNext(probe)
			}
			if len(members) > 1 {
				segs = append(segs, Segment{Members: members, Next: probe})
				cur = probe
				continue
			}
		}
		cur = next
	}
	return segs
}

// Rules compiles the graph into flow-table rules for a single host hosting
// every service, with ingress on inPort and egress on outPort. The rule at
// each scope lists the default action first followed by the alternative
// next hops, exactly as §3.3 "NF Manager Flow Tables" describes.
//
// A parallel segment collapses into one parallel-flagged fan-out rule at
// each predecessor of its head, but only when every such predecessor has
// the segment as its sole next hop — a rule cannot mix a parallel fan-out
// with alternative actions. Segment members get exit rules pointing at the
// segment's successor; the manager's join logic moves the packet on once.
func (g *Graph) Rules(inPort, outPort int) ([]flowtable.Rule, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	segs := g.ParallelSegments()
	memberOf := map[flowtable.ServiceID]*Segment{}
	headOf := map[flowtable.ServiceID]*Segment{}
	for i := range segs {
		seg := &segs[i]
		// Usable only if every predecessor of the head enters by a pure
		// default (single out-edge).
		head := seg.Members[0]
		usable := true
		for _, e := range g.in[head] {
			if len(g.out[e.From]) != 1 {
				usable = false
				break
			}
		}
		if !usable {
			continue
		}
		headOf[head] = seg
		for _, m := range seg.Members {
			memberOf[m] = seg
		}
	}

	toAction := func(to flowtable.ServiceID) flowtable.Action {
		if to == Sink {
			return flowtable.Out(outPort)
		}
		return flowtable.Forward(to)
	}
	scopeFor := func(id flowtable.ServiceID) flowtable.ServiceID {
		if id == Source {
			return flowtable.Port(inPort)
		}
		return id
	}

	// Deterministic vertex order: Source, then services ascending.
	ids := []flowtable.ServiceID{Source}
	for _, v := range g.Vertices() {
		ids = append(ids, v.Service)
	}

	var rules []flowtable.Rule
	for _, id := range ids {
		if memberOf[id] != nil {
			continue // members get exit rules below
		}
		edges := g.Out(id)
		if len(edges) == 0 {
			continue
		}
		var acts []flowtable.Action
		parallel := false
		if seg, ok := headOf[edges[0].To]; ok && len(edges) == 1 {
			for _, m := range seg.Members {
				acts = append(acts, flowtable.Forward(m))
			}
			parallel = true
		} else {
			for _, e := range edges {
				acts = append(acts, toAction(e.To))
			}
		}
		rules = append(rules, flowtable.Rule{
			Scope:    scopeFor(id),
			Match:    flowtable.MatchAll,
			Actions:  acts,
			Parallel: parallel,
		})
	}
	for i := range segs {
		seg := &segs[i]
		if headOf[seg.Members[0]] != seg {
			continue // segment was not usable
		}
		for _, m := range seg.Members {
			rules = append(rules, flowtable.Rule{
				Scope:   m,
				Match:   flowtable.MatchAll,
				Actions: []flowtable.Action{toAction(seg.Next)},
			})
		}
	}
	return rules, nil
}

// String renders the graph in a compact adjacency form.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q:\n", g.Name)
	ids := make([]flowtable.ServiceID, 0, len(g.vertices))
	for id := range g.vertices {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		v := g.vertices[id]
		name := v.Name
		if name == "" {
			name = id.String()
		}
		for _, e := range g.Out(id) {
			marker := ""
			if e.Default {
				marker = " [default]"
			}
			tv := g.vertices[e.To]
			tn := tv.Name
			if tn == "" {
				tn = e.To.String()
			}
			fmt.Fprintf(&b, "  %s -> %s%s\n", name, tn, marker)
		}
	}
	return b.String()
}
