// Package placement implements the SDNFV Placement Engine (§3.5): joint NF
// placement and flow routing that minimizes the maximum utilization of the
// network's links and NFV hosts.
//
// Three solvers reproduce the paper's comparison (Fig. 5):
//
//   - SolveMILP — the mixed-integer formulation of Eqs. (1)–(9), built on
//     the internal/lp branch-and-bound solver. One modeling note: Eq. (9)
//     in the paper divides assigned flows by deployed instances, which is
//     bilinear (U·M). We linearize by charging each flow 1/P_j of a core
//     and bounding node core usage by U·C_i — the same "maximum
//     utilization of cores" semantics with a single linear MILP.
//   - SolveGreedy — the paper's best-effort heuristic: services go to the
//     first available cores on nodes along the flow's shortest path, then
//     on neighboring nodes.
//   - SolveDivision — the paper's Division Heuristic: solve the MILP for
//     small batches of flows (default 5), commit, subtract the residual
//     capacity, and continue.
//
// The solvers place onto a Topology of NFV-capable switches (cores per
// node, links with capacity and delay, minimum-delay paths). The paper
// evaluates on Rocketfuel AS-16631 (22 nodes, 64 edges); that dataset is
// not redistributable, so Rocketfuel22 synthesizes a deterministic
// topology with the same node and edge counts and a similar skewed
// degree distribution (preferential attachment), which is all the
// placement experiment depends on. Line builds the chains the multi-host
// experiments place onto.
package placement

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"sdnfv/internal/lp"
)

// Service identifies an abstract service kind in a chain (J1..J5 in the
// paper's experiment).
type Service int

// Spec describes service resource behaviour.
type Spec struct {
	// FlowsPerCore is P_j: how many flows one core of service j sustains.
	FlowsPerCore map[Service]int
}

// Flow is one demand: a chain of services between ingress and egress.
type Flow struct {
	Ingress, Egress NodeID
	// Chain is the ordered service requirement (length L).
	Chain []Service
	// BandwidthBps is B_k.
	BandwidthBps float64
	// MaxDelaySec is T_k (0 = unconstrained).
	MaxDelaySec float64
}

// Assignment is a solved placement for a set of flows.
type Assignment struct {
	// Nodes[k][l] is the node hosting the l-th service of flow k.
	Nodes [][]NodeID
	// Routes[k][l'] is the node path for leg l' (from position l' to
	// l'+1 of [ingress, services..., egress]).
	Routes [][][]NodeID
	// Instances[node][service] counts deployed NF instances.
	Instances map[NodeID]map[Service]int
	// LinkUtil is max link utilization; CoreUtil max node core
	// utilization; U = max of both (the objective of §3.5).
	LinkUtil, CoreUtil float64
	// Accepted flags per-flow success (heuristics may reject flows).
	Accepted []bool
	// Progress records cumulative (accepted, U) after each flow (greedy)
	// or batch (division), for capacity sweeps.
	Progress []ProgressPoint
}

// ProgressPoint is one step of an incremental solve.
type ProgressPoint struct {
	FlowsTried int
	Accepted   int
	U          float64
}

// NumAccepted counts accepted flows.
func (a *Assignment) NumAccepted() int {
	n := 0
	for _, ok := range a.Accepted {
		if ok {
			n++
		}
	}
	return n
}

// ErrNoSpec reports a chain service missing from the spec.
var ErrNoSpec = errors.New("placement: service missing from spec")

// state tracks residual capacity while committing placements.
type state struct {
	t         *Topology
	spec      Spec
	coreUsed  []float64             // fractional cores consumed per node
	linkLoad  map[[2]NodeID]float64 // bps per directed edge
	instances map[NodeID]map[Service]int
	// instance slack: flows still admissible on deployed instances.
	slack map[NodeID]map[Service]int
}

func newState(t *Topology, spec Spec) *state {
	return &state{
		t:         t,
		spec:      spec,
		coreUsed:  make([]float64, t.N()),
		linkLoad:  make(map[[2]NodeID]float64),
		instances: make(map[NodeID]map[Service]int),
		slack:     make(map[NodeID]map[Service]int),
	}
}

// addInstance deploys one instance of svc on node (consumes a whole core).
func (s *state) addInstance(node NodeID, svc Service) {
	if s.instances[node] == nil {
		s.instances[node] = map[Service]int{}
		s.slack[node] = map[Service]int{}
	}
	s.instances[node][svc]++
	s.slack[node][svc] += s.spec.FlowsPerCore[svc]
}

// coresCommitted returns whole cores deployed on node.
func (s *state) coresCommitted(node NodeID) int {
	n := 0
	for _, c := range s.instances[node] {
		n += c
	}
	return n
}

// assignFlowService places one flow's service hop on node, deploying an
// instance when no slack remains. Returns false when the node is out of
// cores.
func (s *state) assignFlowService(node NodeID, svc Service) bool {
	if s.slack[node][svc] == 0 {
		if s.coresCommitted(node) >= s.t.Cores(node) {
			return false
		}
		s.addInstance(node, svc)
	}
	s.slack[node][svc]--
	s.coreUsed[node] += 1 / float64(s.spec.FlowsPerCore[svc])
	return true
}

// unassignFlowService returns a flow slot taken by assignFlowService. The
// instance (and its core) stays deployed; only the flow slot and the
// fractional core usage are refunded.
func (s *state) unassignFlowService(node NodeID, svc Service) {
	s.slack[node][svc]++
	s.coreUsed[node] -= 1 / float64(s.spec.FlowsPerCore[svc])
}

// addRoute charges bw along path.
func (s *state) addRoute(path []NodeID, bw float64) {
	for i := 0; i+1 < len(path); i++ {
		s.linkLoad[[2]NodeID{path[i], path[i+1]}] += bw
	}
}

// utilization computes (linkUtil, coreUtil) for the committed state.
func (s *state) utilization() (float64, float64) {
	linkU := 0.0
	for k, load := range s.linkLoad {
		e, ok := s.t.EdgeBetween(k[0], k[1])
		if !ok || e.CapBps <= 0 {
			continue
		}
		if u := load / e.CapBps; u > linkU {
			linkU = u
		}
	}
	// Core utilization counts deployed (committed) cores against the
	// network's core budget: an instance pins a core whether or not its
	// flow slots are full (the Eq. (9) P_ji·M_ij capacity view). The
	// aggregate fraction makes greedy (no instance sharing, ~one core per
	// service per flow) and the optimizer (shared instances) directly
	// comparable.
	committed, total := 0, 0
	for i := 0; i < s.t.N(); i++ {
		committed += s.coresCommitted(NodeID(i))
		total += s.t.Cores(NodeID(i))
	}
	coreU := 0.0
	if total > 0 {
		coreU = float64(committed) / float64(total)
	}
	return linkU, coreU
}

func validateFlows(flows []Flow, spec Spec) error {
	for k, f := range flows {
		for _, svc := range f.Chain {
			if spec.FlowsPerCore[svc] <= 0 {
				return fmt.Errorf("%w: flow %d service %d", ErrNoSpec, k, svc)
			}
		}
	}
	return nil
}

// SolveGreedy is the paper's greedy baseline: for each flow, walk its
// shortest ingress→egress path assigning each chain service to "the first
// available core" — a fresh core per service per flow, with no instance
// sharing across flows (that sharing is exactly what the optimization
// formulation adds) — spilling to neighbors of path nodes when the path
// is full.
func SolveGreedy(t *Topology, flows []Flow, spec Spec) (*Assignment, error) {
	if err := validateFlows(flows, spec); err != nil {
		return nil, err
	}
	st := newState(t, spec)
	asg := &Assignment{
		Nodes:     make([][]NodeID, len(flows)),
		Routes:    make([][][]NodeID, len(flows)),
		Instances: st.instances,
		Accepted:  make([]bool, len(flows)),
	}
	for k, f := range flows {
		path, _, ok := t.ShortestPath(f.Ingress, f.Egress)
		if !ok {
			asg.recordProgress(st, k+1)
			continue
		}
		// Candidate nodes in greedy order: path nodes, then their
		// neighbors.
		var cands []NodeID
		seen := map[NodeID]bool{}
		for _, n := range path {
			if !seen[n] {
				seen[n] = true
				cands = append(cands, n)
			}
		}
		for _, n := range path {
			for _, e := range t.Neighbors(n) {
				if !seen[e.To] {
					seen[e.To] = true
					cands = append(cands, e.To)
				}
			}
		}
		nodes := make([]NodeID, 0, len(f.Chain))
		ok = true
		for _, svc := range f.Chain {
			placed := false
			for _, n := range cands {
				// "First available cores": a fresh core per service per
				// flow; the greedy never shares instances across flows.
				if st.coresCommitted(n) < t.Cores(n) {
					st.addInstance(n, svc)
					st.slack[n][svc]--
					st.coreUsed[n] += 1 / float64(spec.FlowsPerCore[svc])
					nodes = append(nodes, n)
					placed = true
					break
				}
			}
			if !placed {
				ok = false
				break
			}
		}
		if !ok {
			asg.recordProgress(st, k+1)
			continue
		}
		// Route: ingress → s1 → … → sL → egress on shortest paths.
		waypoints := append([]NodeID{f.Ingress}, nodes...)
		waypoints = append(waypoints, f.Egress)
		var legs [][]NodeID
		for i := 0; i+1 < len(waypoints); i++ {
			leg, _, lok := t.ShortestPath(waypoints[i], waypoints[i+1])
			if !lok {
				ok = false
				break
			}
			st.addRoute(leg, f.BandwidthBps)
			legs = append(legs, leg)
		}
		if !ok {
			asg.recordProgress(st, k+1)
			continue
		}
		asg.Nodes[k] = nodes
		asg.Routes[k] = legs
		asg.Accepted[k] = true
		asg.recordProgress(st, k+1)
	}
	asg.LinkUtil, asg.CoreUtil = st.utilization()
	return asg, nil
}

// recordProgress appends a cumulative progress point.
func (a *Assignment) recordProgress(st *state, tried int) {
	l, c := st.utilization()
	n := 0
	for _, ok := range a.Accepted[:tried] {
		if ok {
			n++
		}
	}
	a.Progress = append(a.Progress, ProgressPoint{FlowsTried: tried, Accepted: n, U: math.Max(l, c)})
}

// dedge is a directed edge of the candidate subgraph.
type dedge struct{ a, b NodeID }

// MILPOptions tunes the exact solver.
type MILPOptions struct {
	// MaxNodes / TimeLimit bound the branch-and-bound search.
	MaxNodes  int
	TimeLimit time.Duration
	// SlackHops widens per-flow candidate node sets: nodes within
	// (shortest-hop-distance + SlackHops) of both endpoints qualify.
	// Default 1. Larger = closer to the unpruned formulation, slower.
	SlackHops int
	// MaxCandidates caps each flow's candidate node set (closest to the
	// endpoints win; ingress and egress always stay). 0 = 8. Dense
	// topologies have many equal-length paths, and the MILP grows with
	// the square of the candidate count.
	MaxCandidates int
	// RoundLP solves only the LP relaxation and derives an integral
	// placement by LP-guided rounding (choose each service hop's node by
	// descending fractional value, subject to residual capacity). It
	// trades optimality for speed — the mode the division heuristic uses
	// at experiment scale. The exact branch-and-bound remains the default.
	RoundLP bool
	// SkipRouting drops the V (per-leg link) variables from the LP; only
	// meaningful with RoundLP. Faster but blind to link utilization.
	SkipRouting bool
	// Verbose prints problem sizes to ease tuning.
	Verbose bool
	// prior carries residual capacity from the division heuristic.
	prior *state
}

// SolveMILP builds and solves Eqs. (1)–(9) for the given flows jointly.
func SolveMILP(t *Topology, flows []Flow, spec Spec, opt MILPOptions) (*Assignment, error) {
	if err := validateFlows(flows, spec); err != nil {
		return nil, err
	}
	if opt.SlackHops == 0 {
		opt.SlackHops = 1
	}
	if opt.MaxNodes == 0 {
		opt.MaxNodes = 2000
	}
	if opt.MaxCandidates == 0 {
		opt.MaxCandidates = 8
	}
	st := opt.prior
	if st == nil {
		st = newState(t, spec)
	}

	// Candidate node sets per flow (pruning; §3.5's post-processing
	// "removes unused switches" similarly shrinks subproblems).
	cands := make([][]NodeID, len(flows))
	diArr := make([][]int, len(flows))
	deArr := make([][]int, len(flows))
	spHopsArr := make([]int, len(flows))
	for k, f := range flows {
		di := t.HopDistances(f.Ingress)
		de := t.HopDistances(f.Egress)
		diArr[k], deArr[k] = di, de
		spPath, _, ok := t.ShortestPath(f.Ingress, f.Egress)
		if !ok {
			return nil, fmt.Errorf("placement: flow %d endpoints disconnected", k)
		}
		onSP := map[NodeID]bool{}
		for _, n := range spPath {
			onSP[n] = true
		}
		spHops := di[f.Egress]
		spHopsArr[k] = spHops
		for i := 0; i < t.N(); i++ {
			n := NodeID(i)
			if di[i] >= 0 && de[i] >= 0 && di[i]+de[i] <= spHops+opt.SlackHops {
				// Only nodes with spare capacity (or already-deployed
				// slack) are candidates.
				cands[k] = append(cands[k], n)
			}
		}
		if len(cands[k]) == 0 {
			return nil, fmt.Errorf("placement: flow %d has no candidate nodes", k)
		}
		if len(cands[k]) > opt.MaxCandidates {
			// Keep endpoints plus the nodes closest to the flow's path.
			// One whole shortest path always survives the cap so the
			// candidate subgraph stays connected.
			sort.Slice(cands[k], func(a, b int) bool {
				na, nb := cands[k][a], cands[k][b]
				pa, pb := boolRank(onSP[na]), boolRank(onSP[nb])
				if pa != pb {
					return pa > pb
				}
				da := di[na] + de[na]
				db := di[nb] + de[nb]
				if da != db {
					return da < db
				}
				return na < nb
			})
			if len(spPath) > opt.MaxCandidates {
				opt.MaxCandidates = len(spPath)
			}
			cands[k] = cands[k][:opt.MaxCandidates]
			sort.Slice(cands[k], func(a, b int) bool { return cands[k][a] < cands[k][b] })
		}
	}
	// Per-flow directed edge sets: each flow may only route within its own
	// candidate subgraph, which keeps the MILP small (the paper's
	// post-processing step similarly "removes unused switches").
	flowEdges := make([][]dedge, len(flows))
	edgeCap := map[dedge]float64{}
	edgeDelay := map[dedge]float64{}
	unionEdges := map[dedge]bool{}
	for k := range flows {
		inSet := map[NodeID]bool{}
		for _, n := range cands[k] {
			inSet[n] = true
		}
		for _, n := range cands[k] {
			for _, e := range t.Neighbors(n) {
				if inSet[e.To] {
					de := dedge{n, e.To}
					flowEdges[k] = append(flowEdges[k], de)
					edgeCap[de] = e.CapBps
					edgeDelay[de] = e.DelaySec
					unionEdges[de] = true
				}
			}
		}
		sort.Slice(flowEdges[k], func(i, j int) bool {
			if flowEdges[k][i].a != flowEdges[k][j].a {
				return flowEdges[k][i].a < flowEdges[k][j].a
			}
			return flowEdges[k][i].b < flowEdges[k][j].b
		})
	}
	var dedges []dedge
	for de := range unionEdges {
		dedges = append(dedges, de)
	}
	sort.Slice(dedges, func(i, j int) bool {
		if dedges[i].a != dedges[j].a {
			return dedges[i].a < dedges[j].a
		}
		return dedges[i].b < dedges[j].b
	})

	prob := lp.NewProblem()
	bigU := prob.AddVar("U", 1, 0, math.Inf(1), false) // minimize U

	// M_ij: instances of service j on node i.
	services := map[Service]bool{}
	for _, f := range flows {
		for _, s := range f.Chain {
			services[s] = true
		}
	}
	var svcList []Service
	for s := range services {
		svcList = append(svcList, s)
	}
	sort.Slice(svcList, func(i, j int) bool { return svcList[i] < svcList[j] })

	candSet := map[NodeID]bool{}
	for k := range flows {
		for _, n := range cands[k] {
			candSet[n] = true
		}
	}
	// Deterministic constraint order: map iteration order would otherwise
	// reshuffle rows (and with them the anti-degeneracy perturbation and
	// rounding tie-breaks) between runs.
	candList := make([]NodeID, 0, len(candSet))
	for n := range candSet {
		candList = append(candList, n)
	}
	sort.Slice(candList, func(i, j int) bool { return candList[i] < candList[j] })
	mVar := map[NodeID]map[Service]lp.Var{}
	for _, n := range candList {
		mVar[n] = map[Service]lp.Var{}
		for _, svc := range svcList {
			v := prob.AddVar(fmt.Sprintf("M_%d_%d", n, svc), 0, 0, float64(t.Cores(n)), true)
			prob.SetBranchPriority(v, 2)
			mVar[n][svc] = v
		}
	}
	// Eq (1): cores per node, accounting prior deployments.
	for _, n := range candList {
		terms := make([]lp.Term, 0, len(svcList))
		for _, svc := range svcList {
			terms = append(terms, lp.Term{Var: mVar[n][svc], Coef: 1})
		}
		avail := float64(t.Cores(n) - st.coresCommitted(n))
		prob.AddConstraint(terms, lp.LE, avail)
	}

	// N_k,l,i: binary placement of flow k's l-th service on node i.
	nVar := make([]map[int]map[NodeID]lp.Var, len(flows))
	for k, f := range flows {
		nVar[k] = map[int]map[NodeID]lp.Var{}
		for l := range f.Chain {
			nVar[k][l] = map[NodeID]lp.Var{}
			for _, n := range cands[k] {
				v := prob.AddVar(fmt.Sprintf("N_%d_%d_%d", k, l, n), 0, 0, 1, true)
				prob.SetBranchPriority(v, 1)
				prob.SetStructuralUpperBound(v) // Eq (3) sums N to 1
				nVar[k][l][n] = v
			}
			// Eq (3): exactly one node per service hop.
			terms := make([]lp.Term, 0, len(cands[k]))
			for _, n := range cands[k] {
				terms = append(terms, lp.Term{Var: nVar[k][l][n], Coef: 1})
			}
			prob.AddConstraint(terms, lp.EQ, 1)
		}
	}

	// Eq (7): per-(node,service) capacity: flows ≤ P_j·(M + prior slack).
	for _, n := range candList {
		for _, svc := range svcList {
			var terms []lp.Term
			for k, f := range flows {
				for l, cs := range f.Chain {
					if cs != svc {
						continue
					}
					if v, ok := nVar[k][l][n]; ok {
						terms = append(terms, lp.Term{Var: v, Coef: 1})
					}
				}
			}
			if len(terms) == 0 {
				continue
			}
			pj := float64(spec.FlowsPerCore[svc])
			terms = append(terms, lp.Term{Var: mVar[n][svc], Coef: -pj})
			prob.AddConstraint(terms, lp.LE, float64(st.slack[n][svc]))
		}
	}

	// Eq (9) linearized: node core usage ≤ U·C_i.
	for _, n := range candList {
		var terms []lp.Term
		for k, f := range flows {
			for l, svc := range f.Chain {
				if v, ok := nVar[k][l][n]; ok {
					terms = append(terms, lp.Term{Var: v, Coef: 1 / float64(spec.FlowsPerCore[svc])})
				}
			}
		}
		if len(terms) == 0 {
			continue
		}
		c := float64(t.Cores(n))
		terms = append(terms, lp.Term{Var: bigU, Coef: -c})
		prob.AddConstraint(terms, lp.LE, -st.coreUsed[n])
	}

	// SkipRouting (RoundLP fast path) omits the V variables; the default
	// keeps the full joint formulation (Eqs. 4–6, 8) so the relaxation
	// sees link loads and detour costs.
	vVar := make([]map[int]map[dedge]lp.Var, len(flows))
	if !opt.SkipRouting {
		// V_k,l',e: leg l' of flow k uses directed edge e (within the flow's
		// own candidate subgraph). Legs go from position l' to l'+1 of
		// F_k = [ingress, services..., egress] (Eqs. 4–5). Routing variables
		// get branch priority 0: once placements are integral the leg
		// subproblems are near-network-flow and rarely fractional.
		for k, f := range flows {
			legs := len(f.Chain) + 1
			vVar[k] = map[int]map[dedge]lp.Var{}
			for l := 0; l < legs; l++ {
				vVar[k][l] = map[dedge]lp.Var{}
				for _, e := range flowEdges[k] {
					// A tiny per-edge cost breaks ties toward short,
					// cycle-free legs.
					v := prob.AddVar(fmt.Sprintf("V_%d_%d_%d_%d", k, l, e.a, e.b), 1e-6, 0, 1, true)
					vVar[k][l][e] = v
				}
			}
			// Eq (5): conservation per leg and node: out − in = F[l'] − F[l'+1].
			for l := 0; l < legs; l++ {
				for _, n := range cands[k] {
					var terms []lp.Term
					for _, e := range flowEdges[k] {
						if e.a == n {
							terms = append(terms, lp.Term{Var: vVar[k][l][e], Coef: 1})
						}
						if e.b == n {
							terms = append(terms, lp.Term{Var: vVar[k][l][e], Coef: -1})
						}
					}
					// Position indicator at l (source of the leg).
					rhs := 0.0
					if l == 0 {
						if n == f.Ingress {
							rhs += 1
						}
					} else if v, ok := nVar[k][l-1][n]; ok {
						terms = append(terms, lp.Term{Var: v, Coef: -1})
					}
					// Position indicator at l+1 (destination of the leg).
					if l == legs-1 {
						if n == f.Egress {
							rhs -= 1
						}
					} else if v, ok := nVar[k][l][n]; ok {
						terms = append(terms, lp.Term{Var: v, Coef: 1})
					}
					prob.AddConstraint(terms, lp.EQ, rhs)
				}
			}
			// Eq (6): delay bound.
			if f.MaxDelaySec > 0 {
				var terms []lp.Term
				for l := 0; l < legs; l++ {
					for _, e := range flowEdges[k] {
						terms = append(terms, lp.Term{Var: vVar[k][l][e], Coef: edgeDelay[e]})
					}
				}
				prob.AddConstraint(terms, lp.LE, f.MaxDelaySec)
			}
		}

		// Eq (8): link utilization ≤ U.
		for _, e := range dedges {
			var terms []lp.Term
			for k, f := range flows {
				if _, ok := vVar[k][0][e]; !ok {
					continue
				}
				legs := len(f.Chain) + 1
				for l := 0; l < legs; l++ {
					terms = append(terms, lp.Term{Var: vVar[k][l][e], Coef: f.BandwidthBps})
				}
			}
			if len(terms) == 0 {
				continue
			}
			cap := edgeCap[e]
			if cap <= 0 {
				continue
			}
			terms = append(terms, lp.Term{Var: bigU, Coef: -cap})
			prior := st.linkLoad[[2]NodeID{e.a, e.b}]
			prob.AddConstraint(terms, lp.LE, -prior)
		}
	}

	if opt.Verbose {
		fmt.Printf("placement MILP: %d vars, %d rows\n", prob.NumVars(), prob.NumRows())
	}

	asg := &Assignment{
		Nodes:    make([][]NodeID, len(flows)),
		Routes:   make([][][]NodeID, len(flows)),
		Accepted: make([]bool, len(flows)),
	}

	if opt.RoundLP {
		sol, err := lp.SolveLP(prob)
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.StatusOptimal {
			return nil, fmt.Errorf("placement: LP relaxation %s", sol.Status)
		}
		for k, f := range flows {
			nodes := make([]NodeID, len(f.Chain))
			okFlow := true
			di, de, spHops := diArr[k], deArr[k], spHopsArr[k]
			prev := f.Ingress
			var placed []struct {
				n NodeID
				s Service
			}
			for l, svc := range f.Chain {
				// Score candidates: LP weight, minus a detour penalty
				// (nodes off the shortest corridor stretch the route),
				// plus a bonus for existing instance slack (a flow slot
				// on a deployed instance is free; a new instance costs a
				// whole core) and for monotone progression along the
				// path (prevents ping-pong legs that double link load).
				score := func(n NodeID) float64 {
					v := sol.Value(nVar[k][l][n])
					detour := float64(di[n] + de[n] - spHops)
					if detour > 0 {
						v -= 1.0 * detour // off-path is last resort
					}
					if st.slack[n][svc] > 0 {
						v += 0.3
					}
					if di[n] < di[prev] {
						v -= 1.0 // going backwards doubles link load
					}
					return v
				}
				order := append([]NodeID(nil), cands[k]...)
				sort.SliceStable(order, func(a, b int) bool {
					return score(order[a]) > score(order[b])
				})
				hopPlaced := false
				for _, n := range order {
					if st.assignFlowService(n, svc) {
						nodes[l] = n
						prev = n
						placed = append(placed, struct {
							n NodeID
							s Service
						}{n, svc})
						hopPlaced = true
						break
					}
				}
				if !hopPlaced {
					okFlow = false
					break
				}
			}
			if !okFlow {
				// Roll back this flow's partial assignments so rejected
				// flows do not strand capacity.
				for _, pl := range placed {
					st.unassignFlowService(pl.n, pl.s)
				}
				continue
			}
			waypoints := append([]NodeID{f.Ingress}, nodes...)
			waypoints = append(waypoints, f.Egress)
			routes := make([][]NodeID, 0, len(waypoints)-1)
			for l := 0; l+1 < len(waypoints); l++ {
				leg, _, lok := t.ShortestPath(waypoints[l], waypoints[l+1])
				if !lok {
					okFlow = false
					break
				}
				st.addRoute(leg, f.BandwidthBps)
				routes = append(routes, leg)
			}
			if !okFlow {
				continue
			}
			asg.Nodes[k] = nodes
			asg.Routes[k] = routes
			asg.Accepted[k] = true
		}
		asg.Instances = st.instances
		asg.LinkUtil, asg.CoreUtil = st.utilization()
		return asg, nil
	}

	sol, err := lp.SolveMILP(prob, lp.MILPOptions{MaxNodes: opt.MaxNodes, TimeLimit: opt.TimeLimit})
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.StatusOptimal && sol.Status != lp.StatusFeasible {
		return nil, fmt.Errorf("placement: MILP %s", sol.Status)
	}

	// Extract and commit onto the state for consistent accounting.
	for k, f := range flows {
		nodes := make([]NodeID, len(f.Chain))
		for l := range f.Chain {
			for _, n := range cands[k] {
				if sol.Value(nVar[k][l][n]) > 0.5 {
					nodes[l] = n
					break
				}
			}
		}
		for l, svc := range f.Chain {
			if !st.assignFlowService(nodes[l], svc) {
				// Should not happen given Eq (1)/(7); be conservative.
				return nil, fmt.Errorf("placement: MILP solution overcommits node %d", nodes[l])
			}
		}
		legs := len(f.Chain) + 1
		routes := make([][]NodeID, 0, legs)
		waypoints := append([]NodeID{f.Ingress}, nodes...)
		waypoints = append(waypoints, f.Egress)
		for l := 0; l < legs; l++ {
			path := walkLeg(waypoints[l], waypoints[l+1], vVar[k][l], sol, dedges)
			if path == nil {
				// Colocated consecutive services: empty leg.
				path = []NodeID{waypoints[l]}
			}
			st.addRoute(path, f.BandwidthBps)
			routes = append(routes, path)
		}
		asg.Nodes[k] = nodes
		asg.Routes[k] = routes
		asg.Accepted[k] = true
	}
	asg.Instances = st.instances
	asg.LinkUtil, asg.CoreUtil = st.utilization()
	return asg, nil
}

// boolRank maps true to 1 for sort keys.
func boolRank(b bool) int {
	if b {
		return 1
	}
	return 0
}

// walkLeg reconstructs the leg's node path from selected edge variables.
func walkLeg(from, to NodeID, vars map[dedge]lp.Var, sol *lp.Solution, dedges []dedge) []NodeID {
	if from == to {
		return []NodeID{from}
	}
	next := map[NodeID]NodeID{}
	for _, e := range dedges {
		if sol.Value(vars[e]) > 0.5 {
			next[e.a] = e.b
		}
	}
	path := []NodeID{from}
	cur := from
	for cur != to {
		n, ok := next[cur]
		if !ok {
			return nil
		}
		path = append(path, n)
		cur = n
		if len(path) > len(dedges)+2 {
			return nil // malformed (cycle)
		}
	}
	return path
}

// DivisionOptions tunes the division heuristic.
type DivisionOptions struct {
	// BatchSize is the number of flows per subproblem (paper: 5).
	BatchSize int
	// MILP carries through to each subproblem solve.
	MILP MILPOptions
}

// SolveDivision is the paper's Division Heuristic: solve small MILP
// subproblems incrementally against residual capacity.
func SolveDivision(t *Topology, flows []Flow, spec Spec, opt DivisionOptions) (*Assignment, error) {
	if err := validateFlows(flows, spec); err != nil {
		return nil, err
	}
	if opt.BatchSize <= 0 {
		opt.BatchSize = 5
	}
	st := newState(t, spec)
	asg := &Assignment{
		Nodes:    make([][]NodeID, len(flows)),
		Routes:   make([][][]NodeID, len(flows)),
		Accepted: make([]bool, len(flows)),
	}
	for start := 0; start < len(flows); start += opt.BatchSize {
		end := start + opt.BatchSize
		if end > len(flows) {
			end = len(flows)
		}
		sub := flows[start:end]
		mo := opt.MILP
		mo.prior = st
		subAsg, err := SolveMILP(t, sub, spec, mo)
		if err != nil {
			// Batch infeasible against residual capacity: reject the batch
			// and keep going (callers read Accepted).
			asg.recordProgress(st, end)
			continue
		}
		for i := range sub {
			asg.Nodes[start+i] = subAsg.Nodes[i]
			asg.Routes[start+i] = subAsg.Routes[i]
			asg.Accepted[start+i] = subAsg.Accepted[i]
		}
		asg.recordProgress(st, end)
	}
	asg.Instances = st.instances
	asg.LinkUtil, asg.CoreUtil = st.utilization()
	return asg, nil
}
