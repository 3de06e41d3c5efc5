// Package lp is a self-contained linear and mixed-integer linear
// programming solver: a dense two-phase primal simplex with a
// branch-and-bound layer for integrality. It is the optimization substrate
// behind the paper's NF placement engine (§3.5), standing in for the
// commercial MILP solver the authors used.
//
// The solver targets the moderate problem sizes the placement engine's
// division heuristic produces (hundreds of variables); it favors clarity
// and numerical robustness (Bland's rule fallback, explicit tolerances)
// over large-scale performance.
package lp

import (
	"fmt"
	"math"
	"time"
)

// Rel is a constraint relation.
type Rel uint8

// Constraint relations.
const (
	LE Rel = iota // ≤
	GE            // ≥
	EQ            // =
)

// Var is an opaque variable index returned by AddVar.
type Var int

// Term is one coefficient in a linear expression.
type Term struct {
	Var  Var
	Coef float64
}

// Status reports the outcome of a solve.
type Status uint8

// Solve statuses.
const (
	StatusOptimal Status = iota
	StatusInfeasible
	StatusUnbounded
	StatusIterLimit
	// StatusFeasible means branch-and-bound hit a limit but carries a
	// valid incumbent.
	StatusFeasible
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	case StatusFeasible:
		return "feasible(limit)"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

type row struct {
	terms []Term
	rel   Rel
	rhs   float64
}

// Problem is a minimization problem under construction. Build with
// NewProblem, AddVar, AddConstraint; solve with SolveLP or SolveMILP.
type Problem struct {
	obj        []float64
	lo, hi     []float64
	integer    []bool
	prio       []int
	noBoundRow []bool
	names      []string
	rows       []row
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem { return &Problem{} }

// AddVar adds a variable with the given objective coefficient and bounds
// (hi may be math.Inf(1)). integer marks it for branch-and-bound.
func (p *Problem) AddVar(name string, obj, lo, hi float64, integer bool) Var {
	p.obj = append(p.obj, obj)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.integer = append(p.integer, integer)
	p.prio = append(p.prio, 0)
	p.noBoundRow = append(p.noBoundRow, false)
	p.names = append(p.names, name)
	return Var(len(p.obj) - 1)
}

// SetStructuralUpperBound asserts that the constraint system already
// implies v ≤ its upper bound at any optimum (e.g. a binary in a
// sum-to-one row, or a unit-flow arc variable), so the relaxation may skip
// the explicit bound row. Branch-and-bound children that tighten the bound
// below the original still enforce it (fixed variables are substituted
// out). Misuse can only produce alternative optima, not infeasible ones,
// when the assertion holds.
func (p *Problem) SetStructuralUpperBound(v Var) { p.noBoundRow[v] = true }

// SetBranchPriority marks v to be branched before lower-priority variables
// in SolveMILP (default 0). Branching structural decisions (placement)
// before routing variables shrinks the search tree dramatically.
func (p *Problem) SetBranchPriority(v Var, priority int) { p.prio[v] = priority }

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return len(p.obj) }

// NumRows returns the number of constraints.
func (p *Problem) NumRows() int { return len(p.rows) }

// AddConstraint adds sum(terms) rel rhs. Terms may repeat a variable; the
// coefficients accumulate.
func (p *Problem) AddConstraint(terms []Term, rel Rel, rhs float64) {
	t := make([]Term, len(terms))
	copy(t, terms)
	p.rows = append(p.rows, row{terms: t, rel: rel, rhs: rhs})
}

// Solution is a solve result.
type Solution struct {
	Status Status
	// X holds a value per variable (valid for StatusOptimal and
	// StatusFeasible).
	X []float64
	// Obj is the objective value of X.
	Obj float64
	// Nodes is the number of branch-and-bound nodes explored (MILP only).
	Nodes int
}

// Value returns X[v].
func (s *Solution) Value(v Var) float64 { return s.X[v] }

const (
	eps    = 1e-9
	intTol = 1e-6
)

// pivotBudget bounds simplex iterations proportionally to problem size.
func pivotBudget(m, n int) int {
	b := 40 * (m + n)
	if b < 10_000 {
		b = 10_000
	}
	return b
}

// DebugMILP enables branch-and-bound tracing (diagnostics only).
var DebugMILP = false

// SolveLP solves the LP relaxation (integrality ignored).
func SolveLP(p *Problem) (*Solution, error) {
	return solveRelaxation(p, p.lo, p.hi)
}

// solveRelaxation solves min c·x s.t. rows, lo ≤ x ≤ hi, via two-phase
// dense simplex. Variables fixed by their bounds (hi−lo ≈ 0) are
// substituted out — branch-and-bound children fix binaries, so child LPs
// shrink. Remaining bounds are handled by shifting to x' = x − lo ≥ 0 and
// adding explicit rows for finite upper bounds (skipped for variables
// whose bound is structural and untightened; see SetStructuralUpperBound).
func solveRelaxation(p *Problem, lo, hi []float64) (*Solution, error) {
	nAll := len(p.obj)
	for j := 0; j < nAll; j++ {
		if lo[j] > hi[j]+eps {
			return &Solution{Status: StatusInfeasible}, nil
		}
	}
	// Partition into fixed and active variables.
	active := make([]int, 0, nAll) // active col -> original var
	colOf := make([]int, nAll)     // original var -> active col (-1 = fixed)
	for j := 0; j < nAll; j++ {
		if hi[j]-lo[j] <= eps {
			colOf[j] = -1
		} else {
			colOf[j] = len(active)
			active = append(active, j)
		}
	}
	n := len(active)

	type stdRow struct {
		a   []float64
		rel Rel
		rhs float64
	}
	rows := make([]stdRow, 0, len(p.rows)+n)
	objConst := 0.0
	for j := 0; j < nAll; j++ {
		objConst += p.obj[j] * lo[j]
	}
	for _, r := range p.rows {
		a := make([]float64, n)
		rhs := r.rhs
		touched := false
		for _, t := range r.terms {
			rhs -= t.Coef * lo[t.Var]
			if c := colOf[t.Var]; c >= 0 {
				a[c] += t.Coef
				if t.Coef != 0 {
					touched = true
				}
			}
		}
		if !touched {
			// All variables fixed: the row is a pure feasibility check.
			switch r.rel {
			case LE:
				if rhs < -1e-7 {
					return &Solution{Status: StatusInfeasible}, nil
				}
			case GE:
				if rhs > 1e-7 {
					return &Solution{Status: StatusInfeasible}, nil
				}
			case EQ:
				if rhs < -1e-7 || rhs > 1e-7 {
					return &Solution{Status: StatusInfeasible}, nil
				}
			}
			continue
		}
		rows = append(rows, stdRow{a: a, rel: r.rel, rhs: rhs})
	}
	for c, j := range active {
		if math.IsInf(hi[j], 1) {
			continue
		}
		if p.noBoundRow[j] && hi[j] >= p.hi[j]-eps {
			continue // structural bound, untightened
		}
		a := make([]float64, n)
		a[c] = 1
		rows = append(rows, stdRow{a: a, rel: LE, rhs: hi[j] - lo[j]})
	}
	m := len(rows)
	// Anti-degeneracy: perturb inequality right-hand sides by tiny,
	// distinct amounts (classic lexicographic-style perturbation).
	// Placement LPs are network-like and heavily degenerate; without this
	// the simplex can stall for tens of thousands of pivots. Equality rows
	// stay exact — flow-conservation systems are linearly dependent, and
	// perturbing them would make them inconsistent.
	for i := range rows {
		if rows[i].rel == LE {
			rows[i].rhs += float64(i+1) * 2.5e-10
		} else if rows[i].rel == GE {
			rows[i].rhs -= float64(i+1) * 2.5e-10
		}
	}

	// Standard form: Ax = b with slacks/artificials, b ≥ 0.
	// Column layout: [structural n][slack/surplus s][artificial t]
	nSlack := 0
	for _, r := range rows {
		if r.rel != EQ {
			nSlack++
		}
	}
	total := n + nSlack
	artStart := total
	// Tableau: m rows × (total + artificials) + rhs column; artificials
	// added lazily below.
	type tbl struct {
		a     [][]float64
		b     []float64
		basis []int
	}
	t := tbl{
		a:     make([][]float64, m),
		b:     make([]float64, m),
		basis: make([]int, m),
	}
	nArt := 0
	slackIdx := 0
	artOf := make([]int, m)
	for i := range rows {
		artOf[i] = -1
	}
	for i, r := range rows {
		coef := make([]float64, total)
		copy(coef, r.a)
		rhs := r.rhs
		sign := 1.0
		if rhs < 0 {
			sign = -1
			rhs = -rhs
			for j := range coef {
				coef[j] = -coef[j]
			}
		}
		rel := r.rel
		if sign < 0 {
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		switch rel {
		case LE:
			coef[n+slackIdx] = 1
			t.basis[i] = n + slackIdx
			slackIdx++
		case GE:
			coef[n+slackIdx] = -1
			slackIdx++
			artOf[i] = nArt
			nArt++
			t.basis[i] = -1 // artificial; patched below
		case EQ:
			artOf[i] = nArt
			nArt++
			t.basis[i] = -1
		}
		t.a[i] = coef
		t.b[i] = rhs
	}
	cols := total + nArt
	for i := range t.a {
		grown := make([]float64, cols)
		copy(grown, t.a[i])
		if artOf[i] >= 0 {
			grown[artStart+artOf[i]] = 1
			t.basis[i] = artStart + artOf[i]
		}
		t.a[i] = grown
	}

	pivot := func(r, c int) {
		pr := t.a[r]
		pv := pr[c]
		inv := 1 / pv
		for j := range pr {
			pr[j] *= inv
		}
		t.b[r] *= inv
		for i := range t.a {
			if i == r {
				continue
			}
			f := t.a[i][c]
			if f == 0 {
				continue
			}
			ri := t.a[i]
			for j := range ri {
				ri[j] -= f * pr[j]
			}
			t.b[i] -= f * t.b[r]
		}
		t.basis[r] = c
	}

	// simplex minimizes cost over the current tableau; returns status.
	simplex := func(cost []float64, allowed int) Status {
		// Reduced costs z_j = c_j − c_B·B⁻¹A_j maintained via elimination:
		// build the objective row and eliminate basic columns.
		z := make([]float64, allowed)
		copy(z, cost[:allowed])
		zb := 0.0
		for i, bj := range t.basis {
			cb := 0.0
			if bj < len(cost) {
				cb = cost[bj]
			}
			if cb == 0 {
				continue
			}
			ri := t.a[i]
			for j := 0; j < allowed; j++ {
				z[j] -= cb * ri[j]
			}
			zb += cb * t.b[i]
		}
		degenerate := 0
		budget := pivotBudget(m, allowed)
		for iter := 0; iter < budget; iter++ {
			// Entering column: Dantzig unless cycling suspected, then Bland.
			c := -1
			if degenerate < 50 {
				best := -eps
				for j := 0; j < allowed; j++ {
					if z[j] < best {
						best = z[j]
						c = j
					}
				}
			} else {
				for j := 0; j < allowed; j++ {
					if z[j] < -eps {
						c = j
						break
					}
				}
			}
			if c < 0 {
				return StatusOptimal
			}
			// Ratio test.
			r := -1
			minRatio := math.Inf(1)
			for i := 0; i < m; i++ {
				aic := t.a[i][c]
				if aic > eps {
					ratio := t.b[i] / aic
					if ratio < minRatio-eps || (ratio < minRatio+eps && (r < 0 || t.basis[i] < t.basis[r])) {
						minRatio = ratio
						r = i
					}
				}
			}
			if r < 0 {
				return StatusUnbounded
			}
			if minRatio < eps {
				degenerate++
			} else {
				degenerate = 0
			}
			pivot(r, c)
			// Update objective row.
			f := z[c]
			pr := t.a[r]
			for j := 0; j < allowed; j++ {
				z[j] -= f * pr[j]
			}
			zb -= f * t.b[r]
		}
		return StatusIterLimit
	}

	if nArt > 0 {
		phase1 := make([]float64, cols)
		for j := artStart; j < cols; j++ {
			phase1[j] = 1
		}
		st := simplex(phase1, cols)
		if st == StatusIterLimit {
			return &Solution{Status: StatusIterLimit}, nil
		}
		// Feasible iff all artificials are (numerically) zero.
		sum := 0.0
		for i, bj := range t.basis {
			if bj >= artStart {
				sum += t.b[i]
			}
		}
		if sum > 1e-6 {
			return &Solution{Status: StatusInfeasible}, nil
		}
		// Drive remaining artificials out of the basis where possible.
		for i := 0; i < m; i++ {
			if t.basis[i] >= artStart {
				for j := 0; j < total; j++ {
					if math.Abs(t.a[i][j]) > eps {
						pivot(i, j)
						break
					}
				}
			}
		}
	}

	phase2 := make([]float64, cols)
	for c, j := range active {
		phase2[c] = p.obj[j]
	}
	st := simplex(phase2, total) // artificials excluded from entering
	if st == StatusUnbounded {
		return &Solution{Status: StatusUnbounded}, nil
	}
	if st == StatusIterLimit {
		return &Solution{Status: StatusIterLimit}, nil
	}

	x := make([]float64, nAll)
	copy(x, lo) // fixed variables sit at their (common) bound
	for i, bj := range t.basis {
		if bj < n {
			x[active[bj]] += t.b[i]
		}
	}
	obj := objConst
	for _, j := range active {
		obj += p.obj[j] * (x[j] - lo[j])
	}
	return &Solution{Status: StatusOptimal, X: x, Obj: obj}, nil
}

// MILPOptions bounds the branch-and-bound search.
type MILPOptions struct {
	// MaxNodes caps explored nodes (0 = 100000).
	MaxNodes int
	// TimeLimit caps wall time (0 = none).
	TimeLimit time.Duration
	// Gap stops when (incumbent − bound)/|incumbent| falls below it.
	Gap float64
}

// SolveMILP solves the problem honoring integrality via depth-first
// branch-and-bound over LP relaxations. On hitting a limit it returns the
// best incumbent with StatusFeasible.
func SolveMILP(p *Problem, opt MILPOptions) (*Solution, error) {
	if opt.MaxNodes <= 0 {
		opt.MaxNodes = 100_000
	}
	deadline := time.Time{}
	if opt.TimeLimit > 0 {
		deadline = time.Now().Add(opt.TimeLimit)
	}

	type node struct {
		lo, hi []float64
	}
	root := node{lo: append([]float64(nil), p.lo...), hi: append([]float64(nil), p.hi...)}
	stack := []node{root}

	var best *Solution
	nodes := 0
	limitHit := false

	for len(stack) > 0 {
		if nodes >= opt.MaxNodes || (!deadline.IsZero() && time.Now().After(deadline)) {
			limitHit = true
			break
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++

		sol, err := solveRelaxation(p, nd.lo, nd.hi)
		if err != nil {
			return nil, err
		}
		if DebugMILP {
			fmt.Printf("node %d: %s obj=%v\n", nodes, sol.Status, sol.Obj)
		}
		if sol.Status != StatusOptimal {
			continue // infeasible or pathological subtree
		}
		if best != nil {
			gapOK := sol.Obj >= best.Obj-eps
			if opt.Gap > 0 && best.Obj != 0 {
				gapOK = sol.Obj >= best.Obj*(1-opt.Gap)-eps
			}
			if gapOK {
				continue // bound cannot beat incumbent
			}
		}
		// Most-fractional branching among the highest-priority class with
		// any fractional variable.
		branch := -1
		worst := intTol
		bestPrio := math.MinInt32
		for j := range p.integer {
			if !p.integer[j] {
				continue
			}
			f := math.Abs(sol.X[j] - math.Round(sol.X[j]))
			if f <= intTol {
				continue
			}
			if p.prio[j] > bestPrio || (p.prio[j] == bestPrio && f > worst) {
				bestPrio = p.prio[j]
				worst = f
				branch = j
			}
		}
		if branch < 0 {
			// Integral: candidate incumbent.
			cand := *sol
			cand.X = append([]float64(nil), sol.X...)
			for j := range p.integer {
				if p.integer[j] {
					cand.X[j] = math.Round(cand.X[j])
				}
			}
			if best == nil || cand.Obj < best.Obj-eps {
				best = &cand
			}
			continue
		}
		v := sol.X[branch]
		if DebugMILP {
			fmt.Printf("  branch %s = %v\n", p.names[branch], v)
		}
		// Explore the "round toward relaxation" child last so DFS pops it
		// first (LIFO), finding good incumbents early.
		down := node{lo: append([]float64(nil), nd.lo...), hi: append([]float64(nil), nd.hi...)}
		down.hi[branch] = math.Floor(v)
		up := node{lo: append([]float64(nil), nd.lo...), hi: append([]float64(nil), nd.hi...)}
		up.lo[branch] = math.Ceil(v)
		if v-math.Floor(v) > 0.5 {
			stack = append(stack, down, up)
		} else {
			stack = append(stack, up, down)
		}
	}

	if best == nil {
		st := StatusInfeasible
		if limitHit {
			st = StatusIterLimit
		}
		return &Solution{Status: st, Nodes: nodes}, nil
	}
	best.Nodes = nodes
	if limitHit {
		best.Status = StatusFeasible
	} else {
		best.Status = StatusOptimal
	}
	return best, nil
}
