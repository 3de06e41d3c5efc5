package lp

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// max 3x+2y s.t. x+y<=4, x+3y<=6, x,y>=0  → min -3x-2y, optimum x=4,y=0, obj=-12.
func TestLPKnownOptimum(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", -3, 0, math.Inf(1), false)
	y := p.AddVar("y", -2, 0, math.Inf(1), false)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 4)
	p.AddConstraint([]Term{{x, 1}, {y, 3}}, LE, 6)
	sol, err := SolveLP(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %s", sol.Status)
	}
	if !almost(sol.Obj, -12) || !almost(sol.Value(x), 4) || !almost(sol.Value(y), 0) {
		t.Fatalf("obj=%v x=%v y=%v, want -12, 4, 0", sol.Obj, sol.Value(x), sol.Value(y))
	}
}

// Classic degenerate + equality + GE mix:
// min x+y s.t. x+y>=2, x-y=0 → x=y=1, obj 2.
func TestLPEqualityAndGE(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1, 0, math.Inf(1), false)
	y := p.AddVar("y", 1, 0, math.Inf(1), false)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 2)
	p.AddConstraint([]Term{{x, 1}, {y, -1}}, EQ, 0)
	sol, err := SolveLP(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || !almost(sol.Obj, 2) || !almost(sol.Value(x), 1) {
		t.Fatalf("got %s obj=%v x=%v", sol.Status, sol.Obj, sol.Value(x))
	}
}

func TestLPInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1, 0, math.Inf(1), false)
	p.AddConstraint([]Term{{x, 1}}, GE, 5)
	p.AddConstraint([]Term{{x, 1}}, LE, 3)
	sol, err := SolveLP(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %s, want infeasible", sol.Status)
	}
}

func TestLPUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", -1, 0, math.Inf(1), false)
	p.AddConstraint([]Term{{x, -1}}, LE, 1) // -x <= 1, x unbounded above
	sol, err := SolveLP(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusUnbounded {
		t.Fatalf("status = %s, want unbounded", sol.Status)
	}
}

func TestLPVariableBounds(t *testing.T) {
	// min -x with 1 <= x <= 3 → x=3.
	p := NewProblem()
	x := p.AddVar("x", -1, 1, 3, false)
	sol, err := SolveLP(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || !almost(sol.Value(x), 3) || !almost(sol.Obj, -3) {
		t.Fatalf("got %s x=%v obj=%v", sol.Status, sol.Value(x), sol.Obj)
	}
	// Contradictory bounds are infeasible.
	p2 := NewProblem()
	p2.AddVar("x", 1, 5, 2, false)
	sol2, _ := SolveLP(p2)
	if sol2.Status != StatusInfeasible {
		t.Fatalf("bad bounds: %s", sol2.Status)
	}
}

func TestLPNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -2  (i.e. x >= 2) → x = 2.
	p := NewProblem()
	x := p.AddVar("x", 1, 0, math.Inf(1), false)
	p.AddConstraint([]Term{{x, -1}}, LE, -2)
	sol, err := SolveLP(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || !almost(sol.Value(x), 2) {
		t.Fatalf("got %s x=%v", sol.Status, sol.Value(x))
	}
}

// Knapsack: max 10a+6b+4c s.t. a+b+c<=10, 5a+4b+3c<=45, integer.
// LP optimum is fractional; MILP must find integral optimum.
func TestMILPKnapsack(t *testing.T) {
	p := NewProblem()
	a := p.AddVar("a", -10, 0, math.Inf(1), true)
	b := p.AddVar("b", -6, 0, math.Inf(1), true)
	c := p.AddVar("c", -4, 0, math.Inf(1), true)
	p.AddConstraint([]Term{{a, 1}, {b, 1}, {c, 1}}, LE, 10)
	p.AddConstraint([]Term{{a, 5}, {b, 4}, {c, 3}}, LE, 45)
	sol, err := SolveMILP(p, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %s", sol.Status)
	}
	for _, v := range []Var{a, b, c} {
		if f := math.Abs(sol.Value(v) - math.Round(sol.Value(v))); f > 1e-6 {
			t.Fatalf("non-integral %s = %v", p.names[v], sol.Value(v))
		}
	}
	// Known optimum: obj = -76 (a=5,b=5,c=0? check: a+b=10, 5*5+4*5=45 ok,
	// value 10*5+6*5=80 → -80. Verify against brute force below.)
	best := 0.0
	for ai := 0; ai <= 10; ai++ {
		for bi := 0; bi+ai <= 10; bi++ {
			for ci := 0; ai+bi+ci <= 10; ci++ {
				if 5*ai+4*bi+3*ci <= 45 {
					v := float64(10*ai + 6*bi + 4*ci)
					if v > best {
						best = v
					}
				}
			}
		}
	}
	if !almost(sol.Obj, -best) {
		t.Fatalf("MILP obj = %v, brute force = %v", sol.Obj, -best)
	}
}

func TestMILPBinaryAssignment(t *testing.T) {
	// Assign 2 jobs to 2 machines, each machine ≤1 job, minimize cost.
	// costs: j0m0=4 j0m1=2 j1m0=3 j1m1=5 → optimal j0→m1, j1→m0 = 5.
	p := NewProblem()
	x00 := p.AddVar("x00", 4, 0, 1, true)
	x01 := p.AddVar("x01", 2, 0, 1, true)
	x10 := p.AddVar("x10", 3, 0, 1, true)
	x11 := p.AddVar("x11", 5, 0, 1, true)
	p.AddConstraint([]Term{{x00, 1}, {x01, 1}}, EQ, 1)
	p.AddConstraint([]Term{{x10, 1}, {x11, 1}}, EQ, 1)
	p.AddConstraint([]Term{{x00, 1}, {x10, 1}}, LE, 1)
	p.AddConstraint([]Term{{x01, 1}, {x11, 1}}, LE, 1)
	sol, err := SolveMILP(p, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || !almost(sol.Obj, 5) {
		t.Fatalf("got %s obj=%v, want optimal 5", sol.Status, sol.Obj)
	}
	if !almost(sol.Value(x01), 1) || !almost(sol.Value(x10), 1) {
		t.Fatalf("assignment x01=%v x10=%v", sol.Value(x01), sol.Value(x10))
	}
}

func TestMILPInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1, 0, 1, true)
	p.AddConstraint([]Term{{x, 2}}, EQ, 1) // x = 0.5 impossible for binary
	sol, err := SolveMILP(p, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %s", sol.Status)
	}
}

func TestMILPNodeLimitReturnsIncumbent(t *testing.T) {
	// A problem where B&B needs several nodes; with MaxNodes tiny we may
	// get feasible-with-incumbent or iteration-limit, never a wrong
	// "optimal" claim with a worse objective than the true optimum allows.
	p := NewProblem()
	vars := make([]Var, 6)
	for i := range vars {
		vars[i] = p.AddVar("x", -float64(i+1), 0, 1, true)
	}
	terms := make([]Term, len(vars))
	for i, v := range vars {
		terms[i] = Term{v, float64(i%3 + 1)}
	}
	p.AddConstraint(terms, LE, 5)
	sol, err := SolveMILP(p, MILPOptions{MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == StatusOptimal {
		// With only 3 nodes optimality is still possible if the relaxation
		// was integral; accept but verify integrality.
		for _, v := range vars {
			if f := math.Abs(sol.Value(v) - math.Round(sol.Value(v))); f > 1e-6 {
				t.Fatalf("claimed optimal with fractional value %v", sol.Value(v))
			}
		}
	}
}

// Property: for random small LPs with box constraints only, the optimum of
// min c·x with lo ≤ x ≤ hi picks lo when c>0 and hi when c<0.
func TestLPBoxProperty(t *testing.T) {
	f := func(cs [4]int8, seed uint8) bool {
		p := NewProblem()
		var vars []Var
		var want float64
		for i, c8 := range cs {
			c := float64(c8)
			lo := float64(i)
			hi := lo + 1 + float64(seed%5)
			vars = append(vars, p.AddVar("v", c, lo, hi, false))
			if c >= 0 {
				want += c * lo
			} else {
				want += c * hi
			}
		}
		sol, err := SolveLP(p)
		if err != nil || sol.Status != StatusOptimal {
			return false
		}
		return math.Abs(sol.Obj-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: MILP objective is never better than the LP relaxation bound.
func TestMILPWeakerThanLP(t *testing.T) {
	f := func(a, b, c int8, r uint8) bool {
		p := NewProblem()
		x := p.AddVar("x", float64(a%5), 0, 10, true)
		y := p.AddVar("y", float64(b%5), 0, 10, true)
		p.AddConstraint([]Term{{x, 1}, {y, 2}}, GE, float64(r%15))
		p.AddConstraint([]Term{{x, 2}, {y, 1}}, LE, 20)
		rel, err1 := SolveLP(p)
		mip, err2 := SolveMILP(p, MILPOptions{})
		if err1 != nil || err2 != nil {
			return false
		}
		if rel.Status != StatusOptimal {
			return true // nothing to compare
		}
		if mip.Status == StatusInfeasible {
			return true
		}
		return mip.Obj >= rel.Obj-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLPMedium(b *testing.B) {
	// 50 vars, 30 constraints dense-ish LP.
	build := func() *Problem {
		p := NewProblem()
		vars := make([]Var, 50)
		for i := range vars {
			vars[i] = p.AddVar("x", float64((i*7)%11)-5, 0, 100, false)
		}
		for r := 0; r < 30; r++ {
			terms := make([]Term, 0, 10)
			for j := 0; j < 10; j++ {
				terms = append(terms, Term{vars[(r*10+j*3)%50], float64((r+j)%7 + 1)})
			}
			p.AddConstraint(terms, LE, float64(50+r))
		}
		return p
	}
	p := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveLP(p); err != nil {
			b.Fatal(err)
		}
	}
}
