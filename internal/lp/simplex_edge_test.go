package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestBoundFlips forces the solver through bound-flip iterations: variables
// whose optimal values sit at upper bounds without entering the basis.
func TestBoundFlips(t *testing.T) {
	// max sum x_i st sum x_i <= 100, x_i in [0, 1], 50 variables: all at
	// upper bound, constraint slack.
	p := NewProblem(Maximize)
	n := 50
	idx := make([]int, n)
	coef := make([]float64, n)
	for j := 0; j < n; j++ {
		idx[j] = p.AddVariable(1, 0, 1)
		coef[j] = 1
	}
	p.MustAddConstraint(idx, coef, LE, 100)
	sol := solveOK(t, p)
	if !almost(sol.Objective, float64(n), 1e-9) {
		t.Fatalf("obj = %g, want %d", sol.Objective, n)
	}
	for j := 0; j < n; j++ {
		if !almost(sol.X[j], 1, 1e-9) {
			t.Fatalf("x[%d] = %g, want 1", j, sol.X[j])
		}
	}
}

func TestMixedRelations(t *testing.T) {
	// min x + y + z st x + y >= 2, y + z = 3, z <= 1.5, all >= 0.
	// Optimal: z=1.5 -> y=1.5 -> x=0.5: obj=3.5. Check: x+y>=2 -> x>=0.5.
	p := NewProblem(Minimize)
	x := p.AddVariable(1, 0, Inf)
	y := p.AddVariable(1, 0, Inf)
	z := p.AddVariable(1, 0, Inf)
	p.MustAddConstraint([]int{x, y}, []float64{1, 1}, GE, 2)
	p.MustAddConstraint([]int{y, z}, []float64{1, 1}, EQ, 3)
	p.MustAddConstraint([]int{z}, []float64{1}, LE, 1.5)
	sol := solveOK(t, p)
	// Any split with x+y=2, y+z=3 yields obj = 2 + z... wait obj = x+y+z =
	// 2 + z when x+y = 2 binding; minimized at z as small as possible:
	// z = 3 - y and y <= 2 (y part of x+y=2 means y<=2), so z >= 1 -> obj 3.
	if !almost(sol.Objective, 3, 1e-7) {
		t.Fatalf("obj = %g, want 3", sol.Objective)
	}
}

func TestGEDualSign(t *testing.T) {
	// max -x st x >= 2 (binding). Dual of a binding >= row in a max problem
	// must be <= 0 under our convention.
	p := NewProblem(Maximize)
	x := p.AddVariable(-1, 0, Inf)
	row := p.MustAddConstraint([]int{x}, []float64{1}, GE, 2)
	sol := solveOK(t, p)
	if sol.Dual[row] > 1e-9 {
		t.Fatalf("dual of binding >= row = %g, want <= 0", sol.Dual[row])
	}
	if !almost(sol.Dual[row], -1, 1e-7) {
		t.Fatalf("dual = %g, want -1", sol.Dual[row])
	}
}

func TestIterationLimitReported(t *testing.T) {
	p := NewProblem(Maximize)
	n := 30
	for j := 0; j < n; j++ {
		p.AddVariable(float64(j+1), 0, 10)
	}
	for r := 0; r < 25; r++ {
		var idx []int
		var coef []float64
		for j := 0; j < n; j++ {
			if (r+j)%2 == 0 {
				idx = append(idx, j)
				coef = append(coef, float64(1+(r*j)%3))
			}
		}
		p.MustAddConstraint(idx, coef, LE, float64(5+r))
	}
	p.MaxIters = 3 // absurdly small budget
	sol := solveBoth(t, p)
	if sol.Status != IterationLimit {
		t.Fatalf("status = %v, want iteration-limit", sol.Status)
	}
	if sol.Iters > 3 {
		t.Fatalf("iters = %d, budget was 3", sol.Iters)
	}
}

func TestNaNRejected(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable(math.NaN(), 0, 1)
	_ = x
	if _, err := p.Solve(); err == nil {
		t.Fatal("want error for NaN objective")
	}
	p2 := NewProblem(Maximize)
	y := p2.AddVariable(1, 0, 1)
	p2.MustAddConstraint([]int{y}, []float64{1}, LE, math.NaN())
	if _, err := p2.Solve(); err == nil {
		t.Fatal("want error for NaN rhs")
	}
}

// TestRefactorizationStability runs enough pivots to trigger several
// refactorizations and verifies the final solution is still feasible.
func TestRefactorizationStability(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n, m := 400, 120
	p := NewProblem(Maximize)
	type entry struct {
		r, j int
		v    float64
	}
	var entries []entry
	for j := 0; j < n; j++ {
		p.AddVariable(rng.Float64()*10, 0, 5)
	}
	rows := make([][]int, m)
	coefs := make([][]float64, m)
	b := make([]float64, m)
	for r := 0; r < m; r++ {
		for j := r % 7; j < n; j += 7 {
			v := 0.5 + rng.Float64()
			rows[r] = append(rows[r], j)
			coefs[r] = append(coefs[r], v)
			entries = append(entries, entry{r, j, v})
		}
		b[r] = 20 + rng.Float64()*30
		p.MustAddConstraint(rows[r], coefs[r], LE, b[r])
	}
	sol := solveOK(t, p)
	// Verify primal feasibility against the original data.
	lhs := make([]float64, m)
	for _, e := range entries {
		lhs[e.r] += e.v * sol.X[e.j]
	}
	for r := 0; r < m; r++ {
		if lhs[r] > b[r]+1e-5 {
			t.Fatalf("row %d violated after refactorizations: %g > %g", r, lhs[r], b[r])
		}
	}
	if sol.Iters < refactEvery {
		t.Skipf("only %d iterations; refactorization untested on this instance", sol.Iters)
	}
}
