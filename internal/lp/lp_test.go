package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol := solveBoth(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b)) }

func TestTrivialMax(t *testing.T) {
	// max 3x + 2y st x+y <= 4, x <= 2, x,y >= 0  -> x=2, y=2, obj=10
	p := NewProblem(Maximize)
	x := p.AddVariable(3, 0, Inf)
	y := p.AddVariable(2, 0, Inf)
	p.MustAddConstraint([]int{x, y}, []float64{1, 1}, LE, 4)
	p.MustAddConstraint([]int{x}, []float64{1}, LE, 2)
	sol := solveOK(t, p)
	if !almost(sol.Objective, 10, 1e-9) {
		t.Fatalf("obj = %g, want 10", sol.Objective)
	}
	if !almost(sol.X[x], 2, 1e-9) || !almost(sol.X[y], 2, 1e-9) {
		t.Fatalf("x = %v, want [2 2]", sol.X)
	}
}

func TestVariableUpperBounds(t *testing.T) {
	// max x + y st x + 2y <= 6, 0<=x<=1, 0<=y<=2 -> x=1, y=2 (slack left), obj=3
	p := NewProblem(Maximize)
	x := p.AddVariable(1, 0, 1)
	y := p.AddVariable(1, 0, 2)
	p.MustAddConstraint([]int{x, y}, []float64{1, 2}, LE, 6)
	sol := solveOK(t, p)
	if !almost(sol.Objective, 3, 1e-9) {
		t.Fatalf("obj = %g, want 3", sol.Objective)
	}
}

func TestMinimize(t *testing.T) {
	// min 2x + 3y st x + y >= 4, x >= 0, y >= 0 -> x=4, y=0, obj=8
	p := NewProblem(Minimize)
	x := p.AddVariable(2, 0, Inf)
	y := p.AddVariable(3, 0, Inf)
	p.MustAddConstraint([]int{x, y}, []float64{1, 1}, GE, 4)
	sol := solveOK(t, p)
	if !almost(sol.Objective, 8, 1e-9) {
		t.Fatalf("obj = %g, want 8", sol.Objective)
	}
	if !almost(sol.X[x], 4, 1e-9) {
		t.Fatalf("x = %g, want 4", sol.X[x])
	}
}

func TestEquality(t *testing.T) {
	// max x + 2y st x + y = 3, y <= 2 -> x=1,y=2, obj=5
	p := NewProblem(Maximize)
	x := p.AddVariable(1, 0, Inf)
	y := p.AddVariable(2, 0, 2)
	p.MustAddConstraint([]int{x, y}, []float64{1, 1}, EQ, 3)
	sol := solveOK(t, p)
	if !almost(sol.Objective, 5, 1e-9) {
		t.Fatalf("obj = %g, want 5", sol.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable(1, 0, Inf)
	p.MustAddConstraint([]int{x}, []float64{1}, LE, 1)
	p.MustAddConstraint([]int{x}, []float64{1}, GE, 2)
	sol := solveBoth(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable(1, 0, Inf)
	y := p.AddVariable(0, 0, Inf)
	p.MustAddConstraint([]int{x, y}, []float64{1, -1}, LE, 1)
	sol := solveBoth(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestNegativeRHSNeedsPhase1(t *testing.T) {
	// max -x st -x <= -2  (x >= 2), x <= 5 -> x=2, obj=-2
	p := NewProblem(Maximize)
	x := p.AddVariable(-1, 0, 5)
	p.MustAddConstraint([]int{x}, []float64{-1}, LE, -2)
	sol := solveOK(t, p)
	if !almost(sol.Objective, -2, 1e-9) {
		t.Fatalf("obj = %g, want -2", sol.Objective)
	}
}

func TestFreeVariable(t *testing.T) {
	// max x st x + y <= 3, y >= 1, y free in objective; x free below too.
	p := NewProblem(Maximize)
	x := p.AddVariable(1, math.Inf(-1), Inf)
	y := p.AddVariable(0, 1, Inf)
	p.MustAddConstraint([]int{x, y}, []float64{1, 1}, LE, 3)
	sol := solveOK(t, p)
	if !almost(sol.Objective, 2, 1e-9) {
		t.Fatalf("obj = %g, want 2", sol.Objective)
	}
}

func TestDualsLEMax(t *testing.T) {
	// max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18.
	// Classic: x=2, y=6, obj=36, duals (0, 3/2, 1).
	p := NewProblem(Maximize)
	x := p.AddVariable(3, 0, Inf)
	y := p.AddVariable(5, 0, Inf)
	c1 := p.MustAddConstraint([]int{x}, []float64{1}, LE, 4)
	c2 := p.MustAddConstraint([]int{y}, []float64{2}, LE, 12)
	c3 := p.MustAddConstraint([]int{x, y}, []float64{3, 2}, LE, 18)
	sol := solveOK(t, p)
	if !almost(sol.Objective, 36, 1e-9) {
		t.Fatalf("obj = %g, want 36", sol.Objective)
	}
	if !almost(sol.Dual[c1], 0, 1e-7) || !almost(sol.Dual[c2], 1.5, 1e-7) || !almost(sol.Dual[c3], 1, 1e-7) {
		t.Fatalf("duals = %v, want [0 1.5 1]", []float64{sol.Dual[c1], sol.Dual[c2], sol.Dual[c3]})
	}
	// Strong duality: b.y == objective.
	if !almost(4*sol.Dual[c1]+12*sol.Dual[c2]+18*sol.Dual[c3], 36, 1e-7) {
		t.Fatalf("strong duality violated: b.y = %g", 4*sol.Dual[c1]+12*sol.Dual[c2]+18*sol.Dual[c3])
	}
}

func TestDegenerateLP(t *testing.T) {
	// Highly degenerate: many constraints active at the optimum.
	p := NewProblem(Maximize)
	x := p.AddVariable(1, 0, Inf)
	y := p.AddVariable(1, 0, Inf)
	for i := 0; i < 20; i++ {
		p.MustAddConstraint([]int{x, y}, []float64{1, 1}, LE, 2)
	}
	p.MustAddConstraint([]int{x}, []float64{1}, LE, 1)
	sol := solveOK(t, p)
	if !almost(sol.Objective, 2, 1e-9) {
		t.Fatalf("obj = %g, want 2", sol.Objective)
	}
}

// bruteForceBoxLP maximizes c.x over {x in [0,u]^n : Ax <= b} by enumerating
// all candidate vertices via brute force over active sets, for tiny n only.
// It uses dense Gaussian elimination over every subset of rows/bounds.
// Instead of full vertex enumeration (complex), it grids the box finely and
// takes the best feasible point; adequate as a sanity lower bound, plus we
// verify the simplex answer is feasible and >= grid answer.
func bruteForceGrid(c []float64, u []float64, A [][]float64, b []float64, steps int) float64 {
	n := len(c)
	best := math.Inf(-1)
	var rec func(i int, x []float64)
	rec = func(i int, x []float64) {
		if i == n {
			for r := range A {
				dot := 0.0
				for j := 0; j < n; j++ {
					dot += A[r][j] * x[j]
				}
				if dot > b[r]+1e-9 {
					return
				}
			}
			obj := 0.0
			for j := 0; j < n; j++ {
				obj += c[j] * x[j]
			}
			if obj > best {
				best = obj
			}
			return
		}
		for s := 0; s <= steps; s++ {
			x[i] = u[i] * float64(s) / float64(steps)
			rec(i+1, x)
		}
	}
	rec(0, make([]float64, n))
	return best
}

func TestRandomVsGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(2) // 2..3 vars
		m := 1 + rng.Intn(3)
		c := make([]float64, n)
		u := make([]float64, n)
		for j := range c {
			c[j] = math.Round(rng.Float64()*10*2) / 2
			u[j] = 1 + rng.Float64()*3
		}
		A := make([][]float64, m)
		b := make([]float64, m)
		for r := range A {
			A[r] = make([]float64, n)
			for j := range A[r] {
				A[r][j] = rng.Float64() * 2
			}
			b[r] = 1 + rng.Float64()*4
		}
		p := NewProblem(Maximize)
		for j := 0; j < n; j++ {
			p.AddVariable(c[j], 0, u[j])
		}
		for r := 0; r < m; r++ {
			idx := make([]int, n)
			for j := range idx {
				idx[j] = j
			}
			p.MustAddConstraint(idx, A[r], LE, b[r])
		}
		sol := solveOK(t, p)
		grid := bruteForceGrid(c, u, A, b, 60)
		if sol.Objective < grid-1e-4 {
			t.Fatalf("trial %d: simplex %.6f below grid lower bound %.6f", trial, sol.Objective, grid)
		}
		// Feasibility of the reported solution.
		for r := 0; r < m; r++ {
			dot := 0.0
			for j := 0; j < n; j++ {
				dot += A[r][j] * sol.X[j]
			}
			if dot > b[r]+1e-6 {
				t.Fatalf("trial %d: constraint %d violated: %g > %g", trial, r, dot, b[r])
			}
		}
		for j := 0; j < n; j++ {
			if sol.X[j] < -1e-9 || sol.X[j] > u[j]+1e-6 {
				t.Fatalf("trial %d: bound violated on var %d: %g not in [0,%g]", trial, j, sol.X[j], u[j])
			}
		}
	}
}

// TestRandomDuality checks weak/strong duality and dual feasibility on
// random feasible-by-construction max/<= LPs.
func TestRandomDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		m := 2 + rng.Intn(6)
		p := NewProblem(Maximize)
		c := make([]float64, n)
		for j := 0; j < n; j++ {
			c[j] = rng.Float64() * 5
			p.AddVariable(c[j], 0, 10)
		}
		A := make([][]float64, m)
		b := make([]float64, m)
		for r := 0; r < m; r++ {
			A[r] = make([]float64, n)
			idx := make([]int, 0, n)
			coef := make([]float64, 0, n)
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.7 {
					A[r][j] = rng.Float64() * 3
					idx = append(idx, j)
					coef = append(coef, A[r][j])
				}
			}
			b[r] = 1 + rng.Float64()*8
			if len(idx) == 0 {
				idx = append(idx, 0)
				coef = append(coef, 0.5)
				A[r][0] = 0.5
			}
			p.MustAddConstraint(idx, coef, LE, b[r])
		}
		sol := solveOK(t, p)
		// Dual feasibility: y >= 0 and A^T y >= c componentwise where the
		// primal variable is strictly inside its bounds; with upper bounds
		// the reduced cost may be positive if x_j is at its upper bound.
		for r := 0; r < m; r++ {
			if sol.Dual[r] < -1e-6 {
				t.Fatalf("trial %d: negative dual %g", trial, sol.Dual[r])
			}
		}
		for j := 0; j < n; j++ {
			red := c[j]
			for r := 0; r < m; r++ {
				red -= A[r][j] * sol.Dual[r]
			}
			inLower := sol.X[j] < 1e-7
			inUpper := sol.X[j] > 10-1e-7
			if !inLower && !inUpper && math.Abs(red) > 1e-5 {
				t.Fatalf("trial %d: interior var %d has reduced cost %g", trial, j, red)
			}
			if inLower && red > 1e-5 {
				t.Fatalf("trial %d: var %d at lower with positive reduced cost %g", trial, j, red)
			}
			if inUpper && red < -1e-5 {
				t.Fatalf("trial %d: var %d at upper with negative reduced cost %g", trial, j, red)
			}
		}
		// Strong duality with bound terms: obj = b.y + sum_j u_j * max(0, reduced_j).
		by := 0.0
		for r := 0; r < m; r++ {
			by += b[r] * sol.Dual[r]
		}
		for j := 0; j < n; j++ {
			red := c[j]
			for r := 0; r < m; r++ {
				red -= A[r][j] * sol.Dual[r]
			}
			if red > 0 {
				by += 10 * red
			}
		}
		if !almost(by, sol.Objective, 1e-5) {
			t.Fatalf("trial %d: strong duality: dual obj %g vs primal %g", trial, by, sol.Objective)
		}
	}
}

func TestLargerSparseLP(t *testing.T) {
	// A mid-size assignment-flavoured LP to exercise refactorization.
	rng := rand.New(rand.NewSource(3))
	n, m := 300, 120
	p := NewProblem(Maximize)
	for j := 0; j < n; j++ {
		p.AddVariable(1+rng.Float64(), 0, 1)
	}
	for r := 0; r < m; r++ {
		var idx []int
		var coef []float64
		for j := r; j < n; j += m / 3 {
			idx = append(idx, j%n)
			coef = append(coef, 1)
		}
		p.MustAddConstraint(dedupe(idx, &coef), coef, LE, 2)
	}
	sol := solveOK(t, p)
	if sol.Objective <= 0 {
		t.Fatalf("obj = %g, want > 0", sol.Objective)
	}
}

// dedupe removes duplicate indices (keeping first) and trims coef in step.
func dedupe(idx []int, coef *[]float64) []int {
	seen := map[int]bool{}
	outI := idx[:0]
	outC := (*coef)[:0]
	for k, j := range idx {
		if seen[j] {
			continue
		}
		seen[j] = true
		outI = append(outI, j)
		outC = append(outC, (*coef)[k])
	}
	*coef = outC
	return outI
}

func TestFixedVariable(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable(5, 2, 2) // fixed at 2
	y := p.AddVariable(1, 0, Inf)
	p.MustAddConstraint([]int{x, y}, []float64{1, 1}, LE, 5)
	sol := solveOK(t, p)
	if !almost(sol.X[x], 2, 1e-9) || !almost(sol.Objective, 13, 1e-9) {
		t.Fatalf("got x=%g obj=%g, want x=2 obj=13", sol.X[x], sol.Objective)
	}
}

func TestEmptyObjective(t *testing.T) {
	// Pure feasibility problem.
	p := NewProblem(Maximize)
	x := p.AddVariable(0, 0, Inf)
	p.MustAddConstraint([]int{x}, []float64{1}, GE, 3)
	sol := solveOK(t, p)
	if sol.X[x] < 3-1e-7 {
		t.Fatalf("x = %g, want >= 3", sol.X[x])
	}
}

func TestNoConstraints(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable(2, 0, 7)
	sol := solveOK(t, p)
	if !almost(sol.Objective, 14, 1e-9) {
		t.Fatalf("obj = %g, want 14", sol.Objective)
	}
	_ = x
}

func TestConstraintValidation(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable(1, 0, 1)
	if _, err := p.AddConstraint([]int{x, x}, []float64{1, 1}, LE, 1); err == nil {
		t.Fatal("want error for duplicate variable in constraint")
	}
	if _, err := p.AddConstraint([]int{99}, []float64{1}, LE, 1); err == nil {
		t.Fatal("want error for unknown variable")
	}
	if _, err := p.AddConstraint([]int{x}, []float64{1, 2}, LE, 1); err == nil {
		t.Fatal("want error for length mismatch")
	}
}
