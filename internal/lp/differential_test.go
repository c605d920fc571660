package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameSolution reports the first field where two solutions differ. Values
// are compared with ==, so -0 matches +0 and nothing else is forgiven.
func sameSolution(got, want *Solution) error {
	if got.Status != want.Status {
		return fmt.Errorf("status %v, dense %v", got.Status, want.Status)
	}
	if got.Iters != want.Iters {
		return fmt.Errorf("iters %d, dense %d", got.Iters, want.Iters)
	}
	if got.Objective != want.Objective {
		return fmt.Errorf("objective %v, dense %v", got.Objective, want.Objective)
	}
	if len(got.X) != len(want.X) || len(got.Dual) != len(want.Dual) {
		return fmt.Errorf("shape %d/%d, dense %d/%d", len(got.X), len(got.Dual), len(want.X), len(want.Dual))
	}
	for j := range got.X {
		if got.X[j] != want.X[j] {
			return fmt.Errorf("x[%d] %v, dense %v", j, got.X[j], want.X[j])
		}
	}
	for i := range got.Dual {
		if got.Dual[i] != want.Dual[i] {
			return fmt.Errorf("dual[%d] %v, dense %v", i, got.Dual[i], want.Dual[i])
		}
	}
	return nil
}

// solveBoth solves p with the kernel and with the dense reference, fails
// the test unless the two solutions are identical, and returns the
// kernel's.
func solveBoth(t testing.TB, p *Problem) *Solution {
	t.Helper()
	got, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want, err := solveDense(p)
	if err != nil {
		t.Fatalf("dense Solve: %v", err)
	}
	if err := sameSolution(got, want); err != nil {
		t.Fatalf("sparse kernel diverges from the dense reference (%d rows, %d vars): %v",
			p.NumConstraints(), p.NumVariables(), err)
	}
	return got
}

// lpSource draws the numbers of a random LP. Values come from a small grid
// of integers and halves so that ties, degenerate vertices and exact
// cancellations are common.
type lpSource interface {
	Intn(n int) int
}

func gridValue(src lpSource, span int) float64 {
	return float64(src.Intn(4*span+1)-2*span) / 2
}

// randomLP builds an LP with n variables and m rows. Variables are
// nonnegative, boxed, free or fixed; rows are LE, GE or EQ with density
// about 1/density and right-hand sides of either sign, so phase I is
// frequent.
func randomLP(src lpSource, n, m, density int) *Problem {
	sense := Maximize
	if src.Intn(2) == 1 {
		sense = Minimize
	}
	p := NewProblem(sense)
	for j := 0; j < n; j++ {
		obj := gridValue(src, 4)
		switch src.Intn(6) {
		case 0:
			p.AddVariable(obj, math.Inf(-1), Inf)
		case 1:
			v := gridValue(src, 2)
			p.AddVariable(obj, v, v)
		case 2:
			lo := gridValue(src, 2)
			p.AddVariable(obj, lo, lo+float64(1+src.Intn(6)))
		case 3:
			p.AddVariable(obj, math.Inf(-1), gridValue(src, 3))
		default:
			p.AddVariable(obj, 0, Inf)
		}
	}
	for i := 0; i < m; i++ {
		var idx []int
		var coef []float64
		for j := 0; j < n; j++ {
			if src.Intn(density) != 0 {
				continue
			}
			if v := gridValue(src, 3); v != 0 {
				idx = append(idx, j)
				coef = append(coef, v)
			}
		}
		rhs := gridValue(src, 8)
		if src.Intn(3) == 0 {
			rhs = 0 // rows through the origin make degenerate vertices
		}
		p.MustAddConstraint(idx, coef, Rel(src.Intn(3)), rhs)
	}
	return p
}

// degenerateLP is a box-bounded LP whose rows all pass through the origin,
// so the simplex starts at a vertex where most pivots have step zero.
func degenerateLP(rng *rand.Rand, n, m int) *Problem {
	p := NewProblem(Maximize)
	for j := 0; j < n; j++ {
		p.AddVariable(1+float64(rng.Intn(5)), 0, 1+float64(rng.Intn(3)))
	}
	for i := 0; i < m; i++ {
		var idx []int
		var coef []float64
		for j := 0; j < n; j++ {
			if rng.Intn(4) == 0 {
				idx = append(idx, j)
				coef = append(coef, float64(rng.Intn(5)-2))
			}
		}
		p.MustAddConstraint(idx, coef, LE, 0)
	}
	return p
}

// kernelTrace solves p on the sparse kernel and reports which regimes the
// solve went through.
func kernelTrace(p *Problem) (phase1, bland, refactorized bool) {
	s := newSimplex(p)
	for i := 0; i < s.m; i++ {
		phase1 = phase1 || s.x[s.nv+s.m+i] != 0
	}
	s.solve()
	return phase1, s.useBland, s.fw != nil
}

// TestSparseMatchesDense checks the kernel against the dense reference on
// seeded random LPs, and that the LPs reach every regime of the kernel:
// phase I, the Bland fallback and refactorization.
func TestSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2019))
	var problems []*Problem
	for trial := 0; trial < 300; trial++ {
		n, m := 1+rng.Intn(12), rng.Intn(10)
		problems = append(problems, randomLP(rng, n, m, 1+rng.Intn(3)))
	}
	for trial := 0; trial < 12; trial++ {
		problems = append(problems, randomLP(rng, 40+rng.Intn(80), 30+rng.Intn(60), 2+rng.Intn(6)))
	}
	for trial := 0; trial < 4; trial++ {
		problems = append(problems, degenerateLP(rng, 60, 150))
	}

	var phase1, bland, refact int
	for i, p := range problems {
		t.Run(fmt.Sprint(i), func(t *testing.T) { solveBoth(t, p) })
		ph, bl, rf := kernelTrace(p)
		if ph {
			phase1++
		}
		if bl {
			bland++
		}
		if rf {
			refact++
		}
	}
	t.Logf("%d LPs: %d with phase I, %d with the Bland fallback, %d refactorized", len(problems), phase1, bland, refact)
	if phase1 == 0 || bland == 0 || refact == 0 {
		t.Fatalf("coverage: phase I %d, Bland %d, refactorization %d; each must be > 0", phase1, bland, refact)
	}
}

// byteSource reads an LP's numbers from fuzz input, one byte per draw; an
// exhausted input reads as zeros.
type byteSource []byte

func (b *byteSource) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// FuzzSimplexMatchesDense decodes a small LP (up to 8 variables and 8 rows
// of any relation, bound kind and sign) from the input and requires the
// kernel's solution to equal the dense reference's.
func FuzzSimplexMatchesDense(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 64+rng.Intn(192))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		n, m := 1+src.Intn(8), src.Intn(9)
		p := randomLP(&src, n, m, 1+src.Intn(3))
		solveBoth(t, p)
	})
}
