// Package lp is a self-contained linear programming substrate built on the
// standard library only. It provides the solver that CVXPY provided for the
// paper's experiments: the per-edge LPs of the LPIP algorithm, the welfare
// LP (and its duals) of the CIP algorithm, the subadditive upper-bound LP,
// and the uniform-bundle-price refinement LP.
//
// The solver is a bounded-variable revised simplex with two phases
// (artificial variables), Dantzig pricing with a Bland anti-cycling
// fallback, and Gauss-Jordan refactorization every 256 pivots. Its kernel
// is sparse-aware. The basis inverse is one dense array, but a pivot
// touches only the nonzero columns of the pivot row, and in them only the
// rows where the entering column is nonzero. The multipliers are
// recomputed only at those columns. Reduced costs are cached and
// recomputed only for columns with a nonzero in a row whose multiplier
// changed. Refactorization eliminates over nonzeros only.
//
// The contract: the kernel skips exact zeros and nothing else. Every
// operation on a nonzero value is the one the dense method performs, in
// the same order, so while the arithmetic stays finite the kernel takes
// the dense method's pivots and returns the same status, objective,
// iteration count, primal values and duals (equal under ==). The
// package's tests hold a dense reference implementation and check this on
// random, fuzzed and pricing LPs.
//
// It is designed for the moderate sizes that arise in query pricing
// (hundreds to a few thousand rows), not for industrial-scale LPs.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the optimization direction of a Problem.
type Sense int

const (
	// Maximize the objective.
	Maximize Sense = iota
	// Minimize the objective.
	Minimize
)

// Rel is the relation of a linear constraint.
type Rel int

const (
	// LE is a "less than or equal" (<=) constraint.
	LE Rel = iota
	// GE is a "greater than or equal" (>=) constraint.
	GE
	// EQ is an equality (=) constraint.
	EQ
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Rel(%d)", int(r))
}

// Inf is positive infinity, usable as a variable upper bound.
var Inf = math.Inf(1)

// Status reports the outcome of Solve.
type Status int

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective is unbounded over the feasible region.
	Unbounded
	// IterationLimit means the solver gave up; the solution is the best
	// feasible point found so far (primal feasible but possibly suboptimal).
	IterationLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Problem is a linear program under construction. The zero value is not
// usable; create one with NewProblem.
type Problem struct {
	sense Sense

	obj    []float64 // objective coefficient per variable
	lo, hi []float64 // bounds per variable

	rows []constraint

	// MaxIters overrides the default iteration budget when positive.
	MaxIters int
}

type constraint struct {
	idx  []int
	coef []float64
	rel  Rel
	rhs  float64
}

// NewProblem returns an empty problem with the given optimization sense.
func NewProblem(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// AddVariable appends a variable with objective coefficient obj and bounds
// [lo, hi] and returns its index. lo may be math.Inf(-1) and hi may be
// lp.Inf. It panics if lo > hi.
func (p *Problem) AddVariable(obj, lo, hi float64) int {
	if lo > hi {
		panic(fmt.Sprintf("lp: variable bounds reversed [%g, %g]", lo, hi))
	}
	p.obj = append(p.obj, obj)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	return len(p.obj) - 1
}

// AddVariables appends k variables with identical parameters and returns the
// index of the first.
func (p *Problem) AddVariables(k int, obj, lo, hi float64) int {
	first := len(p.obj)
	for i := 0; i < k; i++ {
		p.AddVariable(obj, lo, hi)
	}
	return first
}

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.obj) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// AddConstraint appends the constraint sum_i coef[i]*x[idx[i]] rel rhs and
// returns its row index (used to read duals). Indices must be valid and
// distinct; coefficients and indices are copied.
func (p *Problem) AddConstraint(idx []int, coef []float64, rel Rel, rhs float64) (int, error) {
	if len(idx) != len(coef) {
		return 0, fmt.Errorf("lp: constraint has %d indices but %d coefficients", len(idx), len(coef))
	}
	seen := make(map[int]bool, len(idx))
	for _, j := range idx {
		if j < 0 || j >= len(p.obj) {
			return 0, fmt.Errorf("lp: constraint references unknown variable %d", j)
		}
		if seen[j] {
			return 0, fmt.Errorf("lp: constraint references variable %d twice", j)
		}
		seen[j] = true
	}
	ci := make([]int, len(idx))
	copy(ci, idx)
	cc := make([]float64, len(coef))
	copy(cc, coef)
	p.rows = append(p.rows, constraint{idx: ci, coef: cc, rel: rel, rhs: rhs})
	return len(p.rows) - 1, nil
}

// MustAddConstraint is AddConstraint but panics on error.
func (p *Problem) MustAddConstraint(idx []int, coef []float64, rel Rel, rhs float64) int {
	r, err := p.AddConstraint(idx, coef, rel, rhs)
	if err != nil {
		panic(err)
	}
	return r
}

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	Objective float64   // objective value in the problem's own sense
	X         []float64 // one value per variable
	Dual      []float64 // one value per constraint (see package docs on sign)
	Iters     int       // simplex iterations performed (both phases)
}

// ErrBadProblem is returned for structurally invalid problems.
var ErrBadProblem = errors.New("lp: invalid problem")

// Solve runs the simplex method and returns the solution. The Dual values
// follow the convention of a maximization problem with <= constraints:
// nonnegative for binding <= rows, nonpositive for binding >= rows, free for
// equalities. For Minimize problems duals are reported for the equivalent
// negated maximization, then negated back, so complementary slackness holds
// in the problem's own sense.
func (p *Problem) Solve() (*Solution, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p.finish(newSimplex(p).solve()), nil
}

// validate rejects NaN data and infinite constraint coefficients.
func (p *Problem) validate() error {
	for j := range p.obj {
		if math.IsNaN(p.obj[j]) || math.IsNaN(p.lo[j]) || math.IsNaN(p.hi[j]) {
			return fmt.Errorf("%w: NaN in variable %d", ErrBadProblem, j)
		}
	}
	for i := range p.rows {
		if math.IsNaN(p.rows[i].rhs) {
			return fmt.Errorf("%w: NaN rhs in row %d", ErrBadProblem, i)
		}
		for _, c := range p.rows[i].coef {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("%w: bad coefficient in row %d", ErrBadProblem, i)
			}
		}
	}
	return nil
}

// finish converts a solution of the internal maximization back to the
// problem's own sense.
func (p *Problem) finish(sol *Solution) *Solution {
	if p.sense == Minimize {
		sol.Objective = -sol.Objective
		for i := range sol.Dual {
			sol.Dual[i] = -sol.Dual[i]
		}
	}
	return sol
}
