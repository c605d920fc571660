package lp

import (
	"math"
)

// solveDense is Problem.Solve run on the dense reference kernel.
func solveDense(p *Problem) (*Solution, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p.finish(newDenseSimplex(p).solve()), nil
}

// denseSimplex is the reference the sparse kernel is checked against: the
// same bounded-variable revised simplex with a dense basis inverse that
// every iteration rebuilds the multipliers and all reduced costs from and
// updates in full on a pivot. The sparse kernel must reproduce its pivot
// sequence exactly, so the two return == Status, Objective, Iters, X and
// Dual on every problem (see TestSparseMatchesDense).
//
// The column space is [structural | slack | artificial]. Slack i has
// coefficient +1 in row i and bounds determined by the row relation;
// artificial i likewise has a unit column and exists only to make the
// initial basis feasible.
type denseSimplex struct {
	m  int // rows
	nv int // structural variables
	nc int // total columns = nv + 2m

	// Sparse columns in CSC form (structural columns only; slack and
	// artificial columns are implicit unit vectors).
	colPtr []int
	colIdx []int
	colVal []float64

	b []float64 // right-hand sides

	lo, hi []float64 // per-column bounds
	cI     []float64 // phase-I objective (maximize)
	cII    []float64 // phase-II objective (maximize)

	x       []float64 // current value per column
	basis   []int     // column basic in each row
	pos     []int     // row of a basic column, or -1 if nonbasic
	atUpper []bool    // nonbasic column rests at its upper bound

	binv [][]float64 // dense basis inverse

	// scratch buffers reused across iterations
	y []float64 // simplex multipliers
	w []float64 // Binv * A_j

	iters       int
	maxIters    int
	sincePivot  int // pivots since last refactorization
	degenerate  int // consecutive degenerate pivots (stall detector)
	useBland    bool
	numericFail bool
}

func newDenseSimplex(p *Problem) *denseSimplex {
	m := len(p.rows)
	nv := len(p.obj)
	s := &denseSimplex{
		m:  m,
		nv: nv,
		nc: nv + 2*m,
	}
	s.maxIters = p.MaxIters
	if s.maxIters <= 0 {
		s.maxIters = 20000 + 40*(m+nv)
	}

	// Structural columns in CSC form, built from the row-wise constraints.
	counts := make([]int, nv+1)
	for i := range p.rows {
		for _, j := range p.rows[i].idx {
			counts[j+1]++
		}
	}
	for j := 0; j < nv; j++ {
		counts[j+1] += counts[j]
	}
	s.colPtr = counts
	nnz := counts[nv]
	s.colIdx = make([]int, nnz)
	s.colVal = make([]float64, nnz)
	fill := make([]int, nv)
	for i := range p.rows {
		for k, j := range p.rows[i].idx {
			at := s.colPtr[j] + fill[j]
			s.colIdx[at] = i
			s.colVal[at] = p.rows[i].coef[k]
			fill[j]++
		}
	}

	s.b = make([]float64, m)
	s.lo = make([]float64, s.nc)
	s.hi = make([]float64, s.nc)
	s.cI = make([]float64, s.nc)
	s.cII = make([]float64, s.nc)
	s.x = make([]float64, s.nc)
	s.basis = make([]int, m)
	s.pos = make([]int, s.nc)
	s.atUpper = make([]bool, s.nc)
	s.y = make([]float64, m)
	s.w = make([]float64, m)

	sign := 1.0
	if p.sense == Minimize {
		sign = -1.0
	}
	for j := 0; j < nv; j++ {
		s.lo[j], s.hi[j] = p.lo[j], p.hi[j]
		s.cII[j] = sign * p.obj[j]
		s.pos[j] = -1
		s.x[j] = nearestBound(p.lo[j], p.hi[j])
		s.atUpper[j] = !math.IsInf(p.hi[j], 1) && s.x[j] == p.hi[j] && s.x[j] != p.lo[j]
	}
	for i := range p.rows {
		s.b[i] = p.rows[i].rhs
		sj := nv + i // slack column
		switch p.rows[i].rel {
		case LE:
			s.lo[sj], s.hi[sj] = 0, math.Inf(1)
		case GE:
			s.lo[sj], s.hi[sj] = math.Inf(-1), 0
		case EQ:
			s.lo[sj], s.hi[sj] = 0, 0
		}
		s.pos[sj] = -1
		s.x[sj] = nearestBound(s.lo[sj], s.hi[sj])
		s.atUpper[sj] = !math.IsInf(s.hi[sj], 1) && s.x[sj] == s.hi[sj] && s.lo[sj] != s.hi[sj]
	}

	// Residual each row's initial basic variable must absorb, with the
	// structural variables at their resting bounds (slack contribution
	// excluded for now).
	r := make([]float64, m)
	copy(r, s.b)
	for j := 0; j < nv; j++ {
		if s.x[j] != 0 {
			for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
				r[s.colIdx[k]] -= s.colVal[k] * s.x[j]
			}
		}
	}

	s.binv = make([][]float64, m)
	for i := 0; i < m; i++ {
		s.binv[i] = make([]float64, m)
		s.binv[i][i] = 1
		sj := nv + i     // slack column
		aj := nv + m + i // artificial column
		if s.lo[sj] <= r[i] && r[i] <= s.hi[sj] {
			// The slack can absorb the whole residual: start from the slack
			// basis and lock the artificial at zero. For the common
			// max/<=/b>=0 LPs of query pricing this skips phase I entirely.
			s.basis[i] = sj
			s.pos[sj] = i
			s.x[sj] = r[i]
			s.atUpper[sj] = false
			s.x[aj] = 0
			s.lo[aj], s.hi[aj] = 0, 0
			continue
		}
		// Slack rests at its nearest bound; the artificial absorbs the rest.
		resid := r[i] - s.x[sj]
		s.basis[i] = aj
		s.pos[aj] = i
		s.x[aj] = resid
		s.lo[aj] = math.Min(0, resid)
		s.hi[aj] = math.Max(0, resid)
		switch {
		case resid > 0:
			s.cI[aj] = -1
		case resid < 0:
			s.cI[aj] = 1
		}
	}
	return s
}

// column visits the nonzero entries of column j as (row, value) pairs.
func (s *denseSimplex) column(j int, visit func(row int, v float64)) {
	if j < s.nv {
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			visit(s.colIdx[k], s.colVal[k])
		}
		return
	}
	// Slack and artificial columns are unit vectors.
	row := j - s.nv
	if row >= s.m {
		row -= s.m
	}
	visit(row, 1)
}

// solve runs phase I (if needed) and phase II and packages the result.
func (s *denseSimplex) solve() *Solution {
	needPhase1 := false
	for i := 0; i < s.m; i++ {
		if s.x[s.nv+s.m+i] != 0 {
			needPhase1 = true
			break
		}
	}
	if needPhase1 {
		st := s.iterate(s.cI)
		if st == Unbounded || s.numericFail {
			// Phase I is bounded above by 0; reaching here means numerics
			// failed. Report infeasible conservatively.
			return &Solution{Status: Infeasible, X: s.structX(), Dual: make([]float64, s.m), Iters: s.iters}
		}
		infeas := 0.0
		for i := 0; i < s.m; i++ {
			infeas += math.Abs(s.x[s.nv+s.m+i])
		}
		if infeas > phase1Tol*(1+norm1(s.b)) {
			status := Infeasible
			if st == IterationLimit {
				// Ran out of budget before deciding feasibility.
				status = IterationLimit
			}
			return &Solution{Status: status, X: s.structX(), Dual: make([]float64, s.m), Iters: s.iters}
		}
	}
	// Lock artificials at zero for phase II.
	for i := 0; i < s.m; i++ {
		aj := s.nv + s.m + i
		s.lo[aj], s.hi[aj] = 0, 0
		s.x[aj] = 0
		s.atUpper[aj] = false
	}
	st := s.iterate(s.cII)
	s.recomputeBasics()

	obj := 0.0
	for j := 0; j < s.nv; j++ {
		obj += s.cII[j] * s.x[j]
	}
	s.multipliers(s.cII)
	dual := make([]float64, s.m)
	copy(dual, s.y)
	status := st
	if s.numericFail && status == Optimal {
		status = IterationLimit
	}
	return &Solution{Status: status, Objective: obj, X: s.structX(), Dual: dual, Iters: s.iters}
}

func (s *denseSimplex) structX() []float64 {
	out := make([]float64, s.nv)
	copy(out, s.x[:s.nv])
	return out
}

// multipliers computes y = c_B^T * Binv into s.y.
func (s *denseSimplex) multipliers(c []float64) {
	for k := 0; k < s.m; k++ {
		s.y[k] = 0
	}
	for r := 0; r < s.m; r++ {
		cb := c[s.basis[r]]
		if cb == 0 {
			continue
		}
		row := s.binv[r]
		for k := 0; k < s.m; k++ {
			s.y[k] += cb * row[k]
		}
	}
}

// reducedCost returns d_j = c_j - y . A_j for nonbasic column j.
func (s *denseSimplex) reducedCost(c []float64, j int) float64 {
	d := c[j]
	s.column(j, func(row int, v float64) {
		d -= s.y[row] * v
	})
	return d
}

// iterate runs simplex iterations for the given (maximization) objective
// until optimal, unbounded, or the iteration budget is exhausted.
func (s *denseSimplex) iterate(c []float64) Status {
	for {
		if s.iters >= s.maxIters {
			return IterationLimit
		}
		s.iters++
		s.multipliers(c)

		enter := -1
		var enterDelta float64 // +1 entering increases, -1 decreases
		best := tolReduced
		for j := 0; j < s.nc; j++ {
			if s.pos[j] >= 0 || s.lo[j] == s.hi[j] {
				continue // basic or fixed
			}
			d := s.reducedCost(c, j)
			free := math.IsInf(s.lo[j], -1) && math.IsInf(s.hi[j], 1)
			var delta float64
			switch {
			case free && d > tolReduced:
				delta = 1
			case free && d < -tolReduced:
				delta = -1
			case !s.atUpper[j] && d > tolReduced:
				delta = 1
			case s.atUpper[j] && d < -tolReduced:
				delta = -1
			default:
				continue
			}
			if s.useBland {
				enter, enterDelta = j, delta
				break
			}
			if math.Abs(d) > best {
				best = math.Abs(d)
				enter, enterDelta = j, delta
			}
		}
		if enter < 0 {
			return Optimal
		}

		// Direction of change of the basic variables per unit of entering
		// movement: x_B -= delta * w, with w = Binv * A_enter.
		for i := 0; i < s.m; i++ {
			s.w[i] = 0
		}
		s.column(enter, func(row int, v float64) {
			for i := 0; i < s.m; i++ {
				s.w[i] += s.binv[i][row] * v
			}
		})

		// Ratio test.
		limit := math.Inf(1)
		if !math.IsInf(s.hi[enter], 1) && !math.IsInf(s.lo[enter], -1) {
			limit = s.hi[enter] - s.lo[enter] // bound-flip distance
		}
		leaveRow := -1
		leaveToUpper := false
		for i := 0; i < s.m; i++ {
			rate := -enterDelta * s.w[i] // d x_basic[i] / d step
			k := s.basis[i]
			var step float64
			var toUpper bool
			switch {
			case rate > tolPivot:
				if math.IsInf(s.hi[k], 1) {
					continue
				}
				step = (s.hi[k] - s.x[k]) / rate
				toUpper = true
			case rate < -tolPivot:
				if math.IsInf(s.lo[k], -1) {
					continue
				}
				step = (s.lo[k] - s.x[k]) / rate
				toUpper = false
			default:
				continue
			}
			if step < 0 {
				step = 0 // slight infeasibility from roundoff: degenerate step
			}
			if step < limit || (step == limit && leaveRow >= 0 && s.useBland && s.basis[i] < s.basis[leaveRow]) {
				limit = step
				leaveRow = i
				leaveToUpper = toUpper
			}
		}

		if math.IsInf(limit, 1) {
			return Unbounded
		}
		if limit <= tolDegen {
			s.degenerate++
			if s.degenerate > stallLimit {
				s.useBland = true
			}
		} else {
			s.degenerate = 0
		}

		// Apply the move to the basic variables and the entering variable.
		for i := 0; i < s.m; i++ {
			if s.w[i] != 0 {
				k := s.basis[i]
				s.x[k] -= enterDelta * limit * s.w[i]
			}
		}

		if leaveRow < 0 {
			// Bound flip: the entering variable traverses its whole range.
			if enterDelta > 0 {
				s.x[enter] = s.hi[enter]
				s.atUpper[enter] = true
			} else {
				s.x[enter] = s.lo[enter]
				s.atUpper[enter] = false
			}
			continue
		}

		// Pivot: basis change.
		s.x[enter] += enterDelta * limit
		leave := s.basis[leaveRow]
		if leaveToUpper {
			s.x[leave] = s.hi[leave]
			s.atUpper[leave] = true
		} else {
			s.x[leave] = s.lo[leave]
			s.atUpper[leave] = false
		}
		s.pos[leave] = -1
		s.pos[enter] = leaveRow
		s.basis[leaveRow] = enter

		piv := s.w[leaveRow]
		if math.Abs(piv) < tolPivot {
			// Should not happen (ratio test only picks rows with a usable
			// pivot); guard against numerical surprises.
			s.numericFail = true
			return IterationLimit
		}
		prow := s.binv[leaveRow]
		inv := 1 / piv
		for k := 0; k < s.m; k++ {
			prow[k] *= inv
		}
		for i := 0; i < s.m; i++ {
			if i == leaveRow {
				continue
			}
			f := s.w[i]
			if f == 0 {
				continue
			}
			row := s.binv[i]
			for k := 0; k < s.m; k++ {
				row[k] -= f * prow[k]
			}
		}

		s.sincePivot++
		if s.sincePivot >= refactEvery {
			s.refactorize()
			s.sincePivot = 0
		}
	}
}

// recomputeBasics recomputes x_B = Binv*(b - N x_N) exactly, killing the
// incremental drift accumulated during pivoting.
func (s *denseSimplex) recomputeBasics() {
	r := make([]float64, s.m)
	copy(r, s.b)
	for j := 0; j < s.nc; j++ {
		if s.pos[j] >= 0 || s.x[j] == 0 {
			continue
		}
		xj := s.x[j]
		s.column(j, func(row int, v float64) {
			r[row] -= v * xj
		})
	}
	for i := 0; i < s.m; i++ {
		xb := 0.0
		row := s.binv[i]
		for k := 0; k < s.m; k++ {
			xb += row[k] * r[k]
		}
		s.x[s.basis[i]] = xb
	}
}

// refactorize rebuilds Binv from scratch by Gauss-Jordan elimination with
// partial pivoting and recomputes the basic values.
func (s *denseSimplex) refactorize() {
	m := s.m
	// aug = [B | I], reduced in place to [I | Binv].
	aug := make([][]float64, m)
	for i := 0; i < m; i++ {
		aug[i] = make([]float64, 2*m)
		aug[i][m+i] = 1
	}
	for r := 0; r < m; r++ {
		s.column(s.basis[r], func(row int, v float64) {
			aug[row][r] = v
		})
	}
	for col := 0; col < m; col++ {
		p := col
		for i := col + 1; i < m; i++ {
			if math.Abs(aug[i][col]) > math.Abs(aug[p][col]) {
				p = i
			}
		}
		if math.Abs(aug[p][col]) < 1e-12 {
			s.numericFail = true
			return
		}
		aug[col], aug[p] = aug[p], aug[col]
		inv := 1 / aug[col][col]
		for k := col; k < 2*m; k++ {
			aug[col][k] *= inv
		}
		for i := 0; i < m; i++ {
			if i == col {
				continue
			}
			f := aug[i][col]
			if f == 0 {
				continue
			}
			for k := col; k < 2*m; k++ {
				aug[i][k] -= f * aug[col][k]
			}
		}
	}
	for i := 0; i < m; i++ {
		copy(s.binv[i], aug[i][m:])
	}
	s.recomputeBasics()
}
