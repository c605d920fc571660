package lp

import (
	"math"
	"math/bits"
	"slices"
)

// simplex is a bounded-variable revised simplex over the column space
// [structural | slack | artificial]. Slack i has coefficient +1 in row i and
// bounds determined by the row relation; artificial i likewise has a unit
// column and exists only to make the initial basis feasible.
//
// The kernel skips exact zeros and nothing else: every value it computes is
// the one the textbook dense update computes, with the same operations in
// the same order, so it takes the dense method's pivots (see the package
// comment).
type simplex struct {
	m  int // rows
	nv int // structural variables
	nc int // total columns = nv + 2m

	// All columns in CSC form, the slack and artificial unit columns
	// included, so every column loop is one slice walk.
	colPtr []int
	colIdx []int
	colVal []float64

	// The columns with a nonzero in each row (CSR pattern of the same
	// matrix): the reduced costs a change of y[row] reaches.
	rowPtr []int
	rowCol []int

	b []float64 // right-hand sides

	lo, hi []float64 // per-column bounds
	cI     []float64 // phase-I objective (maximize)
	cII    []float64 // phase-II objective (maximize)

	x       []float64 // current value per column
	basis   []int     // column basic in each row
	pos     []int     // row of a basic column, or -1 if nonbasic
	atUpper []bool    // nonbasic column rests at its upper bound
	free    []bool    // column has no finite bound

	// binv is the basis inverse, stored column-major in one array: column k
	// is binv[k*m : k*m+m], so binv[k*m+i] is entry (i, k).
	binv []float64
	// rowNZ[i*words : (i+1)*words] is a bitset over the columns of Binv
	// covering the nonzeros of row i: a clear bit is always a zero, a set
	// bit may mark an entry that has since cancelled to zero.
	rowNZ []uint64
	words int

	// Pricing state for the objective being iterated, kept current across
	// pivots: the rows whose basic column has a nonzero cost, ascending, with
	// those costs (c_B without its zeros), y = c_B^T Binv the simplex
	// multipliers, d[j] = c_j - y . A_j the reduced cost of every column
	// (basic ones included), and score[j] the gain rate of moving column j
	// in its allowed direction (see rescore).
	costRow []int
	costVal []float64
	y       []float64
	d       []float64
	score   []float64

	// scratch buffers reused across iterations
	w     []float64   // Binv * A_enter
	nzk   []int       // nonzero columns of Binv's pivot row
	nzw   []int       // rows other than the pivot row where w is nonzero
	dirty []int       // columns whose reduced cost a pivot may have changed
	mark  []int       // per column: the iteration that last queued it in dirty
	r     []float64   // b - N x_N (recomputeBasics)
	xb    []float64   // recomputed basic values (recomputeBasics)
	fw    *factorWork // refactorize's workspace, nil until the first one

	iters       int
	maxIters    int
	sincePivot  int // pivots since last refactorization
	degenerate  int // consecutive degenerate pivots (stall detector)
	useBland    bool
	numericFail bool
}

const (
	tolReduced  = 1e-7 // reduced-cost optimality threshold
	tolPivot    = 1e-9 // minimum pivot magnitude
	tolDegen    = 1e-9 // step sizes below this count as degenerate
	refactEvery = 256  // pivots between refactorizations
	stallLimit  = 200  // degenerate pivots before switching to Bland
	phase1Tol   = 1e-6 // residual infeasibility accepted after phase I
)

func newSimplex(p *Problem) *simplex {
	m := len(p.rows)
	nv := len(p.obj)
	nc := nv + 2*m
	s := &simplex{
		m:  m,
		nv: nv,
		nc: nc,
	}
	s.maxIters = p.MaxIters
	if s.maxIters <= 0 {
		s.maxIters = 20000 + 40*(m+nv)
	}

	// CSC from the row-wise constraints, then one unit entry per slack and
	// artificial column.
	nnz := 0
	counts := make([]int, nc+1)
	for i := range p.rows {
		for _, j := range p.rows[i].idx {
			counts[j+1]++
		}
		nnz += len(p.rows[i].idx)
	}
	for j := nv; j < nc; j++ {
		counts[j+1] = 1
	}
	for j := 0; j < nc; j++ {
		counts[j+1] += counts[j]
	}
	s.colPtr = counts
	s.colIdx = make([]int, nnz+2*m)
	s.colVal = make([]float64, nnz+2*m)
	fill := make([]int, nv)
	for i := range p.rows {
		for k, j := range p.rows[i].idx {
			at := s.colPtr[j] + fill[j]
			s.colIdx[at] = i
			s.colVal[at] = p.rows[i].coef[k]
			fill[j]++
		}
	}
	for i := 0; i < m; i++ {
		for _, j := range [2]int{nv + i, nv + m + i} {
			s.colIdx[s.colPtr[j]] = i
			s.colVal[s.colPtr[j]] = 1
		}
	}

	// CSR pattern: columns ascending within each row.
	s.rowPtr = make([]int, m+1)
	for _, i := range s.colIdx {
		s.rowPtr[i+1]++
	}
	for i := 0; i < m; i++ {
		s.rowPtr[i+1] += s.rowPtr[i]
	}
	s.rowCol = make([]int, len(s.colIdx))
	next := make([]int, m)
	copy(next, s.rowPtr[:m])
	for j := 0; j < nc; j++ {
		for t := s.colPtr[j]; t < s.colPtr[j+1]; t++ {
			i := s.colIdx[t]
			s.rowCol[next[i]] = j
			next[i]++
		}
	}

	s.b = make([]float64, m)
	s.lo = make([]float64, nc)
	s.hi = make([]float64, nc)
	s.cI = make([]float64, nc)
	s.cII = make([]float64, nc)
	s.x = make([]float64, nc)
	s.basis = make([]int, m)
	s.pos = make([]int, nc)
	s.atUpper = make([]bool, nc)
	s.free = make([]bool, nc)
	s.y = make([]float64, m)
	s.d = make([]float64, nc)
	s.score = make([]float64, nc)
	s.w = make([]float64, m)
	s.mark = make([]int, nc)
	s.r = make([]float64, m)
	s.xb = make([]float64, m)

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
		s.free[j] = math.IsInf(p.lo[j], -1) && math.IsInf(p.hi[j], 1)
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
	r := s.r
	copy(r, s.b)
	for j := 0; j < nv; j++ {
		if s.x[j] != 0 {
			for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
				r[s.colIdx[k]] -= s.colVal[k] * s.x[j]
			}
		}
	}

	s.binv = make([]float64, m*m)
	s.words = (m + 63) / 64
	s.rowNZ = make([]uint64, m*s.words)
	for i := 0; i < m; i++ {
		s.binv[i*m+i] = 1
		setBit(s.rowNZ[i*s.words:], i)
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

// nearestBound picks the initial resting value of a nonbasic variable: the
// finite bound closest to zero, or zero for a free variable.
func nearestBound(lo, hi float64) float64 {
	loFin, hiFin := !math.IsInf(lo, -1), !math.IsInf(hi, 1)
	switch {
	case loFin && hiFin:
		if math.Abs(hi) < math.Abs(lo) {
			return hi
		}
		return lo
	case loFin:
		return lo
	case hiFin:
		return hi
	default:
		return 0
	}
}

// solve runs phase I (if needed) and phase II and packages the result.
func (s *simplex) solve() *Solution {
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
	s.setCosts(s.cII)
	s.multipliers()
	dual := make([]float64, s.m)
	copy(dual, s.y)
	status := st
	if s.numericFail && status == Optimal {
		status = IterationLimit
	}
	return &Solution{Status: status, Objective: obj, X: s.structX(), Dual: dual, Iters: s.iters}
}

func (s *simplex) structX() []float64 {
	out := make([]float64, s.nv)
	copy(out, s.x[:s.nv])
	return out
}

func norm1(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += math.Abs(x)
	}
	return t
}

// setCosts records the nonzero basic costs under objective c.
func (s *simplex) setCosts(c []float64) {
	s.costRow, s.costVal = s.costRow[:0], s.costVal[:0]
	for r, j := range s.basis {
		if c[j] != 0 {
			s.costRow = append(s.costRow, r)
			s.costVal = append(s.costVal, c[j])
		}
	}
}

// setCost records cb as the basic cost of row r.
func (s *simplex) setCost(r int, cb float64) {
	t, present := slices.BinarySearch(s.costRow, r)
	switch {
	case cb != 0 && present:
		s.costVal[t] = cb
	case cb != 0:
		s.costRow = slices.Insert(s.costRow, t, r)
		s.costVal = slices.Insert(s.costVal, t, cb)
	case present:
		s.costRow = slices.Delete(s.costRow, t, t+1)
		s.costVal = slices.Delete(s.costVal, t, t+1)
	}
}

// multiplier returns y[k] = c_B^T Binv[:, k], summed over the rows with a
// nonzero basic cost in ascending order.
func (s *simplex) multiplier(k int) float64 {
	col := s.binv[k*s.m : k*s.m+s.m]
	y := 0.0
	for t, r := range s.costRow {
		y += s.costVal[t] * col[r]
	}
	return y
}

// multipliers computes y = c_B^T * Binv into s.y.
func (s *simplex) multipliers() {
	for k := range s.y {
		s.y[k] = s.multiplier(k)
	}
}

// reducedCost returns d_j = c_j - y . A_j.
func (s *simplex) reducedCost(c []float64, j int) float64 {
	d := c[j]
	for t := s.colPtr[j]; t < s.colPtr[j+1]; t++ {
		d -= s.y[s.colIdx[t]] * s.colVal[t]
	}
	return d
}

// price recomputes the basic costs, multipliers and every reduced cost and
// score for objective c from scratch.
func (s *simplex) price(c []float64) {
	s.setCosts(c)
	s.multipliers()
	for j := range s.d {
		s.d[j] = s.reducedCost(c, j)
		s.rescore(j)
	}
}

// rescore sets score[j] from d[j] and the column's state. A column can enter
// when its score exceeds tolReduced, and then |d[j]| equals its score: a
// free column moves either way (score |d|), a bounded one only away from
// the bound it rests at (d going up from the lower bound, -d going down
// from the upper). Basic and fixed columns score 0 and never enter.
func (s *simplex) rescore(j int) {
	d := s.d[j]
	switch {
	case s.pos[j] >= 0 || s.lo[j] == s.hi[j]:
		s.score[j] = 0
	case s.free[j]:
		s.score[j] = math.Abs(d)
	case s.atUpper[j]:
		s.score[j] = -d
	default:
		s.score[j] = d
	}
}

// iterate runs simplex iterations for the given (maximization) objective
// until optimal, unbounded, or the iteration budget is exhausted.
func (s *simplex) iterate(c []float64) Status {
	s.price(c)
	for {
		if s.iters >= s.maxIters {
			return IterationLimit
		}
		s.iters++

		// Dantzig: the first column of largest |d|; Bland: the first
		// column that can enter.
		enter := -1
		best := tolReduced
		for j, sc := range s.score {
			if sc > best {
				enter = j
				if s.useBland {
					break
				}
				best = sc
			}
		}
		if enter < 0 {
			return Optimal
		}
		enterDelta := 1.0 // +1 entering increases, -1 decreases
		if s.d[enter] < 0 {
			enterDelta = -1
		}

		// Direction of change of the basic variables per unit of entering
		// movement: x_B -= delta * w, with w = Binv * A_enter.
		for i := range s.w {
			s.w[i] = 0
		}
		for t := s.colPtr[enter]; t < s.colPtr[enter+1]; t++ {
			col := s.binv[s.colIdx[t]*s.m : s.colIdx[t]*s.m+s.m]
			v := s.colVal[t]
			for i, bi := range col {
				s.w[i] += bi * v
			}
		}

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
			// The basis is unchanged, so are y and the reduced costs.
			if enterDelta > 0 {
				s.x[enter] = s.hi[enter]
				s.atUpper[enter] = true
			} else {
				s.x[enter] = s.lo[enter]
				s.atUpper[enter] = false
			}
			s.rescore(enter)
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
		s.rescore(enter)

		if math.Abs(s.w[leaveRow]) < tolPivot {
			// Should not happen (ratio test only picks rows with a usable
			// pivot); guard against numerical surprises.
			s.numericFail = true
			return IterationLimit
		}
		s.pivot(c, leaveRow)
		s.rescore(leave)

		s.sincePivot++
		if s.sincePivot >= refactEvery {
			s.refactorize()
			s.sincePivot = 0
			s.price(c)
		}
	}
}

// pivot updates Binv for the basis change in leaveRow (already recorded in
// s.basis) and refreshes the pricing state it reaches.
//
// The dense update scales Binv's pivot row by 1/w[leaveRow] and subtracts
// w[i] times it from every other row i. Where the pivot row is zero, or
// w[i] is zero, that leaves the value unchanged, so only the pivot row's
// nonzero columns are touched and, in them, only the rows where w is
// nonzero. A column of Binv that is not touched keeps its multiplier (its
// terms in c_B^T Binv are the same values, the changed basic cost meets a
// zero there), so y is recomputed only at the touched columns, and the
// reduced costs only of columns with a nonzero in a row whose y changed.
func (s *simplex) pivot(c []float64, leaveRow int) {
	m := s.m
	prow := s.rowNZ[leaveRow*s.words : (leaveRow+1)*s.words]
	s.nzk = s.nzk[:0]
	for wi, word := range prow {
		for ; word != 0; word &= word - 1 {
			if k := wi*64 + bits.TrailingZeros64(word); s.binv[k*m+leaveRow] != 0 {
				s.nzk = append(s.nzk, k)
			}
		}
	}
	s.nzw = s.nzw[:0]
	for i, f := range s.w {
		if f != 0 && i != leaveRow {
			s.nzw = append(s.nzw, i)
		}
	}
	inv := 1 / s.w[leaveRow]
	for _, k := range s.nzk {
		col := s.binv[k*m : k*m+m]
		col[leaveRow] *= inv
		pk := col[leaveRow]
		for _, i := range s.nzw {
			col[i] -= s.w[i] * pk
		}
	}
	// The pivot row keeps exactly its nonzero columns; every updated row
	// may gain them.
	clear(prow)
	for _, k := range s.nzk {
		setBit(prow, k)
	}
	for _, i := range s.nzw {
		row := s.rowNZ[i*s.words : (i+1)*s.words]
		for wi, word := range prow {
			row[wi] |= word
		}
	}

	s.setCost(leaveRow, c[s.basis[leaveRow]])
	s.dirty = s.dirty[:0]
	for _, k := range s.nzk {
		y := s.multiplier(k)
		if y == s.y[k] {
			continue
		}
		s.y[k] = y
		for t := s.rowPtr[k]; t < s.rowPtr[k+1]; t++ {
			if j := s.rowCol[t]; s.mark[j] != s.iters {
				s.mark[j] = s.iters
				s.dirty = append(s.dirty, j)
			}
		}
	}
	for _, j := range s.dirty {
		s.d[j] = s.reducedCost(c, j)
		s.rescore(j)
	}
}

// recomputeBasics recomputes x_B = Binv*(b - N x_N) exactly, killing the
// incremental drift accumulated during pivoting.
func (s *simplex) recomputeBasics() {
	r := s.r
	copy(r, s.b)
	for j := 0; j < s.nc; j++ {
		if s.pos[j] >= 0 || s.x[j] == 0 {
			continue
		}
		xj := s.x[j]
		for t := s.colPtr[j]; t < s.colPtr[j+1]; t++ {
			r[s.colIdx[t]] -= s.colVal[t] * xj
		}
	}
	// x_B[i] sums Binv[i][k]*r[k] over ascending k; a zero r[k] adds a zero
	// term, so those columns are skipped.
	xb := s.xb
	for i := range xb {
		xb[i] = 0
	}
	for k, rk := range r {
		if rk == 0 {
			continue
		}
		col := s.binv[k*s.m : k*s.m+s.m]
		for i, bik := range col {
			xb[i] += bik * rk
		}
	}
	for i, v := range xb {
		s.x[s.basis[i]] = v
	}
}

// factorWork is refactorize's workspace, allocated on a simplex's first
// refactorization. Between calls its matrix is all zero except where the
// bitsets mark it, which the next call clears.
type factorWork struct {
	aug     []float64 // [B | I] by physical row: row i is aug[i*2m : (i+1)*2m]
	perm    []int     // physical row at each elimination position
	posOf   []int     // elimination position of each physical row
	colBits []uint64  // per column of aug, the physical rows that may be nonzero
	rowBits []uint64  // per physical row, the columns of aug that may be nonzero
	nz      []int     // nonzero columns of the pivot row
	nzBits  []uint64  // nz as a bitset
}

func setBit(b []uint64, i int) { b[i/64] |= 1 << (i % 64) }

// refactorize rebuilds Binv from scratch by Gauss-Jordan elimination with
// partial pivoting on [B | I] and recomputes the basic values.
//
// It is the dense elimination restricted to nonzeros: the pivot search
// and the row updates visit only the rows a column's bitset marks (the
// others hold exact zeros, which neither win the pivot search nor need
// eliminating), and a row update subtracts only at the pivot row's
// nonzero columns. Physical rows stay in place; perm records the row
// swaps of partial pivoting, so ties still go to the lowest position.
func (s *simplex) refactorize() {
	m, n2 := s.m, 2*s.m
	wr, wc := s.words, (n2+63)/64
	f := s.fw
	if f == nil {
		f = &factorWork{
			aug:     make([]float64, m*n2),
			perm:    make([]int, m),
			posOf:   make([]int, m),
			colBits: make([]uint64, n2*wr),
			rowBits: make([]uint64, m*wc),
			nz:      make([]int, 0, n2),
			nzBits:  make([]uint64, wc),
		}
		s.fw = f
	} else {
		for c := 0; c < n2; c++ {
			for wi, word := range f.colBits[c*wr : (c+1)*wr] {
				for ; word != 0; word &= word - 1 {
					f.aug[(wi*64+bits.TrailingZeros64(word))*n2+c] = 0
				}
			}
		}
		clear(f.colBits)
		clear(f.rowBits)
	}
	for i := 0; i < m; i++ {
		f.perm[i], f.posOf[i] = i, i
		f.aug[i*n2+m+i] = 1
		setBit(f.colBits[(m+i)*wr:], i)
		setBit(f.rowBits[i*wc:], m+i)
	}
	for r, j := range s.basis {
		for t := s.colPtr[j]; t < s.colPtr[j+1]; t++ {
			i := s.colIdx[t]
			f.aug[i*n2+r] = s.colVal[t]
			setBit(f.colBits[r*wr:], i)
			setBit(f.rowBits[i*wc:], r)
		}
	}

	for col := 0; col < m; col++ {
		// The largest |entry| of column col at positions >= col, the
		// lowest position on ties.
		p := col
		best := math.Abs(f.aug[f.perm[col]*n2+col])
		for wi, word := range f.colBits[col*wr : (col+1)*wr] {
			for ; word != 0; word &= word - 1 {
				i := wi*64 + bits.TrailingZeros64(word)
				q := f.posOf[i]
				if q <= col {
					continue
				}
				if v := math.Abs(f.aug[i*n2+col]); v > best || (v == best && q < p) {
					best, p = v, q
				}
			}
		}
		pr := f.perm[p]
		if math.Abs(f.aug[pr*n2+col]) < 1e-12 {
			s.numericFail = true
			return
		}
		f.perm[p], f.perm[col] = f.perm[col], pr
		f.posOf[f.perm[p]], f.posOf[pr] = p, col

		prow := f.aug[pr*n2 : (pr+1)*n2]
		inv := 1 / prow[col]
		f.nz = f.nz[:0]
		clear(f.nzBits)
		for wi, word := range f.rowBits[pr*wc : (pr+1)*wc] {
			for ; word != 0; word &= word - 1 {
				if k := wi*64 + bits.TrailingZeros64(word); k >= col && prow[k] != 0 {
					prow[k] *= inv
					f.nz = append(f.nz, k)
					setBit(f.nzBits, k)
				}
			}
		}
		for wi, word := range f.colBits[col*wr : (col+1)*wr] {
			for ; word != 0; word &= word - 1 {
				i := wi*64 + bits.TrailingZeros64(word)
				row := f.aug[i*n2 : (i+1)*n2]
				fi := row[col]
				if i == pr || fi == 0 {
					continue
				}
				for _, k := range f.nz {
					if row[k] == 0 {
						setBit(f.colBits[k*wr:], i) // fill-in
					}
					row[k] -= fi * prow[k]
				}
				rb := f.rowBits[i*wc : (i+1)*wc]
				for w, b := range f.nzBits {
					rb[w] |= b
				}
			}
		}
	}

	// Zero the old inverse where its row bitsets mark it, then scatter the
	// new one.
	for i := 0; i < m; i++ {
		for wi, word := range s.rowNZ[i*s.words : (i+1)*s.words] {
			for ; word != 0; word &= word - 1 {
				s.binv[(wi*64+bits.TrailingZeros64(word))*m+i] = 0
			}
		}
	}
	clear(s.rowNZ)
	for k := 0; k < m; k++ {
		for wi, word := range f.colBits[(m+k)*wr : (m+k+1)*wr] {
			for ; word != 0; word &= word - 1 {
				i := wi*64 + bits.TrailingZeros64(word)
				if v := f.aug[i*n2+m+k]; v != 0 {
					pos := f.posOf[i]
					s.binv[k*m+pos] = v
					setBit(s.rowNZ[pos*s.words:], k)
				}
			}
		}
	}
	s.recomputeBasics()
}
