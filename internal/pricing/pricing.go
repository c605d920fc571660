// Package pricing implements the revenue-maximization algorithms of Chawla
// et al., "Revenue Maximization for Query Pricing" (PVLDB 13(1), 2019),
// Section 5: uniform bundle pricing (UBP), uniform item pricing (UIP), the
// LP item pricing (LPIP), capacity item pricing (CIP), the layering
// algorithm (Algorithm 1), and the XOS combination of item pricings, plus
// the uniform-bundle-to-item-pricing LP refinement of Section 6.3.
//
// All algorithms consume a hypergraph.Hypergraph whose edges are buyer
// bundles (query conflict sets) with valuations, under the paper's model:
// single-minded buyers, unlimited supply. A bundle e is sold whenever its
// price does not exceed its valuation, contributing p(e) to revenue.
package pricing

import (
	"fmt"
	"math"
	"sort"
	"time"

	"querypricing/internal/hypergraph"
	"querypricing/internal/lp"
)

// sellTol is the relative tolerance used when testing p(e) <= v_e, absorbing
// LP round-off: an optimal LP solution prices some bundles exactly at their
// valuation, and a strict comparison would drop them to floating-point
// noise.
const sellTol = 1e-7

// Sold reports whether a bundle with price p and valuation v is purchased.
func Sold(p, v float64) bool {
	return p <= v+sellTol*(1+math.Abs(v))
}

// AdditivePrice returns the item-pricing price of an edge: the sum of the
// weights of its items.
func AdditivePrice(e *hypergraph.Edge, w []float64) float64 {
	var s float64
	for _, j := range e.Items {
		s += w[j]
	}
	return s
}

// XOSPrice returns the XOS price of an edge: the maximum over the additive
// prices induced by each weight vector.
func XOSPrice(e *hypergraph.Edge, ws [][]float64) float64 {
	best := 0.0
	for _, w := range ws {
		if p := AdditivePrice(e, w); p > best {
			best = p
		}
	}
	return best
}

// RevenueAdditive returns the revenue of the item pricing w on h.
func RevenueAdditive(h *hypergraph.Hypergraph, w []float64) float64 {
	var rev float64
	for i := 0; i < h.NumEdges(); i++ {
		e := h.Edge(i)
		p := AdditivePrice(e, w)
		if Sold(p, e.Valuation) {
			rev += p
		}
	}
	return rev
}

// RevenueUniformBundle returns the revenue of selling every bundle at the
// flat price P.
func RevenueUniformBundle(h *hypergraph.Hypergraph, P float64) float64 {
	var rev float64
	for i := 0; i < h.NumEdges(); i++ {
		if Sold(P, h.Edge(i).Valuation) {
			rev += P
		}
	}
	return rev
}

// RevenueXOS returns the revenue of the XOS pricing defined by the weight
// vectors ws.
func RevenueXOS(h *hypergraph.Hypergraph, ws [][]float64) float64 {
	var rev float64
	for i := 0; i < h.NumEdges(); i++ {
		e := h.Edge(i)
		p := XOSPrice(e, ws)
		if Sold(p, e.Valuation) {
			rev += p
		}
	}
	return rev
}

// Result is the outcome of one pricing algorithm on one instance.
type Result struct {
	// Algorithm is the short name used in the paper's figures (UBP, UIP,
	// LPIP, CIP, Layering, XOS).
	Algorithm string
	// Revenue is the revenue extracted on the instance.
	Revenue float64
	// BundlePrice is the flat price for UBP results, 0 otherwise.
	BundlePrice float64
	// Weights is the item weight vector for item-pricing results, nil for
	// UBP. For XOS it is nil; see WeightSets.
	Weights []float64
	// WeightSets holds the component additive pricings of an XOS result.
	WeightSets [][]float64
	// Runtime is the wall-clock time the algorithm took.
	Runtime time.Duration
	// LPSolves counts linear programs solved (LPIP, CIP, refinement).
	LPSolves int
	// Extra carries algorithm-specific diagnostics (e.g. chosen capacity).
	Extra string
}

// Price evaluates the result's pricing function on an edge.
func (r *Result) Price(e *hypergraph.Edge) float64 {
	switch {
	case r.WeightSets != nil:
		return XOSPrice(e, r.WeightSets)
	case r.Weights != nil:
		return AdditivePrice(e, r.Weights)
	default:
		return r.BundlePrice
	}
}

// UniformBundle computes the optimal uniform bundle price (the UBP folklore
// algorithm of Section 5.1): it tries every edge valuation as the flat price
// and keeps the best. O(m log m).
func UniformBundle(h *hypergraph.Hypergraph) Result {
	start := time.Now()
	m := h.NumEdges()
	vals := h.Valuations()
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	bestRev, bestP := 0.0, 0.0
	for i := 0; i < m; i++ {
		// Price vals[i] sells every edge with valuation >= vals[i]; with the
		// descending sort those are exactly the edges up to the last
		// occurrence of vals[i].
		if i+1 < m && vals[i+1] == vals[i] {
			continue // evaluate each distinct price once, at its last index
		}
		rev := vals[i] * float64(i+1)
		if rev > bestRev {
			bestRev, bestP = rev, vals[i]
		}
	}
	return Result{
		Algorithm:   "UBP",
		Revenue:     bestRev,
		BundlePrice: bestP,
		Runtime:     time.Since(start),
	}
}

// UniformItem computes the optimal uniform item pricing (UIP, Guruswami et
// al.): all items share one weight w; the optimal w is among q_e = v_e/|e|.
// O(m log m).
func UniformItem(h *hypergraph.Hypergraph) Result {
	start := time.Now()
	type cand struct {
		q    float64
		size int
	}
	var cands []cand
	for i := 0; i < h.NumEdges(); i++ {
		e := h.Edge(i)
		if e.Size() == 0 {
			continue // empty bundles are priced 0 under any item pricing
		}
		cands = append(cands, cand{q: e.Valuation / float64(e.Size()), size: e.Size()})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].q > cands[b].q })
	bestRev, bestW := 0.0, 0.0
	sizeSum := 0
	for i, c := range cands {
		sizeSum += c.size
		if i+1 < len(cands) && cands[i+1].q == c.q {
			continue
		}
		// Setting w = c.q sells every edge with q_e >= w, i.e. the prefix.
		rev := c.q * float64(sizeSum)
		if rev > bestRev {
			bestRev, bestW = rev, c.q
		}
	}
	w := make([]float64, h.NumItems())
	for j := range w {
		w[j] = bestW
	}
	return Result{
		Algorithm: "UIP",
		Revenue:   RevenueAdditive(h, w), // exact evaluation incl. ties
		Weights:   w,
		Runtime:   time.Since(start),
	}
}

// LPItemOptions tunes the LPIP algorithm.
type LPItemOptions struct {
	// MaxCandidates caps how many valuation thresholds are tried (the paper
	// tries all m; 0 means all distinct valuations). When capped, the
	// thresholds are spread evenly over the sorted distinct valuations,
	// always including the largest and smallest; a cap of 1 keeps only the
	// smallest, the threshold that forces every edge.
	MaxCandidates int
}

// LPItem is the LPIP algorithm of Section 5.2. For every candidate
// valuation threshold v_e it solves the linear program LP(e): maximize the
// total price of the "forced" set F_e = {e' : v_e' >= v_e} subject to every
// edge in F_e being sold, then evaluates the resulting item pricing on the
// whole instance and returns the best.
func LPItem(h *hypergraph.Hypergraph, opts LPItemOptions) (Result, error) {
	start := time.Now()
	order, prefixes := LPItemThresholds(h, opts.MaxCandidates)
	best := Result{Algorithm: "LPIP"}
	lpSolves := 0
	for _, plen := range prefixes {
		w, err := solveForcedSaleLP(h, order[:plen])
		if err != nil {
			return Result{}, fmt.Errorf("pricing: LPIP threshold %d: %w", plen, err)
		}
		lpSolves++
		if w == nil {
			continue // LP not solved to optimality; skip this candidate
		}
		rev := RevenueAdditive(h, w)
		if rev > best.Revenue {
			best.Revenue = rev
			best.Weights = w
		}
	}
	if best.Weights == nil {
		best.Weights = make([]float64, h.NumItems())
	}
	best.LPSolves = lpSolves
	best.Runtime = time.Since(start)
	return best, nil
}

// LPItemThresholds returns LPIP's candidate forced sets: the edges in
// descending valuation order and the prefix lengths of that order that
// LPItem tries, ascending (prefixes end at distinct valuations, sampled
// down to maxCandidates as LPItemOptions.MaxCandidates describes).
func LPItemThresholds(h *hypergraph.Hypergraph, maxCandidates int) (order, prefixes []int) {
	m := h.NumEdges()
	order = make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return h.Edge(order[a]).Valuation > h.Edge(order[b]).Valuation
	})

	// Candidate thresholds are prefix lengths ending at distinct valuations.
	for i := 0; i < m; i++ {
		if i+1 < m && h.Edge(order[i+1]).Valuation == h.Edge(order[i]).Valuation {
			continue
		}
		prefixes = append(prefixes, i+1)
	}
	switch {
	case maxCandidates <= 0 || len(prefixes) <= maxCandidates:
	case maxCandidates == 1:
		prefixes = prefixes[len(prefixes)-1:]
	default:
		sampled := make([]int, 0, maxCandidates)
		for t := 0; t < maxCandidates; t++ {
			idx := t * (len(prefixes) - 1) / (maxCandidates - 1)
			sampled = append(sampled, prefixes[idx])
		}
		prefixes = dedupeInts(sampled)
	}
	return order, prefixes
}

func dedupeInts(in []int) []int {
	sort.Ints(in)
	out := in[:0]
	for i, v := range in {
		if i > 0 && in[i-1] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

// solveForcedSaleLP maximizes the total price of the given edges subject to
// each being sold (sum of its item weights <= its valuation), weights >= 0.
// It returns a full-length weight vector, or nil if the LP did not reach
// optimality (numerically degenerate candidate).
func solveForcedSaleLP(h *hypergraph.Hypergraph, edgeIdx []int) ([]float64, error) {
	p, items, err := ForcedSaleLP(h, edgeIdx)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return make([]float64, h.NumItems()), nil // only empty bundles forced
	}
	sol, err := p.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, nil
	}
	w := make([]float64, h.NumItems())
	for v, j := range items {
		if x := sol.X[v]; x > 0 {
			w[j] = x
		}
	}
	return w, nil
}

// ForcedSaleLP builds LPIP's LP(e) for the forced edges edgeIdx: one
// variable per item of a forced edge (ascending item order, weight >= 0,
// objective = the number of forced edges containing the item) and one
// sold-at-valuation row per nonempty forced edge. It returns the problem
// and the item of each variable, or a nil problem when no forced edge has
// an item.
func ForcedSaleLP(h *hypergraph.Hypergraph, edgeIdx []int) (*lp.Problem, []int, error) {
	// Objective coefficient of item j = number of forced edges containing j.
	coefOf := make(map[int]float64)
	for _, ei := range edgeIdx {
		for _, j := range h.Edge(ei).Items {
			coefOf[j]++
		}
	}
	if len(coefOf) == 0 {
		return nil, nil, nil
	}
	items := make([]int, 0, len(coefOf))
	for j := range coefOf {
		items = append(items, j)
	}
	sort.Ints(items)
	varOf := make(map[int]int, len(items))
	p := lp.NewProblem(lp.Maximize)
	for _, j := range items {
		varOf[j] = p.AddVariable(coefOf[j], 0, lp.Inf)
	}
	for _, ei := range edgeIdx {
		e := h.Edge(ei)
		if e.Size() == 0 {
			continue // price 0 <= v_e holds vacuously
		}
		idx := make([]int, len(e.Items))
		coef := make([]float64, len(e.Items))
		for k, j := range e.Items {
			idx[k] = varOf[j]
			coef[k] = 1
		}
		if _, err := p.AddConstraint(idx, coef, lp.LE, e.Valuation); err != nil {
			return nil, nil, err
		}
	}
	return p, items, nil
}

// CapacityOptions tunes the CIP algorithm.
type CapacityOptions struct {
	// Epsilon is the (1+eps) geometric step of the capacity search grid.
	// The paper uses eps between 0.2 and 4 depending on instance size.
	// Defaults to 0.5 when zero or negative.
	Epsilon float64
	// MaxCapacities caps the number of capacities tried (0 = no cap).
	MaxCapacities int
}

// Capacity is the CIP primal-dual algorithm of Cheung & Swamy adapted to
// unlimited supply (Section 5.2). For each capacity k on the geometric grid
// 1, (1+eps), (1+eps)^2, ... it solves the fractional welfare-maximization
// LP with per-item supply k and uses the optimal duals of the supply
// constraints as item prices, keeping the capacity whose prices extract the
// most revenue.
func Capacity(h *hypergraph.Hypergraph, opts CapacityOptions) (Result, error) {
	start := time.Now()
	eps := opts.Epsilon
	if eps <= 0 {
		eps = 0.5
	}
	B := h.MaxDegree()
	best := Result{Algorithm: "CIP", Weights: make([]float64, h.NumItems())}
	if B == 0 {
		best.Runtime = time.Since(start)
		return best, nil // no incidences: all prices zero
	}
	lpSolves := 0
	tried := 0
	for k := 1.0; k < float64(B); k *= 1 + eps {
		if opts.MaxCapacities > 0 && tried >= opts.MaxCapacities {
			break
		}
		tried++
		w, err := welfareDualPrices(h, k)
		if err != nil {
			return Result{}, fmt.Errorf("pricing: CIP capacity %g: %w", k, err)
		}
		lpSolves++
		if w == nil {
			continue
		}
		rev := RevenueAdditive(h, w)
		if rev > best.Revenue {
			best.Revenue = rev
			best.Weights = w
			best.Extra = fmt.Sprintf("k=%.3g", k)
		}
	}
	best.LPSolves = lpSolves
	best.Runtime = time.Since(start)
	return best, nil
}

// welfareDualPrices solves the welfare LP at capacity k and returns the
// duals of its item constraints as an item price vector (items without a
// constraint price at 0). Returns nil if the LP did not reach optimality.
func welfareDualPrices(h *hypergraph.Hypergraph, k float64) ([]float64, error) {
	p, rowItem, err := WelfareLP(h, k)
	if err != nil {
		return nil, err
	}
	w := make([]float64, h.NumItems())
	if len(rowItem) == 0 {
		return w, nil
	}
	sol, err := p.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, nil
	}
	for r, j := range rowItem {
		if d := sol.Dual[r]; d > 0 {
			w[j] = d
		}
	}
	return w, nil
}

// WelfareLP builds CIP's welfare LP at capacity k: max sum_e v_e x_e
// subject to x_e in [0,1] and, for every item j with degree > k,
// sum_{e contains j} x_e <= k. It returns the problem and the item of each
// row.
func WelfareLP(h *hypergraph.Hypergraph, k float64) (*lp.Problem, []int, error) {
	p := lp.NewProblem(lp.Maximize)
	m := h.NumEdges()
	for i := 0; i < m; i++ {
		p.AddVariable(h.Edge(i).Valuation, 0, 1)
	}
	inc := h.Incidence()
	rowItem := make([]int, 0)
	for j, edges := range inc {
		if float64(len(edges)) <= k {
			continue // supply constraint can never bind; dual price 0
		}
		coef := make([]float64, len(edges))
		for t := range coef {
			coef[t] = 1
		}
		if _, err := p.AddConstraint(edges, coef, lp.LE, k); err != nil {
			return nil, nil, err
		}
		rowItem = append(rowItem, j)
	}
	return p, rowItem, nil
}

// Layering is Algorithm 1 of the paper: repeatedly peel a minimal set cover
// ("layer") off the hypergraph, remember the layer with the largest total
// valuation, and price the unique item of each edge in that layer at the
// edge's valuation. O(B*m) layers each built greedily. Guarantees a
// B-approximation (Theorem 2).
func Layering(h *hypergraph.Hypergraph) Result {
	start := time.Now()
	w := make([]float64, h.NumItems())

	remaining := make([]int, 0, h.NumEdges())
	for i := 0; i < h.NumEdges(); i++ {
		if h.Edge(i).Size() > 0 {
			remaining = append(remaining, i)
		}
	}

	// One scratch set of slice-backed counters serves every layer: the
	// greedy cover's inner loop runs once per (layer, edge, item) and a map
	// lookup per item dominated the whole algorithm.
	scratch := newCoverScratch(h)
	var bestLayer []int
	bestValue := 0.0
	for len(remaining) > 0 {
		layer := minimalSetCoverWith(h, remaining, scratch)
		var val float64
		for _, ei := range layer {
			val += h.Edge(ei).Valuation
		}
		if val > bestValue {
			bestValue = val
			bestLayer = layer
		}
		// used is all-false between cover calls, so it doubles as the
		// membership scratch for the subtraction.
		remaining = subtractWith(remaining, layer, scratch.used)
	}

	// Price the unique item of each edge in the best layer.
	if len(bestLayer) > 0 {
		covered := scratch.mult // all-zero here; item -> multiplicity in the layer
		for _, ei := range bestLayer {
			for _, j := range h.Edge(ei).Items {
				covered[j]++
			}
		}
		for _, ei := range bestLayer {
			e := h.Edge(ei)
			for _, j := range e.Items {
				if covered[j] == 1 {
					w[j] = e.Valuation
					break
				}
			}
		}
	}
	return Result{
		Algorithm: "Layering",
		Revenue:   RevenueAdditive(h, w),
		Weights:   w,
		Runtime:   time.Since(start),
	}
}

// coverScratch holds the reusable slice-backed counters of the layering
// loop; every method leaves it zeroed for the next call.
type coverScratch struct {
	uncovered []bool // per item
	mult      []int  // per item
	used      []bool // per edge
}

func newCoverScratch(h *hypergraph.Hypergraph) *coverScratch {
	return &coverScratch{
		uncovered: make([]bool, h.NumItems()),
		mult:      make([]int, h.NumItems()),
		used:      make([]bool, h.NumEdges()),
	}
}

// minimalSetCover returns a minimal subset of the given edges covering the
// union of their items: first a greedy cover, then redundant edges are
// pruned so that every chosen edge keeps at least one unique item.
func minimalSetCover(h *hypergraph.Hypergraph, edges []int) []int {
	return minimalSetCoverWith(h, edges, newCoverScratch(h))
}

// minimalSetCoverWith is minimalSetCover over caller-provided scratch.
func minimalSetCoverWith(h *hypergraph.Hypergraph, edges []int, s *coverScratch) []int {
	uncoveredCount := 0
	for _, ei := range edges {
		for _, j := range h.Edge(ei).Items {
			if !s.uncovered[j] {
				s.uncovered[j] = true
				uncoveredCount++
			}
		}
	}
	var chosen []int
	for uncoveredCount > 0 {
		bestEdge, bestGain := -1, 0
		for _, ei := range edges {
			if s.used[ei] {
				continue
			}
			gain := 0
			for _, j := range h.Edge(ei).Items {
				if s.uncovered[j] {
					gain++
				}
			}
			if gain > bestGain {
				bestGain, bestEdge = gain, ei
			}
		}
		if bestEdge < 0 {
			break // cannot happen: the union is covered by the edges
		}
		s.used[bestEdge] = true
		chosen = append(chosen, bestEdge)
		for _, j := range h.Edge(bestEdge).Items {
			if s.uncovered[j] {
				s.uncovered[j] = false
				uncoveredCount--
			}
		}
	}
	// Reset the covering scratch (a break above can leave items marked).
	for _, ei := range edges {
		for _, j := range h.Edge(ei).Items {
			s.uncovered[j] = false
		}
	}
	// Minimality pruning: drop any edge whose items are all covered at
	// least twice by the chosen set.
	for _, ei := range chosen {
		s.used[ei] = false
		for _, j := range h.Edge(ei).Items {
			s.mult[j]++
		}
	}
	out := make([]int, 0, len(chosen))
	for _, ei := range chosen {
		removable := true
		for _, j := range h.Edge(ei).Items {
			if s.mult[j] < 2 {
				removable = false
				break
			}
		}
		if removable {
			for _, j := range h.Edge(ei).Items {
				s.mult[j]--
			}
			continue
		}
		out = append(out, ei)
	}
	for _, ei := range chosen {
		for _, j := range h.Edge(ei).Items {
			s.mult[j] = 0
		}
	}
	return out
}

// subtractWith filters remove out of all in place, using the caller's
// per-edge scratch (left all-false on return).
func subtractWith(all, remove []int, inRemove []bool) []int {
	for _, x := range remove {
		inRemove[x] = true
	}
	out := all[:0]
	for _, x := range all {
		if !inRemove[x] {
			out = append(out, x)
		}
	}
	for _, x := range remove {
		inRemove[x] = false
	}
	return out
}

// XOS combines any number of item pricings into the XOS pricing that
// charges every bundle the maximum of its component additive prices
// (Section 5.2, "XOS-LPIP+CIP" in the figures).
func XOS(h *hypergraph.Hypergraph, weightSets ...[]float64) Result {
	start := time.Now()
	ws := make([][]float64, 0, len(weightSets))
	for _, w := range weightSets {
		if w != nil {
			ws = append(ws, w)
		}
	}
	return Result{
		Algorithm:  "XOS",
		Revenue:    RevenueXOS(h, ws),
		WeightSets: ws,
		Runtime:    time.Since(start),
	}
}

// RefineUniformBundle is the post-processing step of Section 6.3: starting
// from the revenue-maximizing flat price P, it solves one LP that finds the
// revenue-maximizing item pricing among those that still sell every bundle
// the flat price sold, often strictly improving revenue (the paper reports
// 0.78 -> 0.99 normalized revenue on TPC-H).
func RefineUniformBundle(h *hypergraph.Hypergraph, bundlePrice float64) (Result, error) {
	start := time.Now()
	var sold []int
	for i := 0; i < h.NumEdges(); i++ {
		if Sold(bundlePrice, h.Edge(i).Valuation) {
			sold = append(sold, i)
		}
	}
	w, err := solveForcedSaleLP(h, sold)
	if err != nil {
		return Result{}, fmt.Errorf("pricing: refine UBP: %w", err)
	}
	if w == nil {
		w = make([]float64, h.NumItems())
	}
	return Result{
		Algorithm: "UBP+LP",
		Revenue:   RevenueAdditive(h, w),
		Weights:   w,
		Runtime:   time.Since(start),
		LPSolves:  1,
	}, nil
}
