// Package bounds computes the revenue bounds the paper's figures report:
// the trivial sum of valuations, an upper bound on any pricing's revenue
// that every figure normalizes against, and the heuristic "subadditive
// bound" of Section 6.1 — a linear program whose variables are
// per-bundle prices capped by valuations and whose constraints encode
// arbitrage (cover) relations between bundles, with constraints generated
// greedily because their full number is exponential.
//
// As the paper itself notes ("the subadditive bound not being as good as it
// should be", Section 6.3), this LP is a pragmatic estimate of the optimal
// subadditive revenue rather than an exact bound: it restricts attention to
// pricings that sell every bundle and only includes greedily-discovered
// cover constraints. It is reported as its own series in the figures, never
// used to normalize.
package bounds

import (
	"fmt"
	"sort"

	"querypricing/internal/hypergraph"
	"querypricing/internal/lp"
)

// Options tunes the subadditive bound LP.
type Options struct {
	// MaxCoversPerEdge caps how many cover constraints are generated for
	// each bundle (default 1: the single greedy cover, as in the paper).
	MaxCoversPerEdge int
	// MaxConstraints caps the total number of cover constraints (0 = no
	// cap); the paper adds constraints greedily starting from the bundles
	// with the largest valuations.
	MaxConstraints int
}

// SumValuations returns the weak upper bound sum_e v_e used as the
// normalizer in every figure of the paper.
func SumValuations(h *hypergraph.Hypergraph) float64 {
	return h.TotalValuation()
}

// Subadditive computes the paper's heuristic subadditive LP: maximize
// sum_e p_e with 0 <= p_e <= v_e subject to p_e <= sum_{e' in C(e)} p_{e'}
// for a greedily-chosen cover C(e) of every bundle e by other bundles
// (bundles that cannot be covered keep only the p_e <= v_e cap).
//
// It is not an upper bound on revenue. It bounds only pricings that sell
// every bundle: a pricing that declines some sales can earn more. Two
// bundles over one item valued 10 and 1 give an LP value of 2, while the
// item price 10 earns 10.
func Subadditive(h *hypergraph.Hypergraph, opts Options) (float64, error) {
	m := h.NumEdges()
	if m == 0 {
		return 0, nil
	}
	coversPer := opts.MaxCoversPerEdge
	if coversPer <= 0 {
		coversPer = 1
	}

	p := lp.NewProblem(lp.Maximize)
	for i := 0; i < m; i++ {
		p.AddVariable(1, 0, h.Edge(i).Valuation)
	}

	// Process bundles from the largest valuation down, as in the paper.
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return h.Edge(order[a]).Valuation > h.Edge(order[b]).Valuation
	})

	inc := h.Incidence()
	added := 0
	for _, ei := range order {
		if opts.MaxConstraints > 0 && added >= opts.MaxConstraints {
			break
		}
		e := h.Edge(ei)
		if e.Size() == 0 {
			// The empty bundle is covered by the empty set: p_e <= 0.
			if _, err := p.AddConstraint([]int{ei}, []float64{1}, lp.LE, 0); err != nil {
				return 0, err
			}
			added++
			continue
		}
		for c := 0; c < coversPer; c++ {
			cover := greedyCheapCover(h, inc, ei, c)
			if cover == nil {
				break
			}
			idx := make([]int, 0, len(cover)+1)
			coef := make([]float64, 0, len(cover)+1)
			idx = append(idx, ei)
			coef = append(coef, 1)
			for _, ci := range cover {
				idx = append(idx, ci)
				coef = append(coef, -1)
			}
			if _, err := p.AddConstraint(idx, coef, lp.LE, 0); err != nil {
				return 0, err
			}
			added++
		}
	}

	sol, err := p.Solve()
	if err != nil {
		return 0, fmt.Errorf("bounds: subadditive LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		// Fall back to the trivial bound rather than reporting garbage.
		return SumValuations(h), nil
	}
	return sol.Objective, nil
}

// greedyCheapCover finds a set of other edges covering edge ei's items,
// greedily preferring low valuation per newly-covered item (so the
// constraint is as tight as possible). variant > 0 skips the first
// `variant` preferred choices to diversify multiple covers for the same
// edge. Returns nil when no cover by other edges exists.
func greedyCheapCover(h *hypergraph.Hypergraph, inc [][]int, ei, variant int) []int {
	e := h.Edge(ei)
	uncovered := make(map[int]bool, e.Size())
	for _, j := range e.Items {
		uncovered[j] = true
	}
	var cover []int
	used := map[int]bool{ei: true}
	skips := variant
	for len(uncovered) > 0 {
		bestEdge := -1
		bestScore := 0.0
		// Candidate edges are those incident to some uncovered item.
		for j := range uncovered {
			for _, cand := range inc[j] {
				if used[cand] {
					continue
				}
				gain := 0
				for _, jj := range h.Edge(cand).Items {
					if uncovered[jj] {
						gain++
					}
				}
				if gain == 0 {
					continue
				}
				score := h.Edge(cand).Valuation / float64(gain)
				if bestEdge < 0 || score < bestScore {
					bestEdge, bestScore = cand, score
				}
			}
		}
		if bestEdge < 0 {
			return nil // some item of e belongs to no other edge
		}
		if skips > 0 {
			skips--
			used[bestEdge] = true
			continue
		}
		used[bestEdge] = true
		cover = append(cover, bestEdge)
		for _, jj := range h.Edge(bestEdge).Items {
			delete(uncovered, jj)
		}
	}
	if len(cover) == 0 {
		return nil
	}
	return cover
}
