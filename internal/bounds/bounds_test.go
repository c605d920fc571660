package bounds

import (
	"math"
	"math/rand"
	"testing"

	"querypricing/internal/hypergraph"
	"querypricing/internal/pricing"
)

func TestSumValuations(t *testing.T) {
	h := hypergraph.MustFromEdges(2, []hypergraph.Edge{
		{Items: []int{0}, Valuation: 3},
		{Items: []int{1}, Valuation: 4},
	})
	if got := SumValuations(h); got != 7 {
		t.Fatalf("SumValuations = %g, want 7", got)
	}
}

func TestSubadditiveNoCoversEqualsSum(t *testing.T) {
	// Disjoint singleton edges: no edge can be covered by others, so the
	// bound degenerates to the sum of valuations.
	h := hypergraph.MustFromEdges(3, []hypergraph.Edge{
		{Items: []int{0}, Valuation: 5},
		{Items: []int{1}, Valuation: 2},
		{Items: []int{2}, Valuation: 9},
	})
	got, err := Subadditive(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-16) > 1e-6 {
		t.Fatalf("bound = %g, want 16", got)
	}
}

func TestSubadditiveCoverTightens(t *testing.T) {
	// A big bundle covered by two cheap bundles: its price is capped by the
	// cover, so the bound falls below the valuation sum.
	h := hypergraph.MustFromEdges(4, []hypergraph.Edge{
		{Items: []int{0, 1}, Valuation: 1},
		{Items: []int{2, 3}, Valuation: 1},
		{Items: []int{0, 1, 2, 3}, Valuation: 100},
	})
	got, err := Subadditive(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// p_big <= p_1 + p_2 <= 2, so bound <= 1 + 1 + 2 = 4 << 102.
	if got > 4+1e-6 {
		t.Fatalf("bound = %g, want <= 4", got)
	}
	if got < 4-1e-6 {
		t.Fatalf("bound = %g, want exactly 4 here", got)
	}
}

func TestSubadditiveEmptyEdgePricedZero(t *testing.T) {
	h := hypergraph.MustFromEdges(1, []hypergraph.Edge{
		{Items: nil, Valuation: 50},
		{Items: []int{0}, Valuation: 3},
	})
	got, err := Subadditive(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-3) > 1e-6 {
		t.Fatalf("bound = %g, want 3 (empty bundle priced 0)", got)
	}
}

func TestSubadditiveDominatesSellEverythingPricings(t *testing.T) {
	// The bound is the LP optimum over arbitrage-consistent price vectors
	// that sell EVERY bundle, so it must dominate any additive pricing that
	// sells everything: such a pricing's prices are feasible for the LP
	// (additive prices satisfy every cover constraint). A pricing that
	// declines some sales (like full LPIP) can legitimately exceed the
	// bound; the paper itself flags this looseness in Section 6.3.
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 25; trial++ {
		h := hypergraph.New(8)
		m := 3 + rng.Intn(8)
		for i := 0; i < m; i++ {
			sz := 1 + rng.Intn(3)
			items := rng.Perm(8)[:sz]
			if err := h.AddEdge(items, 1+rng.Float64()*9, ""); err != nil {
				t.Fatal(err)
			}
		}
		bound, err := Subadditive(h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The largest uniform item price that still sells every bundle.
		minQ := math.Inf(1)
		for i := 0; i < h.NumEdges(); i++ {
			e := h.Edge(i)
			if q := e.Valuation / float64(e.Size()); q < minQ {
				minQ = q
			}
		}
		w := make([]float64, h.NumItems())
		for j := range w {
			w[j] = minQ
		}
		sellAll := pricing.RevenueAdditive(h, w)
		if bound < sellAll-1e-4*(1+sellAll) {
			t.Fatalf("trial %d: subadditive bound %g below sell-everything revenue %g", trial, bound, sellAll)
		}
		if bound > SumValuations(h)+1e-6 {
			t.Fatalf("trial %d: bound %g exceeds sum of valuations %g", trial, bound, SumValuations(h))
		}
	}
}

// TestSubadditiveIsNotARevenueBound pins the counterexample the doc
// comment gives: two bundles over one item, valued 10 and 1. Each covers
// the other, so the LP caps both at 1 and returns 2, while the item price
// 10 sells only the first bundle and earns 10.
func TestSubadditiveIsNotARevenueBound(t *testing.T) {
	h := hypergraph.MustFromEdges(1, []hypergraph.Edge{
		{Items: []int{0}, Valuation: 10},
		{Items: []int{0}, Valuation: 1},
	})
	bound, err := Subadditive(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bound-2) > 1e-6 {
		t.Fatalf("subadditive LP = %g, want 2", bound)
	}
	if rev := pricing.RevenueAdditive(h, []float64{10}); math.Abs(rev-10) > 1e-9 {
		t.Fatalf("item price 10 earns %g, want 10", rev)
	}
}

func TestSubadditiveMaxConstraints(t *testing.T) {
	h := hypergraph.New(6)
	for i := 0; i < 12; i++ {
		if err := h.AddEdge([]int{i % 6, (i + 1) % 6}, 1+float64(i), ""); err != nil {
			t.Fatal(err)
		}
	}
	full, err := Subadditive(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := Subadditive(h, Options{MaxConstraints: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Fewer constraints -> weakly larger LP value.
	if capped < full-1e-6 {
		t.Fatalf("capped bound %g below full bound %g", capped, full)
	}
}

func TestSubadditiveEmptyInstance(t *testing.T) {
	h := hypergraph.New(0)
	got, err := Subadditive(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("bound = %g, want 0", got)
	}
}
