package pricing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"querypricing/internal/hypergraph"
)

// randInstance builds a random hypergraph with n items, m edges and
// valuations in (0, maxV].
func randInstance(rng *rand.Rand, n, m int, maxV float64) *hypergraph.Hypergraph {
	h := hypergraph.New(n)
	for i := 0; i < m; i++ {
		sz := 1 + rng.Intn(4)
		items := make([]int, sz)
		for k := range items {
			items[k] = rng.Intn(n)
		}
		if err := h.AddEdge(items, rng.Float64()*maxV+0.01, ""); err != nil {
			panic(err)
		}
	}
	return h
}

func TestUniformBundleMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		h := randInstance(rng, 6, 1+rng.Intn(12), 10)
		got := UniformBundle(h)
		best := 0.0
		for i := 0; i < h.NumEdges(); i++ {
			if r := RevenueUniformBundle(h, h.Edge(i).Valuation); r > best {
				best = r
			}
		}
		if math.Abs(got.Revenue-best) > 1e-9*(1+best) {
			t.Fatalf("trial %d: UBP revenue %g, brute force %g", trial, got.Revenue, best)
		}
		if r := RevenueUniformBundle(h, got.BundlePrice); math.Abs(r-got.Revenue) > 1e-9*(1+best) {
			t.Fatalf("trial %d: reported price %g yields %g, not %g", trial, got.BundlePrice, r, got.Revenue)
		}
	}
}

func TestUniformItemMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		h := randInstance(rng, 6, 1+rng.Intn(12), 10)
		got := UniformItem(h)
		best := 0.0
		for i := 0; i < h.NumEdges(); i++ {
			e := h.Edge(i)
			if e.Size() == 0 {
				continue
			}
			w := make([]float64, h.NumItems())
			q := e.Valuation / float64(e.Size())
			for j := range w {
				w[j] = q
			}
			if r := RevenueAdditive(h, w); r > best {
				best = r
			}
		}
		if got.Revenue < best-1e-9*(1+best) {
			t.Fatalf("trial %d: UIP revenue %g below brute force %g", trial, got.Revenue, best)
		}
	}
}

func TestUniformItemIgnoresEmptyEdges(t *testing.T) {
	h := hypergraph.New(2)
	if err := h.AddEdge(nil, 100, "empty"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddEdge([]int{0}, 5, ""); err != nil {
		t.Fatal(err)
	}
	got := UniformItem(h)
	if math.Abs(got.Revenue-5) > 1e-9 {
		t.Fatalf("revenue = %g, want 5 (empty edge sells at 0)", got.Revenue)
	}
}

func TestLayeringBApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		h := randInstance(rng, 8, 2+rng.Intn(15), 20)
		got := Layering(h)
		var total float64
		for i := 0; i < h.NumEdges(); i++ {
			if h.Edge(i).Size() > 0 {
				total += h.Edge(i).Valuation
			}
		}
		B := h.MaxDegree()
		if B == 0 {
			continue
		}
		if got.Revenue < total/float64(B)-1e-7 {
			t.Fatalf("trial %d: layering revenue %g below (sum v)/B = %g (B=%d)", trial, got.Revenue, total/float64(B), B)
		}
	}
}

func TestMinimalSetCoverUniqueItems(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		h := randInstance(rng, 10, 3+rng.Intn(10), 5)
		var edges []int
		for i := 0; i < h.NumEdges(); i++ {
			if h.Edge(i).Size() > 0 {
				edges = append(edges, i)
			}
		}
		if len(edges) == 0 {
			continue
		}
		cover := minimalSetCover(h, edges)
		// Covers the union.
		want := map[int]bool{}
		for _, ei := range edges {
			for _, j := range h.Edge(ei).Items {
				want[j] = true
			}
		}
		got := map[int]bool{}
		mult := map[int]int{}
		for _, ei := range cover {
			for _, j := range h.Edge(ei).Items {
				got[j] = true
				mult[j]++
			}
		}
		for j := range want {
			if !got[j] {
				t.Fatalf("trial %d: item %d not covered", trial, j)
			}
		}
		// Every cover edge has a unique item.
		for _, ei := range cover {
			unique := false
			for _, j := range h.Edge(ei).Items {
				if mult[j] == 1 {
					unique = true
					break
				}
			}
			if !unique {
				t.Fatalf("trial %d: cover edge %d has no unique item", trial, ei)
			}
		}
	}
}

func TestLayeringSingleLayerExtractsFullRevenue(t *testing.T) {
	// Disjoint edges: one layer, full revenue.
	h := hypergraph.New(6)
	vals := []float64{3, 7, 2}
	for i, v := range vals {
		if err := h.AddEdge([]int{2 * i, 2*i + 1}, v, ""); err != nil {
			t.Fatal(err)
		}
	}
	got := Layering(h)
	if math.Abs(got.Revenue-12) > 1e-9 {
		t.Fatalf("revenue = %g, want 12", got.Revenue)
	}
}

func TestLPItemSimple(t *testing.T) {
	// Two overlapping edges; the optimal item pricing sells both.
	// e1 = {0,1} v=10, e2 = {1,2} v=6. Best additive: w1=4..10 on item 0 etc.
	// Max revenue selling both: w0 + w1 <= 10, w1 + w2 <= 6 maximize sum of
	// prices = w0+2w1+w2 -> w0=10, w1=0, w2=6 gives 16.
	h := hypergraph.New(3)
	if err := h.AddEdge([]int{0, 1}, 10, ""); err != nil {
		t.Fatal(err)
	}
	if err := h.AddEdge([]int{1, 2}, 6, ""); err != nil {
		t.Fatal(err)
	}
	got, err := LPItem(h, LPItemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Revenue < 16-1e-6 {
		t.Fatalf("LPIP revenue = %g, want >= 16", got.Revenue)
	}
}

func TestLPItemAtLeastUniformOnSharedSupport(t *testing.T) {
	// LPIP with the all-edges threshold forces every edge to be sold, which
	// dominates any uniform price that sells every edge.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		h := randInstance(rng, 6, 2+rng.Intn(8), 10)
		lpip, err := LPItem(h, LPItemOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// The uniform item price that sells everything.
		minQ := math.Inf(1)
		for i := 0; i < h.NumEdges(); i++ {
			e := h.Edge(i)
			if e.Size() == 0 {
				continue
			}
			if q := e.Valuation / float64(e.Size()); q < minQ {
				minQ = q
			}
		}
		if math.IsInf(minQ, 1) {
			continue
		}
		w := make([]float64, h.NumItems())
		for j := range w {
			w[j] = minQ
		}
		sellAll := RevenueAdditive(h, w)
		if lpip.Revenue < sellAll-1e-6*(1+sellAll) {
			t.Fatalf("trial %d: LPIP %g below sell-everything uniform %g", trial, lpip.Revenue, sellAll)
		}
	}
}

func TestCapacitySimple(t *testing.T) {
	// One item, two unit edges with values 1 and 2. Capacity 1 makes the
	// supply constraint bind; its dual prices the item at 1, selling both
	// edges for revenue 2.
	h := hypergraph.New(1)
	if err := h.AddEdge([]int{0}, 1, ""); err != nil {
		t.Fatal(err)
	}
	if err := h.AddEdge([]int{0}, 2, ""); err != nil {
		t.Fatal(err)
	}
	got, err := Capacity(h, CapacityOptions{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got.Revenue < 2-1e-6 {
		t.Fatalf("CIP revenue = %g, want >= 2", got.Revenue)
	}
}

func TestCapacityNoEdges(t *testing.T) {
	h := hypergraph.New(5)
	got, err := Capacity(h, CapacityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Revenue != 0 {
		t.Fatalf("revenue = %g, want 0", got.Revenue)
	}
}

func TestXOSTakesMax(t *testing.T) {
	h := hypergraph.New(2)
	if err := h.AddEdge([]int{0}, 5, ""); err != nil {
		t.Fatal(err)
	}
	if err := h.AddEdge([]int{1}, 5, ""); err != nil {
		t.Fatal(err)
	}
	w1 := []float64{5, 0}
	w2 := []float64{0, 5}
	got := XOS(h, w1, w2)
	if math.Abs(got.Revenue-10) > 1e-9 {
		t.Fatalf("XOS revenue = %g, want 10", got.Revenue)
	}
	// XOS can also overshoot and lose sales that a component would make.
	h2 := hypergraph.New(2)
	if err := h2.AddEdge([]int{0, 1}, 5, ""); err != nil {
		t.Fatal(err)
	}
	wa := []float64{5, 0}
	wb := []float64{0, 3}
	// max(5, 3) = 5 <= 5: sold at 5.
	if r := XOS(h2, wa, wb); math.Abs(r.Revenue-5) > 1e-9 {
		t.Fatalf("XOS revenue = %g, want 5", r.Revenue)
	}
	wc := []float64{4, 2} // additive price 6 > 5: not sold
	if r := XOS(h2, wa, wc); r.Revenue != 0 {
		t.Fatalf("XOS revenue = %g, want 0 (overshoot)", r.Revenue)
	}
}

func TestXOSAtLeastRevenueOfNeither(t *testing.T) {
	// The paper observes XOS(LPIP, CIP) may be worse than both components:
	// construct that situation explicitly.
	h := hypergraph.New(2)
	if err := h.AddEdge([]int{0, 1}, 4, ""); err != nil {
		t.Fatal(err)
	}
	w1 := []float64{4, 0} // sells at 4
	w2 := []float64{0, 4} // sells at 4
	// XOS price = max(4,4) = 4 -> sold. Here it matches.
	if r := XOS(h, w1, w2); math.Abs(r.Revenue-4) > 1e-9 {
		t.Fatalf("XOS = %g, want 4", r.Revenue)
	}
	w3 := []float64{3, 3} // price 6 > 4, loses the sale on its own
	if r := XOS(h, w1, w3); r.Revenue != 0 {
		t.Fatalf("XOS = %g, want 0: max(4, 6) = 6 > 4", r.Revenue)
	}
}

func TestRefineUniformBundleImproves(t *testing.T) {
	h := hypergraph.New(2)
	if err := h.AddEdge([]int{0, 1}, 10, ""); err != nil {
		t.Fatal(err)
	}
	if err := h.AddEdge([]int{0}, 4, ""); err != nil {
		t.Fatal(err)
	}
	if err := h.AddEdge([]int{1}, 4, ""); err != nil {
		t.Fatal(err)
	}
	ubp := UniformBundle(h)
	if math.Abs(ubp.Revenue-12) > 1e-9 {
		t.Fatalf("UBP revenue = %g, want 12 (P=4 sells all three)", ubp.Revenue)
	}
	ref, err := RefineUniformBundle(h, ubp.BundlePrice)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Revenue < 16-1e-6 {
		t.Fatalf("refined revenue = %g, want >= 16 (w=(4,4))", ref.Revenue)
	}
}

func TestSoldTolerance(t *testing.T) {
	if !Sold(10, 10) {
		t.Fatal("exact price must sell")
	}
	if !Sold(10+1e-10, 10) {
		t.Fatal("price within tolerance must sell")
	}
	if Sold(10.1, 10) {
		t.Fatal("price above tolerance must not sell")
	}
}

// TestAdditiveIsMonotoneSubadditive property-tests the arbitrage-freeness
// precondition (Theorem 1): any nonnegative item pricing is monotone and
// subadditive over bundles.
func TestAdditiveIsMonotoneSubadditive(t *testing.T) {
	const n = 12
	f := func(rawW [n]uint8, maskA, maskB uint16) bool {
		w := make([]float64, n)
		for j := range w {
			w[j] = float64(rawW[j])
		}
		setOf := func(mask uint16) []int {
			var s []int
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					s = append(s, j)
				}
			}
			return s
		}
		a := setOf(maskA & maskB) // a subseteq b
		b := setOf(maskB)
		u := setOf(maskA | maskB)
		price := func(items []int) float64 {
			e := hypergraph.Edge{Items: items}
			return AdditivePrice(&e, w)
		}
		// Monotone: p(a) <= p(b) for a subset of b.
		if price(a) > price(b)+1e-9 {
			return false
		}
		// Subadditive: p(a union b) <= p(a') + p(b) where a' = maskA.
		if price(u) > price(setOf(maskA))+price(b)+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestXOSIsMonotoneSubadditive property-tests that XOS combinations remain
// monotone and subadditive (so arbitrage-free by Theorem 1).
func TestXOSIsMonotoneSubadditive(t *testing.T) {
	const n = 10
	f := func(raw1, raw2 [n]uint8, maskA, maskB uint16) bool {
		w1 := make([]float64, n)
		w2 := make([]float64, n)
		for j := 0; j < n; j++ {
			w1[j] = float64(raw1[j])
			w2[j] = float64(raw2[j])
		}
		price := func(mask uint16) float64 {
			var items []int
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					items = append(items, j)
				}
			}
			e := hypergraph.Edge{Items: items}
			return XOSPrice(&e, [][]float64{w1, w2})
		}
		sub := maskA & maskB
		union := maskA | maskB
		if price(sub) > price(maskB)+1e-9 {
			return false
		}
		if price(union) > price(maskA)+price(maskB)+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestRevenueNeverExceedsTotalValuation property-tests the basic sanity
// bound R(p) <= sum of valuations for every algorithm.
func TestRevenueNeverExceedsTotalValuation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		h := randInstance(rng, 8, 2+rng.Intn(12), 15)
		total := h.TotalValuation()
		check := func(name string, rev float64) {
			if rev > total+1e-6*(1+total) {
				t.Fatalf("trial %d: %s revenue %g exceeds total valuation %g", trial, name, rev, total)
			}
			if rev < 0 {
				t.Fatalf("trial %d: %s negative revenue %g", trial, name, rev)
			}
		}
		check("UBP", UniformBundle(h).Revenue)
		check("UIP", UniformItem(h).Revenue)
		check("Layering", Layering(h).Revenue)
		lpip, err := LPItem(h, LPItemOptions{})
		if err != nil {
			t.Fatal(err)
		}
		check("LPIP", lpip.Revenue)
		cip, err := Capacity(h, CapacityOptions{Epsilon: 1})
		if err != nil {
			t.Fatal(err)
		}
		check("CIP", cip.Revenue)
		check("XOS", XOS(h, lpip.Weights, cip.Weights).Revenue)
	}
}

// TestReportedRevenueMatchesWeights verifies that each algorithm's reported
// revenue equals the evaluation of its reported pricing function.
func TestReportedRevenueMatchesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		h := randInstance(rng, 7, 2+rng.Intn(10), 12)
		results := []Result{UniformItem(h), Layering(h)}
		if r, err := LPItem(h, LPItemOptions{}); err == nil {
			results = append(results, r)
		} else {
			t.Fatal(err)
		}
		if r, err := Capacity(h, CapacityOptions{Epsilon: 1}); err == nil {
			results = append(results, r)
		} else {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Weights == nil {
				continue
			}
			ev := RevenueAdditive(h, r.Weights)
			if math.Abs(ev-r.Revenue) > 1e-6*(1+ev) {
				t.Fatalf("trial %d: %s reported %g but weights evaluate to %g", trial, r.Algorithm, r.Revenue, ev)
			}
		}
		ubp := UniformBundle(h)
		if ev := RevenueUniformBundle(h, ubp.BundlePrice); math.Abs(ev-ubp.Revenue) > 1e-9*(1+ev) {
			t.Fatalf("trial %d: UBP reported %g but price evaluates to %g", trial, ubp.Revenue, ev)
		}
	}
}

func TestLPItemMaxCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := randInstance(rng, 10, 30, 10)
	full, err := LPItem(h, LPItemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := LPItem(h, LPItemOptions{MaxCandidates: 5})
	if err != nil {
		t.Fatal(err)
	}
	if capped.LPSolves > 5 {
		t.Fatalf("capped LPIP solved %d LPs, want <= 5", capped.LPSolves)
	}
	if capped.Revenue > full.Revenue+1e-6*(1+full.Revenue) {
		t.Fatalf("capped revenue %g exceeds full revenue %g", capped.Revenue, full.Revenue)
	}
}

// TestLPItemSingleCandidate pins a cap of one threshold, which used to
// divide by zero when more than one distinct valuation exists: LPIP then
// solves exactly the LP that forces every edge.
func TestLPItemSingleCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := randInstance(rng, 10, 30, 10)
	order, prefixes := LPItemThresholds(h, 1)
	if len(prefixes) != 1 || prefixes[0] != h.NumEdges() {
		t.Fatalf("cap 1 kept prefixes %v, want [%d]", prefixes, h.NumEdges())
	}
	res, err := LPItem(h, LPItemOptions{MaxCandidates: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.LPSolves != 1 {
		t.Fatalf("cap 1 solved %d LPs, want 1", res.LPSolves)
	}
	w, err := solveForcedSaleLP(h, order)
	if err != nil || w == nil {
		t.Fatalf("all-forced LP: w=%v err=%v", w, err)
	}
	if want := RevenueAdditive(h, w); res.Revenue != want {
		t.Fatalf("cap 1 revenue %g, want the all-forced LP's %g", res.Revenue, want)
	}
}

func TestResultPrice(t *testing.T) {
	e := hypergraph.Edge{Items: []int{0, 2}}
	r := Result{BundlePrice: 7}
	if r.Price(&e) != 7 {
		t.Fatal("bundle price path broken")
	}
	r = Result{Weights: []float64{1, 2, 3}}
	if r.Price(&e) != 4 {
		t.Fatal("additive price path broken")
	}
	r = Result{WeightSets: [][]float64{{1, 2, 3}, {5, 0, 0}}}
	if r.Price(&e) != 5 {
		t.Fatal("XOS price path broken")
	}
}
