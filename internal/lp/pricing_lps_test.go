package lp_test

import (
	"testing"

	"querypricing/internal/experiments"
	"querypricing/internal/lp"
	"querypricing/internal/pricing"
	"querypricing/internal/valuation"
)

// TestPricingLPsMatchDense checks the kernel against the dense reference on
// the LPs the pricing algorithms solve: LPIP's forced-sale LPs at 16
// thresholds and CIP's welfare LPs over its capacity grid (eps = 0.5), on
// the world-skewed, SSB and TPC-H hypergraphs at |S| = 400 under
// Uniform[1,100] valuations.
func TestPricingLPsMatchDense(t *testing.T) {
	for _, w := range []experiments.Workload{experiments.Skewed, experiments.SSB, experiments.TPCH} {
		t.Run(string(w), func(t *testing.T) {
			sc, err := experiments.Build(experiments.Config{Workload: w, SupportSize: 400, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			h := sc.H
			valuation.Apply(h, valuation.Uniform{K: 100}, 2)

			var problems []*lp.Problem
			order, prefixes := pricing.LPItemThresholds(h, 16)
			for _, plen := range prefixes {
				p, _, err := pricing.ForcedSaleLP(h, order[:plen])
				if err != nil {
					t.Fatal(err)
				}
				if p != nil {
					problems = append(problems, p)
				}
			}
			for k := 1.0; k < float64(h.MaxDegree()); k *= 1.5 {
				p, rows, err := pricing.WelfareLP(h, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) > 0 {
					problems = append(problems, p)
				}
			}

			for i, p := range problems {
				got, err := p.Solve()
				if err != nil {
					t.Fatalf("LP %d: %v", i, err)
				}
				want, err := lp.SolveDense(p)
				if err != nil {
					t.Fatalf("LP %d, dense: %v", i, err)
				}
				if err := lp.SameSolution(got, want); err != nil {
					t.Errorf("LP %d (%d rows, %d vars): %v", i, p.NumConstraints(), p.NumVariables(), err)
				}
			}
			if len(problems) == 0 {
				t.Fatalf("no LPs built for %s", w)
			}
		})
	}
}
