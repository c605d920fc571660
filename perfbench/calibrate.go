package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"querypricing/internal/bounds"
	"querypricing/internal/datagen"
	"querypricing/internal/engine"
	"querypricing/internal/pricing"
	"querypricing/internal/relational"
	"querypricing/internal/support"
	"querypricing/internal/valuation"
	"querypricing/internal/workloads"
)

// roster is the paper's six-algorithm roster, in engine.List order.
var roster = []string{"UBP", "UIP", "LPIP", "CIP", "Layering", "XOS"}

// calDataset is one paper dataset of the calibration leg, at the
// laptop-default sizes internal/experiments uses, with its |S| and the
// paper's per-workload CIP grid step.
type calDataset struct {
	name    string
	support int
	cipEps  float64
	gen     func(seed int64) (*relational.Database, []*relational.SelectQuery)
}

func worldDB(seed int64) *relational.Database {
	return datagen.World(datagen.WorldConfig{Countries: 239, Cities: 600, Seed: seed})
}

var calDatasets = []calDataset{
	{"world-skewed", 400, 0.2, func(seed int64) (*relational.Database, []*relational.SelectQuery) {
		db := worldDB(seed)
		return db, workloads.Skewed(db)
	}},
	{"world-uniform", 400, 4, func(seed int64) (*relational.Database, []*relational.SelectQuery) {
		db := worldDB(seed)
		return db, workloads.Uniform(db, 1000)
	}},
	{"ssb", 400, 3, func(seed int64) (*relational.Database, []*relational.SelectQuery) {
		db := datagen.SSB(datagen.SSBConfig{Customers: 600, Suppliers: 300, Parts: 300, LineOrders: 4000, Seed: seed})
		return db, workloads.SSB(db)
	}},
	{"tpch", 400, 3, func(seed int64) (*relational.Database, []*relational.SelectQuery) {
		db := datagen.TPCH(datagen.TPCHConfig{Parts: 400, Suppliers: 50, Customers: 150, Orders: 1200, Seed: seed})
		return db, workloads.TPCH(db)
	}},
}

// Calibration caps: marketd's LPIP threshold cap, and a cap on CIP's
// capacity grid (uncapped CIP can run for minutes on SSB).
const (
	lpipCandidates   = 16
	cipMaxCapacities = 8
)

// calibratePass is one pass of the offline calibration leg: one caller,
// no HTTP, no store. For each dataset it samples the support set, builds
// the hypergraph, draws valuations and prices the roster. It returns the
// fit time (data generation excluded) and the mean normalized revenue.
// The first pass also checks every revenue against the upper bound and a
// probe sample of conflict sets against a single-shard rebuild, and sets
// the calibration layers' metrics.
func calibratePass(o options, rep *report, tr *tracer, first bool) (fit, fitCPU time.Duration, norm float64, err error) {
	var (
		gen, build, apply     time.Duration
		perAlg                = map[string]time.Duration{}
		norms                 []float64
		pairs, pruned, probes float64
		fallbacks             float64
	)
	for _, d := range calDatasets {
		db, queries := d.gen(o.seed)
		start, cpu0 := time.Now(), cpuTime()
		t := time.Now()
		set, err := support.Generate(db, support.GenOptions{Size: d.support, Seed: o.seed + 7, Shards: lanes})
		tr.spanSince("support.generate", t)
		gen += time.Since(t)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%s: %w", d.name, err)
		}
		t = time.Now()
		h, st, err := support.BuildHypergraph(set, queries, support.BuildOptions{})
		tr.spanSince("support.build", t)
		build += time.Since(t)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%s: %w", d.name, err)
		}
		t = time.Now()
		valuation.Apply(h, valuation.Uniform{K: 100}, o.seed+1)
		tr.spanSince("valuation.apply", t)
		apply += time.Since(t)
		opts := engine.Options{LPIPMaxCandidates: lpipCandidates, CIPEpsilon: d.cipEps, CIPMaxCapacities: cipMaxCapacities, Shards: lanes}
		results := map[string]pricing.Result{}
		for _, alg := range roster {
			if alg == "XOS" {
				opts.XOSWeightSets = [][]float64{results["LPIP"].Weights, results["CIP"].Weights}
			}
			t = time.Now()
			res, err := engine.Price(alg, h, opts)
			tr.spanSince("engine.price."+alg, t)
			perAlg[alg] += time.Since(t)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("%s %s: %w", d.name, alg, err)
			}
			results[alg] = res
		}
		fitted := time.Since(start)
		fit += fitted
		fitCPU += cpuTime() - cpu0

		// Σ v_e is the bounds package's upper bound on any pricing's
		// revenue. Its subadditive LP bound is not one: it caps every
		// bundle's price at its valuation, so a pricing that leaves some
		// bundles unsold can beat it (NOTES.md).
		sum := bounds.SumValuations(h)
		for _, alg := range roster {
			norms = append(norms, results[alg].Revenue/sum)
		}
		if !first {
			continue
		}
		for _, alg := range roster {
			rev := results[alg].Revenue
			rep.check(fmt.Sprintf("%s %s revenue within the upper bound", d.name, alg), rev >= 0 && rev <= sum*(1+1e-9),
				"revenue %.2f, Σ valuations %.2f", rev, sum)
		}
		pairs += float64(len(queries) * set.Size())
		pruned += float64(st.PrunedByCols + st.PrunedByPred)
		probes += float64(st.DeltaProbes + st.Fallbacks)
		fallbacks += float64(st.Fallbacks)

		// Conflict sets of a probe sample against a single-shard rebuild
		// over the same neighbors.
		single := &support.Set{DB: db, Neighbors: set.Neighbors, Shards: 1}
		rng := rand.New(rand.NewSource(o.seed))
		same, n := true, min(16, len(queries))
		for _, qi := range rng.Perm(len(queries))[:n] {
			cs, err := support.ConflictSet(single, queries[qi])
			same = same && err == nil && slices.Equal(cs, h.Edge(qi).Items)
		}
		rep.check(d.name+" conflict sets equal a single-shard rebuild", same, "%d probe queries, %d shards vs 1", n, set.NumShards())
		rep.note("calibrate %-13s |S| %d, %d queries, %d rows: fit %.3f s", d.name, d.support, len(queries), rowCount(db), fitted.Seconds())
	}
	if first {
		rep.set("support.generate_s", gen.Seconds(), "s")
		rep.set("support.build_s", build.Seconds(), "s")
		rep.set("support.pruned_share", pruned/pairs, "share")
		rep.set("support.fallback_share", fallbacks/probes, "share")
		rep.set("valuation.apply_ms", ms(apply), "ms")
		for _, alg := range roster {
			rep.set("engine.price_s."+alg, perAlg[alg].Seconds(), "s")
		}
	}
	return fit, fitCPU, mean(norms), nil
}

func rowCount(db *relational.Database) int {
	n := 0
	for _, t := range db.TableStats() {
		n += t.Live
	}
	return n
}
