package querypricing

// Benchmark harness: one benchmark (or sub-benchmark group) per table and
// figure of the paper (see docs/ARCHITECTURE.md's package map). Scales are laptop-small so
// `go test -bench=.` completes in minutes; cmd/pricebench regenerates the
// full series with configurable scale; BENCH_<n>.json records the tracked
// perf trajectory per PR (scripts/bench.sh).

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"querypricing/internal/bounds"
	"querypricing/internal/experiments"
	"querypricing/internal/lowerbounds"
	"querypricing/internal/lp"
	"querypricing/internal/pricing"
	"querypricing/internal/support"
	"querypricing/internal/valuation"
)

// scenarioCache builds each workload scenario once per bench run.
var (
	scenarioMu    sync.Mutex
	scenarioCache = map[experiments.Workload]*experiments.Scenario{}
)

func benchScenario(b *testing.B, w experiments.Workload) *experiments.Scenario {
	b.Helper()
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	if sc, ok := scenarioCache[w]; ok {
		return sc
	}
	cfg := experiments.Config{Workload: w, Scale: 0.25, SupportSize: 150, Seed: 1}
	if w == experiments.Uniform {
		cfg.UniformQueries = 200
	}
	sc, err := experiments.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	scenarioCache[w] = sc
	return sc
}

func benchTuning() experiments.Tuning {
	return experiments.Tuning{LPIPCandidates: 6, CIPEpsilon: 1, CIPMaxCaps: 4, WithBound: false}
}

// ---- Figure 4 / Table 3: hypergraph construction ----

// BenchmarkFig4Construction measures hypergraph construction per workload
// across four engine configurations: "serial" is the pre-incremental
// baseline (one worker, full re-evaluation of every pair surviving the
// pruning rules), "parallel" adds only the worker pool, "incremental" is
// the full single-shard engine (worker pool + delta probing over the
// compiled plan cache), and "sharded" partitions the support set across
// GOMAXPROCS shards so the builder schedules shard × query tiles. Every
// iteration samples a fresh support set so the plan caches start cold and
// compile time is charged to the run.
func BenchmarkFig4Construction(b *testing.B) {
	variants := []struct {
		name   string
		shards int
		opts   support.BuildOptions
	}{
		{"serial", 0, support.BuildOptions{Workers: 1, DisableIncremental: true}},
		{"parallel", 0, support.BuildOptions{DisableIncremental: true}},
		{"incremental", 0, support.BuildOptions{}},
		{"sharded", runtime.GOMAXPROCS(0), support.BuildOptions{}},
	}
	for _, w := range experiments.AllWorkloads {
		sc := benchScenario(b, w) // datasets and queries prebuilt
		for _, v := range variants {
			b.Run(string(w)+"/"+v.name, func(b *testing.B) {
				b.ReportAllocs()
				runtime.GC() // don't charge this variant the previous one's heap
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					set, err := support.Generate(sc.DB, support.GenOptions{Size: 100, Seed: int64(i), Shards: v.shards})
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := support.BuildHypergraph(set, sc.Queries, v.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPruningAblation compares pruned vs naive conflict-set
// construction (the pruning ablation).
func BenchmarkPruningAblation(b *testing.B) {
	sc := benchScenario(b, experiments.Skewed)
	set, err := support.Generate(sc.DB, support.GenOptions{Size: 100, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	qs := sc.Queries[:200]
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"pruned", false}, {"naive", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := support.BuildHypergraph(set, qs, support.BuildOptions{DisablePruning: mode.disable}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figures 5a/5b/6a/6b/7: revenue sweeps ----

func benchSweep(b *testing.B, w experiments.Workload, models []valuation.Model) {
	sc := benchScenario(b, w)
	tune := benchTuning()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Sweep(sc.H, models, int64(i), tune); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5aSampledValuations(b *testing.B) {
	models := []valuation.Model{valuation.Uniform{K: 100}, valuation.Zipf{A: 2}}
	for _, w := range []experiments.Workload{experiments.Skewed, experiments.Uniform} {
		b.Run(string(w), func(b *testing.B) { benchSweep(b, w, models) })
	}
}

func BenchmarkFig5bScaledValuations(b *testing.B) {
	models := []valuation.Model{valuation.ExponentialScaled{K: 1}, valuation.NormalScaled{K: 1}}
	for _, w := range []experiments.Workload{experiments.Skewed, experiments.Uniform} {
		b.Run(string(w), func(b *testing.B) { benchSweep(b, w, models) })
	}
}

func BenchmarkFig6aSampledValuations(b *testing.B) {
	models := []valuation.Model{valuation.Uniform{K: 100}, valuation.Zipf{A: 2}}
	for _, w := range []experiments.Workload{experiments.SSB, experiments.TPCH} {
		b.Run(string(w), func(b *testing.B) { benchSweep(b, w, models) })
	}
}

func BenchmarkFig6bScaledValuations(b *testing.B) {
	models := []valuation.Model{valuation.ExponentialScaled{K: 1}, valuation.NormalScaled{K: 1}}
	for _, w := range []experiments.Workload{experiments.SSB, experiments.TPCH} {
		b.Run(string(w), func(b *testing.B) { benchSweep(b, w, models) })
	}
}

func BenchmarkFig7AdditiveValuations(b *testing.B) {
	models := []valuation.Model{
		valuation.Additive{K: 100, Dist: valuation.IndexUniform},
		valuation.Additive{K: 100, Dist: valuation.IndexBinomial},
	}
	for _, w := range experiments.AllWorkloads {
		b.Run(string(w), func(b *testing.B) { benchSweep(b, w, models) })
	}
}

// ---- Figure 8 / Tables 5-6: support-size sweeps ----

func BenchmarkFig8SupportSweep(b *testing.B) {
	for _, w := range []experiments.Workload{experiments.Skewed, experiments.SSB} {
		sc := benchScenario(b, w)
		b.Run(string(w), func(b *testing.B) {
			tune := benchTuning()
			tune.SkipCIP = true
			for i := 0; i < b.N; i++ {
				if _, err := experiments.SupportSweep(sc, []int{30, 75, 150}, valuation.Uniform{K: 100}, 3, tune); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Table 4: per-algorithm runtimes ----

func BenchmarkTab4Algorithms(b *testing.B) {
	for _, w := range experiments.AllWorkloads {
		sc := benchScenario(b, w)
		valuation.Apply(sc.H, valuation.Uniform{K: 100}, 5)
		b.Run(string(w)+"/UBP", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pricing.UniformBundle(sc.H)
			}
		})
		b.Run(string(w)+"/UIP", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pricing.UniformItem(sc.H)
			}
		})
		b.Run(string(w)+"/Layering", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pricing.Layering(sc.H)
			}
		})
		b.Run(string(w)+"/LPIP", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pricing.LPItem(sc.H, pricing.LPItemOptions{MaxCandidates: 6}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(string(w)+"/CIP", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pricing.Capacity(sc.H, pricing.CapacityOptions{Epsilon: 1, MaxCapacities: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Subadditive bound (Section 6.1) ----

func BenchmarkSubadditiveBound(b *testing.B) {
	sc := benchScenario(b, experiments.Skewed)
	valuation.Apply(sc.H, valuation.Uniform{K: 100}, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bounds.Subadditive(sc.H, bounds.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Lemmas 2-4 gap constructions ----

func BenchmarkLowerBoundConstructions(b *testing.B) {
	b.Run("lemma2-harmonic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inst := lowerbounds.HarmonicAdditive(1000)
			pricing.UniformBundle(inst.H)
		}
	})
	b.Run("lemma3-partition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inst := lowerbounds.PartitionUniform(128)
			pricing.UniformItem(inst.H)
		}
	})
	b.Run("lemma4-laminar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inst := lowerbounds.LaminarSubmodular(5)
			pricing.UniformBundle(inst.H)
			pricing.UniformItem(inst.H)
		}
	})
}

// ---- LP solver micro-benchmarks ----

// BenchmarkSimplex solves synthetic LPs of growing size and, in
// "lpip-skewed-S2000", a real LPIP forced-sale LP: the largest prefix (every
// edge forced) of the world-skewed workload at |S| = 2000 under Uniform[1,100]
// valuations, the LP that dominates a broker's calibration.
func BenchmarkSimplex(b *testing.B) {
	b.Run("lpip-skewed-S2000", func(b *testing.B) {
		p := forcedSaleBenchLP(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sol, err := p.Solve()
			if err != nil {
				b.Fatal(err)
			}
			if sol.Status != lp.Optimal {
				b.Fatalf("status %v", sol.Status)
			}
		}
	})
	for _, size := range []struct{ n, m int }{{50, 20}, {200, 80}, {500, 150}} {
		b.Run(fmt.Sprintf("n%d_m%d", size.n, size.m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := lp.NewProblem(lp.Maximize)
				for j := 0; j < size.n; j++ {
					p.AddVariable(1+float64(j%7), 0, 10)
				}
				for r := 0; r < size.m; r++ {
					var idx []int
					var coef []float64
					for j := r % 3; j < size.n; j += 5 {
						idx = append(idx, j)
						coef = append(coef, 1+float64((r+j)%3))
					}
					p.MustAddConstraint(idx, coef, lp.LE, float64(10+r%20))
				}
				sol, err := p.Solve()
				if err != nil {
					b.Fatal(err)
				}
				if sol.Status != lp.Optimal {
					b.Fatalf("status %v", sol.Status)
				}
			}
		})
	}
}

// forcedSaleBenchLP builds LPIP's LP for its largest threshold on the
// world-skewed workload at |S| = 2000, with the edges in LPIP's
// descending-valuation order.
func forcedSaleBenchLP(b *testing.B) *lp.Problem {
	b.Helper()
	sc, err := experiments.Build(experiments.Config{Workload: experiments.Skewed, SupportSize: 2000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	h := sc.H
	valuation.Apply(h, valuation.Uniform{K: 100}, 2)
	order, _ := pricing.LPItemThresholds(h, 1)
	p, _, err := pricing.ForcedSaleLP(h, order)
	if err != nil || p == nil {
		b.Fatalf("forced-sale LP: %v", err)
	}
	return p
}

// ---- Conflict-set single-query path (broker quote latency) ----

// BenchmarkConflictSet measures the online quote path. "cold" pays plan
// compilation (base evaluation) on every iteration by discarding the plan
// cache; "warm" reuses the set's cache, the steady state of a broker
// serving repeat quote traffic. "warm10k" and "sharded" grow the support
// set to |S| = 10000 — toward the paper's 100k scale — quoting a
// selective query (W14, a predicated single-table projection, the typical
// online shape) against one shard and against GOMAXPROCS shards: the
// per-shard inverted footprint indexes cut the scan to the candidate
// neighbors and the sharded variant fans those probes out concurrently.
func BenchmarkConflictSet(b *testing.B) {
	sc := benchScenario(b, experiments.Skewed)
	q := sc.Queries[9] // W10: SELECT * FROM Country
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		runtime.GC()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fresh := &support.Set{DB: sc.Set.DB, Neighbors: sc.Set.Neighbors}
			if _, err := support.ConflictSet(fresh, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		if _, err := support.ConflictSet(sc.Set, q); err != nil {
			b.Fatal(err) // prime the plan cache
		}
		runtime.GC()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := support.ConflictSet(sc.Set, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	qsel := sc.Queries[13] // W14: SELECT Name FROM Country WHERE Region = 'Caribbean'
	for _, v := range []struct {
		name   string
		shards int
	}{{"warm10k", 1}, {"sharded", runtime.GOMAXPROCS(0)}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			set, err := support.Generate(sc.DB, support.GenOptions{Size: 10000, Seed: 3, Shards: v.shards})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := support.ConflictSet(set, qsel); err != nil {
				b.Fatal(err) // prime the plan cache and shard indexes
			}
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := support.ConflictSet(set, qsel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Live updates: update latency and post-update requote ----

// BenchmarkUpdateRequote tracks the live-update path (docs/UPDATES.md).
// "update1" and "update16" measure Broker.Update end to end — Apply,
// IndexPool.Advance, and the rebase of every cached plan (the broker is
// calibrated from the full skewed workload first, so ~1000 plans are live)
// — for 1- and 16-cell batches. "requote" measures a warm single-query
// quote against a broker that just absorbed an update: delta-maintained
// plans must keep the warm path warm, so this should track the plain warm
// ConflictSet numbers. Every quote pays real conflict-set computation.
func BenchmarkUpdateRequote(b *testing.B) {
	sc := benchScenario(b, experiments.Skewed)
	newBroker := func() *Broker {
		set, err := GenerateSupport(sc.DB, SupportOptions{Size: 100, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		broker, err := NewBrokerWithSupport(sc.DB, set, BrokerConfig{Seed: 2, LPIPCandidates: 6})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := broker.Calibrate(sc.Queries, UniformValuation{K: 100}, AlgoUIP); err != nil {
			b.Fatal(err) // compiles (and caches) every workload plan
		}
		return broker
	}
	// Two values from Country.Population's domain to alternate between.
	domain := sc.DB.ActiveDomain("Country", "Population")
	if len(domain) < 2 {
		b.Fatal("degenerate Population domain")
	}
	change := func(i int) []CellChange {
		return []CellChange{{Table: "Country", Row: 5, Col: 6, New: domain[i%2]}}
	}
	batch16 := func(i int) []CellChange {
		var out []CellChange
		for r := 0; r < 16; r++ {
			out = append(out, CellChange{Table: "Country", Row: r, Col: 6, New: domain[(i+r)%2]})
		}
		return out
	}

	b.Run("update1", func(b *testing.B) {
		broker := newBroker()
		b.ReportAllocs()
		runtime.GC()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := broker.Update(change(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("update16", func(b *testing.B) {
		broker := newBroker()
		b.ReportAllocs()
		runtime.GC()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := broker.Update(batch16(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("requote", func(b *testing.B) {
		broker := newBroker()
		q := sc.Queries[13] // W14: selective single-table projection
		if _, _, err := broker.Update(change(0)); err != nil {
			b.Fatal(err)
		}
		if _, err := broker.Quote(q); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		runtime.GC()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := broker.Quote(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Batch quoting: serial loop vs the broker's worker pool ----

// BenchmarkQuoteBatch is the perf baseline for the concurrent quote
// pipeline: the same query batch priced by a serial Quote loop and by
// QuoteBatch over the bounded worker pool. Conflict-set caching is disabled
// so every quote pays full conflict-set computation — the work the pool is
// meant to parallelize.
func BenchmarkQuoteBatch(b *testing.B) {
	sc := benchScenario(b, experiments.Skewed)
	broker, err := NewBroker(sc.DB, BrokerConfig{SupportSize: 100, Seed: 2, LPIPCandidates: 6})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := broker.Calibrate(sc.Queries[:25], UniformValuation{K: 100}, AlgoUIP); err != nil {
		b.Fatal(err)
	}
	batch := sc.Queries[:32]

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range batch {
				if _, err := broker.Quote(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := broker.QuoteBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}
