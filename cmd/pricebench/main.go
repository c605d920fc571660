// Command pricebench regenerates the paper's experimental artifacts: every
// figure (4, 5a, 5b, 6a, 6b, 7, 8) and table (3, 4, 5, 6) of Chawla et al.,
// "Revenue Maximization for Query Pricing" (PVLDB 13(1), 2019).
//
// Usage:
//
//	pricebench -experiment fig5a             # one artifact
//	pricebench -experiment all -scale 2      # everything, larger instances
//	pricebench -list                         # show the experiment index
//
// Absolute numbers differ from the paper (different hardware, synthetic
// data, micro scales); the series shapes — which algorithm wins where, how
// revenue and runtime move with the support size — are the reproduction
// target. Hypergraph construction (the paper's own
// bottleneck, Table 3) runs on the sharded incremental conflict-set
// engine of internal/support and internal/plan: compiled query plans
// probed with each neighbor's deltas over shard × query tiles on a worker
// pool (-shards); see README "Performance", docs/ARCHITECTURE.md and
// BENCH_3.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"querypricing/internal/engine"
	"querypricing/internal/experiments"
	"querypricing/internal/valuation"
)

var experimentIndex = []struct{ id, what string }{
	{"fig4", "hyperedge size distributions, all four workloads"},
	{"fig5a", "sampled valuations (uniform, zipf): skewed + uniform workloads"},
	{"fig5b", "scaled valuations (exp, normal): skewed + uniform workloads"},
	{"fig6a", "sampled valuations: SSB + TPC-H workloads"},
	{"fig6b", "scaled valuations: SSB + TPC-H workloads"},
	{"fig7", "additive item-price model, all workloads"},
	{"fig8", "revenue vs support size: skewed + SSB"},
	{"tab3", "hypergraph characteristics"},
	{"tab4", "algorithm runtimes per workload"},
	{"tab5", "runtimes vs support size (skewed)"},
	{"tab6", "runtimes vs support size (SSB)"},
	{"lemmas", "worst-case gap constructions (Lemmas 2-4)"},
	{"online", "online posted-price learning (Section 7.2 future work)"},
	{"support-selection", "query-aware support selection vs random (Section 7.2)"},
	{"ablation-cip", "CIP epsilon sensitivity (Section 6.4)"},
	{"ablation-refine", "UBP -> item pricing LP refinement (Section 6.3)"},
	{"live-updates", "base-database update latency and plan survival (docs/UPDATES.md)"},
	{"restart", "calibrate vs snapshot-restore boot cost and quote identity (docs/OPERATIONS.md)"},
	{"load", "sustained-load SLO harness: open-loop mixed traffic vs marketd (docs/LOAD.md)"},
	{"ingest", "streaming-ingest load: insert-bearing update mix vs marketd (docs/LOAD.md)"},
	{"compact", "delete-heavy churn: quote SLOs through compaction epochs, slot growth with/without (docs/OPERATIONS.md)"},
}

func main() {
	os.Exit(realMain())
}

// realMain is main with an exit code, so profile teardown (deferred below)
// runs before the process exits.
func realMain() int {
	var (
		experiment = flag.String("experiment", "", "artifact id (see -list) or 'all'")
		list       = flag.Bool("list", false, "print the experiment index and exit")
		scale      = flag.Float64("scale", 1, "dataset scale multiplier")
		supportN   = flag.Int("support", 0, "support size |S| (0 = workload default)")
		shards     = flag.Int("shards", 0, "support-set shards (<= 0 = one shard)")
		seed       = flag.Int64("seed", 1, "random seed")
		lpipCap    = flag.Int("lpip-candidates", 16, "LPIP threshold cap (0 = all)")
		skipCIP    = flag.Bool("skip-cip", false, "skip CIP and XOS (much faster)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		algos      = flag.String("algorithms", "",
			"comma-separated pricing algorithms for the figure/table revenue sweeps "+
				"(default all: "+strings.Join(engine.List(), ",")+"); special-case "+
				"experiments (lemmas, ablations, support-selection) keep their fixed rosters")

		loadRate    = flag.Float64("rate", 300, "load experiments: offered request rate (req/s)")
		loadDur     = flag.Duration("duration", 4*time.Second, "load experiments: run duration")
		loadMix     = flag.String("mix", "", "load experiments: traffic mix, e.g. quote=0.85,batch=0.05,update=0.05,purchase=0.05 (empty = the experiment's default mix)")
		loadAddr    = flag.String("load-addr", "", "load/ingest experiments: target a running marketd at this address instead of booting in-process (its -seed must match)")
		loadWorkers = flag.Int("load-workers", 0, "load experiments: open-loop lanes (0 = scaled to rate)")
		loadSLO     = flag.Bool("slo", false, "load/ingest/compact experiments: print Benchmark-format slo_<experiment> lines for scripts/bench.sh")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pricebench: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pricebench: -cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pricebench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "pricebench: -memprofile: %v\n", err)
			}
		}()
	}

	var roster []string
	if *algos != "" {
		for _, name := range strings.Split(*algos, ",") {
			name = strings.TrimSpace(name)
			if _, err := engine.Get(name); err != nil {
				fmt.Fprintf(os.Stderr, "pricebench: %v\n", err)
				return 2
			}
			roster = append(roster, name)
		}
	}

	if *list || *experiment == "" {
		fmt.Println("pricebench experiments:")
		for _, e := range experimentIndex {
			fmt.Printf("  %-8s %s\n", e.id, e.what)
		}
		if *experiment == "" && !*list {
			return 2
		}
		return 0
	}

	r := &runner{
		scale:       *scale,
		supportN:    *supportN,
		shards:      *shards,
		seed:        *seed,
		lpipCap:     *lpipCap,
		skipCIP:     *skipCIP,
		roster:      roster,
		cache:       map[experiments.Workload]*experiments.Scenario{},
		loadRate:    *loadRate,
		loadDur:     *loadDur,
		loadMix:     *loadMix,
		loadAddr:    *loadAddr,
		loadWorkers: *loadWorkers,
		loadSLO:     *loadSLO,
	}
	ids := []string{*experiment}
	if *experiment == "all" {
		ids = nil
		for _, e := range experimentIndex {
			ids = append(ids, e.id)
		}
	}
	for _, id := range ids {
		if err := r.run(id); err != nil {
			fmt.Fprintf(os.Stderr, "pricebench: %s: %v\n", id, err)
			return 1
		}
	}
	return 0
}

type runner struct {
	scale    float64
	supportN int
	shards   int
	seed     int64
	lpipCap  int
	skipCIP  bool
	roster   []string // engine algorithm names (nil = full registry)
	cache    map[experiments.Workload]*experiments.Scenario

	// Load-experiment knobs (see load.go and docs/LOAD.md).
	loadRate    float64
	loadDur     time.Duration
	loadMix     string
	loadAddr    string
	loadWorkers int
	loadSLO     bool
}

func (r *runner) scenario(w experiments.Workload) (*experiments.Scenario, error) {
	if sc, ok := r.cache[w]; ok {
		return sc, nil
	}
	start := time.Now()
	fmt.Printf("-- building %s scenario (scale %.2g)...\n", w, r.scale)
	sc, err := experiments.Build(experiments.Config{
		Workload:    w,
		Scale:       r.scale,
		SupportSize: r.supportN,
		Shards:      r.shards,
		Seed:        r.seed,
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("-- %s ready in %v: %s (construction: %d evals, %d pruned-by-columns, %d pruned-by-predicates)\n",
		w, time.Since(start).Round(time.Millisecond), sc.H,
		sc.Stats.QueryEvals, sc.Stats.PrunedByCols, sc.Stats.PrunedByPred)
	r.cache[w] = sc
	return sc, nil
}

func (r *runner) tuning(w experiments.Workload) experiments.Tuning {
	t := experiments.DefaultTuning(w)
	t.LPIPCandidates = r.lpipCap
	t.SkipCIP = t.SkipCIP || r.skipCIP
	t.Roster = r.roster
	return t
}

func (r *runner) run(id string) error {
	switch id {
	case "fig4":
		for _, w := range experiments.AllWorkloads {
			sc, err := r.scenario(w)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatHistogram("Figure 4: "+string(w)+" hyperedge sizes", sc.H, 12))
		}
	case "fig5a":
		return r.revenueSweep("Figure 5a", []experiments.Workload{experiments.Skewed, experiments.Uniform}, experiments.SampledModels())
	case "fig5b":
		return r.revenueSweep("Figure 5b", []experiments.Workload{experiments.Skewed, experiments.Uniform}, experiments.ScaledModels())
	case "fig6a":
		return r.revenueSweep("Figure 6a", []experiments.Workload{experiments.SSB, experiments.TPCH}, experiments.SampledModels())
	case "fig6b":
		return r.revenueSweep("Figure 6b", []experiments.Workload{experiments.SSB, experiments.TPCH}, experiments.ScaledModels())
	case "fig7":
		return r.revenueSweep("Figure 7", experiments.AllWorkloads, experiments.AdditiveModels())
	case "fig8":
		for _, w := range []experiments.Workload{experiments.Skewed, experiments.SSB} {
			sc, err := r.scenario(w)
			if err != nil {
				return err
			}
			sizes := supportGrid(sc.H.NumItems())
			sweep, err := experiments.SupportSweep(sc, sizes, valuation.Uniform{K: 100}, r.seed, r.tuning(w))
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatSupportSweep(fmt.Sprintf("Figure 8: %s, uniform[1,100]", w), sweep))
		}
	case "tab3":
		var scs []*experiments.Scenario
		for _, w := range experiments.AllWorkloads {
			sc, err := r.scenario(w)
			if err != nil {
				return err
			}
			scs = append(scs, sc)
		}
		fmt.Println(experiments.FormatStatsTable(scs))
	case "tab4":
		for _, w := range experiments.AllWorkloads {
			sc, err := r.scenario(w)
			if err != nil {
				return err
			}
			tune := r.tuning(w)
			tune.WithBound = false
			pts, err := experiments.Sweep(sc.H, []valuation.Model{valuation.Uniform{K: 100}}, r.seed, tune)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatRuntimeTable(
				fmt.Sprintf("Table 4: %s (hypergraph construction: %v)", w, sc.BuildTime.Round(time.Millisecond)), pts))
		}
	case "tab5":
		return r.supportRuntimeSweep("Table 5", experiments.Skewed)
	case "tab6":
		return r.supportRuntimeSweep("Table 6", experiments.SSB)
	case "lemmas":
		runLemmas()
	case "online":
		return r.runOnline()
	case "support-selection":
		return r.runSupportSelection()
	case "ablation-cip":
		return r.runCIPAblation()
	case "ablation-refine":
		return r.runRefineAblation()
	case "live-updates":
		return r.runLiveUpdates()
	case "restart":
		return r.runRestart()
	default:
		if _, ok := loadProfiles[id]; ok {
			return r.runLoad(id)
		}
		return fmt.Errorf("unknown experiment %q (try -list)", id)
	}
	return nil
}

func (r *runner) revenueSweep(title string, ws []experiments.Workload, models []valuation.Model) error {
	for _, w := range ws {
		sc, err := r.scenario(w)
		if err != nil {
			return err
		}
		pts, err := experiments.Sweep(sc.H, models, r.seed, r.tuning(w))
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatRevenueTable(
			fmt.Sprintf("%s: %s workload, %d queries", title, w, len(sc.Queries)), pts))
	}
	return nil
}

func (r *runner) supportRuntimeSweep(title string, w experiments.Workload) error {
	sc, err := r.scenario(w)
	if err != nil {
		return err
	}
	sizes := supportGrid(sc.H.NumItems())
	sweep, err := experiments.SupportSweep(sc, sizes, valuation.Uniform{K: 100}, r.seed, r.tuning(w))
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatSupportSweep(
		fmt.Sprintf("%s: %s runtimes and revenue vs |S|", title, w), sweep))
	return nil
}

// supportGrid picks a sweep of support sizes up to the generated maximum,
// mirroring the paper's {100, 500, 1000, 5000, 15000} shape.
func supportGrid(max int) []int {
	frac := []float64{0.01, 0.05, 0.1, 0.33, 0.66, 1.0}
	var out []int
	prev := 0
	for _, f := range frac {
		n := int(f * float64(max))
		if n < 10 {
			n = 10
		}
		if n > max {
			n = max
		}
		if n != prev {
			out = append(out, n)
			prev = n
		}
	}
	return out
}

func runLemmas() {
	fmt.Println("== Lemmas 2-4: measured gaps of succinct pricings vs OPT ==")
	fmt.Println(strings.Repeat("-", 64))
	fmt.Println(lemmasReport())
}
