package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"querypricing/internal/engine"
	"querypricing/internal/experiments"
	"querypricing/internal/hypergraph"
	"querypricing/internal/market"
	"querypricing/internal/online"
	"querypricing/internal/pricing"
	"querypricing/internal/relational"
	"querypricing/internal/store"
	"querypricing/internal/support"
	"querypricing/internal/valuation"
)

// runOnline reproduces the "Learning buyer valuations" future-work
// experiment: buyers with fixed hidden valuations arrive online and three
// learners adapt posted prices from purchase feedback only.
func (r *runner) runOnline() error {
	sc, err := r.scenario(experiments.Skewed)
	if err != nil {
		return err
	}
	rounds := 20000
	fmt.Println("== Online posted-price learning (Section 7.2 future work) ==")
	fmt.Printf("skewed workload, %d rounds\n", rounds)
	for _, model := range []valuation.Model{
		valuation.Uniform{K: 100},
		valuation.Additive{K: 100, Dist: valuation.IndexUniform},
	} {
		valuation.Apply(sc.H, model, r.seed)
		grid := online.PriceGrid(1, 120, 16)
		fmt.Printf("\n-- valuations: %s --\n", model.Name())
		fmt.Printf("%-16s %12s %8s %10s %30s\n", "learner", "revenue", "sales", "vs-fixed", "revenue by quarter")
		learners := []online.Pricer{
			online.NewUCBBundle(grid),
			online.NewEXP3Bundle(grid, 0.1, r.seed),
			online.NewMultiplicativeItem(sc.H.NumItems(), 1, 0.1),
		}
		for _, l := range learners {
			res := online.Simulate(sc.H, l, rounds, r.seed)
			fmt.Printf("%-16s %12.1f %8d %10.3f %30v\n",
				res.Learner, res.Revenue, res.Sales, res.Ratio(), quarters(res))
		}
	}
	fmt.Println("\nvs-fixed = revenue / best fixed flat price in hindsight.")
	fmt.Println("Flat-price bandits are robust under size-independent valuations; the")
	fmt.Println("MWU item learner dominates (and can exceed 1.0) when value is")
	fmt.Println("additive over items — the online echo of Lemma 2's separation.")
	return nil
}

func quarters(r online.SimResult) [4]int {
	var out [4]int
	for i, v := range r.CumulativeByQuarter {
		out[i] = int(v)
	}
	return out
}

// runSupportSelection reproduces the "Choosing support set" future-work
// experiment: query-aware (targeted) support vs random sampling.
func (r *runner) runSupportSelection() error {
	sc, err := r.scenario(experiments.Skewed)
	if err != nil {
		return err
	}
	// The selective per-country slice is where random sampling struggles.
	sel := sc.Queries[35:335]
	size := 300

	start := time.Now()
	randomSet, err := support.Generate(sc.DB, support.GenOptions{Size: size, Seed: r.seed})
	if err != nil {
		return err
	}
	hr, _, err := support.BuildHypergraph(randomSet, sel, support.BuildOptions{})
	if err != nil {
		return err
	}
	randomTime := time.Since(start)

	start = time.Now()
	targetSet, err := support.TargetedGenerate(sc.DB, sel, support.GenOptions{Size: size, Seed: r.seed})
	if err != nil {
		return err
	}
	ht, _, err := support.BuildHypergraph(targetSet, sel, support.BuildOptions{})
	if err != nil {
		return err
	}
	targetTime := time.Since(start)

	valuation.Apply(hr, valuation.Uniform{K: 100}, r.seed+1)
	valuation.Apply(ht, valuation.Uniform{K: 100}, r.seed+1)

	fmt.Println("== Support-set selection (Section 7.2 future work) ==")
	fmt.Printf("%d selective queries, |S| = %d\n", len(sel), size)
	fmt.Printf("%-12s %12s %12s %12s %12s %12s %12s\n",
		"support", "build", "empty edges", "unique-item", "UIP", "LPIP", "Layering")
	opts := engine.Options{LPIPMaxCandidates: r.lpipCap}
	report := func(name string, d time.Duration, h *hypergraph.Hypergraph) error {
		st := h.ComputeStats()
		sum := h.TotalValuation()
		revs := make([]float64, 0, 3)
		for _, algo := range []string{"UIP", "LPIP", "Layering"} {
			res, err := engine.Price(algo, h, opts)
			if err != nil {
				return err
			}
			revs = append(revs, res.Revenue/sum)
		}
		fmt.Printf("%-12s %12s %12d %12d %12.3f %12.3f %12.3f\n",
			name, d.Round(time.Millisecond), st.EmptyEdges, st.UniqueItem,
			revs[0], revs[1], revs[2])
		return nil
	}
	if err := report("random", randomTime, hr); err != nil {
		return err
	}
	if err := report("targeted", targetTime, ht); err != nil {
		return err
	}
	fmt.Println("\nTargeted supports trade construction time for fewer empty conflict")
	fmt.Println("sets and more unique items — exactly the lever the paper proposes.")
	return nil
}

// runCIPAblation sweeps CIP's epsilon (the paper tunes it per workload to
// trade the (1+eps) approximation factor against runtime, Section 6.4).
func (r *runner) runCIPAblation() error {
	sc, err := r.scenario(experiments.Skewed)
	if err != nil {
		return err
	}
	valuation.Apply(sc.H, valuation.Uniform{K: 100}, r.seed)
	sum := sc.H.TotalValuation()
	fmt.Println("== CIP epsilon ablation (Section 6.4) ==")
	fmt.Printf("%8s %10s %12s %10s\n", "eps", "LPs", "revenue", "runtime")
	for _, eps := range []float64{0.2, 0.5, 1, 2, 4} {
		res, err := engine.Price("CIP", sc.H, engine.Options{CIPEpsilon: eps})
		if err != nil {
			return err
		}
		fmt.Printf("%8.1f %10d %12.3f %10s\n",
			eps, res.LPSolves, res.Revenue/sum, res.Runtime.Round(time.Millisecond))
	}
	fmt.Println("\nSmaller eps = denser capacity grid = more LPs: better revenue at")
	fmt.Println("higher cost, the trade-off the paper works around by raising eps.")
	return nil
}

// runRefineAblation measures the UBP -> item pricing LP refinement of
// Section 6.3 (the paper reports 0.78 -> 0.99 on TPC-H).
func (r *runner) runRefineAblation() error {
	fmt.Println("== UBP LP-refinement ablation (Section 6.3) ==")
	fmt.Printf("%-10s %12s %12s %12s\n", "workload", "UBP", "UBP+LP", "uplift")
	for _, w := range experiments.AllWorkloads {
		sc, err := r.scenario(w)
		if err != nil {
			return err
		}
		valuation.Apply(sc.H, valuation.Additive{K: 1, Dist: valuation.IndexUniform}, r.seed)
		sum := sc.H.TotalValuation()
		ubp, err := engine.Price("UBP", sc.H, engine.Options{})
		if err != nil {
			return err
		}
		ref, err := pricing.RefineUniformBundle(sc.H, ubp.BundlePrice)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %12.3f %12.3f %12.2fx\n",
			w, ubp.Revenue/sum, ref.Revenue/sum, safeDiv(ref.Revenue, ubp.Revenue))
	}
	return nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runLiveUpdates demonstrates the live-update path end to end: a broker
// serving the skewed workload absorbs batches of random cell updates
// (Broker.Update), reporting per-batch update latency, how much compiled
// plan state survived (delta-maintained vs invalidated), and the warm
// requote latency afterwards. It closes by verifying that the updated
// broker's quotes are byte-identical to a broker restored from its
// snapshot — a fresh support set over the final database with the same
// neighbors and the same calibrated prices.
func (r *runner) runLiveUpdates() error {
	sc, err := r.scenario(experiments.Skewed)
	if err != nil {
		return err
	}
	broker, err := market.NewBrokerWithSupport(sc.DB, sc.Set, market.Config{
		Seed: r.seed, LPIPCandidates: r.lpipCap, Shards: r.shards,
	})
	if err != nil {
		return err
	}
	if _, err := broker.Calibrate(sc.Queries, valuation.Uniform{K: 100}, market.LPIP); err != nil {
		return err
	}
	probe := sc.Queries[:40]
	if _, err := broker.QuoteBatch(probe); err != nil {
		return err // warm the plan caches before measuring
	}

	rng := rand.New(rand.NewSource(r.seed + 99))
	// randomBatch draws n distinct cells: Apply refuses a batch that writes
	// one cell twice.
	randomBatch := func(db *relational.Database, n int) []relational.CellChange {
		type cell struct {
			table    string
			row, col int
		}
		names := db.TableNames()
		out := make([]relational.CellChange, 0, n)
		seen := make(map[cell]bool, n)
		for len(out) < n {
			tn := names[rng.Intn(len(names))]
			t := db.Table(tn)
			row, col := rng.Intn(t.NumRows()), rng.Intn(len(t.Schema.Cols))
			domain := db.ActiveDomain(tn, t.Schema.Cols[col].Name)
			if len(domain) < 2 || seen[cell{tn, row, col}] {
				continue
			}
			seen[cell{tn, row, col}] = true
			out = append(out, relational.CellChange{
				Table: tn, Row: row, Col: col, New: domain[rng.Intn(len(domain))],
			})
		}
		return out
	}

	fmt.Println("== Live base-database updates (docs/UPDATES.md) ==")
	fmt.Printf("%8s %8s %12s %10s %14s\n",
		"batch", "cells", "update", "deferred", "requote(40q)")
	var changes []relational.CellChange
	for batch, n := range []int{1, 4, 16, 64} {
		ch := randomBatch(broker.DB(), n)
		changes = append(changes, ch...)
		start := time.Now()
		version, stats, err := broker.Update(ch)
		if err != nil {
			return err
		}
		updateTime := time.Since(start)
		// The first post-update requote pays the lazy, coalesced rebase of
		// the plans it touches; everything else stays deferred.
		start = time.Now()
		if _, err := broker.QuoteBatch(probe); err != nil {
			return err
		}
		fmt.Printf("%8d %8d %12v %10d %14v   (version %d)\n",
			batch+1, n, updateTime.Round(time.Microsecond),
			stats.PlansDeferred,
			time.Since(start).Round(time.Microsecond), version)
	}
	// Fold everything that is still deferred (what a background drainer —
	// market.Config.BackgroundDrain — would do while the broker idles).
	start := time.Now()
	drain := broker.DrainPlans()
	fmt.Printf("%8s %8s %12v %10s   (%d rebased, %d recompiled)\n",
		"drain", "-", time.Since(start).Round(time.Microsecond), "-",
		drain.PlansRebased, drain.PlansInvalidated)

	// Equivalence: a broker restored from the updated broker's snapshot —
	// a fresh support set over the final database with the same neighbors,
	// priced by the same calibrated function — must quote identically, and
	// the advanced set's conflict sets must match a fresh set's member for
	// member (the accumulated change list advances sc.Set across all four
	// versions in one jump).
	fresh, err := market.Restore(broker.Snapshot(), market.Config{
		Seed: r.seed, LPIPCandidates: r.lpipCap, Shards: r.shards,
	})
	if err != nil {
		return err
	}
	freshSet := &support.Set{DB: broker.DB(), Neighbors: sc.Set.Neighbors, Shards: r.shards}
	advSet, _ := sc.Set.Advance(broker.DB(), changes)
	for _, q := range probe {
		a, err := broker.Quote(q)
		if err != nil {
			return err
		}
		b, err := fresh.Quote(q)
		if err != nil {
			return err
		}
		if a.Price != b.Price || a.ConflictSize != b.ConflictSize {
			return fmt.Errorf("update equivalence violated for %s: updated %+v, fresh %+v", q.Name, a, b)
		}
		got, err := support.ConflictSet(advSet, q)
		if err != nil {
			return err
		}
		want, err := support.ConflictSet(freshSet, q)
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("conflict-set membership diverged for %s: advanced %v, fresh %v", q.Name, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("conflict-set membership diverged for %s: advanced %v, fresh %v", q.Name, got, want)
			}
		}
	}
	fmt.Printf("\nequivalence: %d updated-broker quotes (prices and member-for-member conflict sets) identical to a fresh broker on version %d\n",
		len(probe), broker.Version())
	return nil
}

// runRestart measures the durability story's payoff (docs/OPERATIONS.md):
// what a cold boot costs with calibration versus restoring a snapshot, and
// that the restored broker quotes byte-identically. The snapshot round
// trips through a real data directory, not just memory.
func (r *runner) runRestart() error {
	sc, err := r.scenario(experiments.Skewed)
	if err != nil {
		return err
	}
	cfg := market.Config{Seed: r.seed, LPIPCandidates: r.lpipCap, Shards: r.shards}

	// Cold path: build + calibrate from scratch.
	coldStart := time.Now()
	broker, err := market.NewBrokerWithSupport(sc.DB, sc.Set, cfg)
	if err != nil {
		return err
	}
	if _, err := broker.Calibrate(sc.Queries, valuation.Uniform{K: 100}, market.LPIP); err != nil {
		return err
	}
	cold := time.Since(coldStart)

	// Persist through a real store directory and recover from it.
	dir, err := os.MkdirTemp("", "pricebench-restart-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	if _, err := st.Load(); err != nil {
		return err
	}
	writeStart := time.Now()
	if err := st.WriteSnapshot(broker.Snapshot()); err != nil {
		return err
	}
	writeTime := time.Since(writeStart)
	st.Close()

	restoreStart := time.Now()
	st2, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st2.Close()
	res, err := st2.Load()
	if err != nil {
		return err
	}
	if res.Snapshot == nil {
		return fmt.Errorf("restart: no snapshot recovered from %s", dir)
	}
	restored, err := market.Restore(*res.Snapshot, cfg)
	if err != nil {
		return err
	}
	restore := time.Since(restoreStart)

	probe := sc.Queries[:40]
	want, err := broker.QuoteBatch(probe)
	if err != nil {
		return err
	}
	got, err := restored.QuoteBatch(probe)
	if err != nil {
		return err
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("restart: quote %d diverged: calibrated %+v, restored %+v", i, want[i], got[i])
		}
	}

	stats := st2.Stats()
	fmt.Println("== Restart: calibrate vs restore (docs/OPERATIONS.md) ==")
	fmt.Printf("%-28s %12v\n", "cold boot (build+calibrate)", cold.Round(time.Millisecond))
	fmt.Printf("%-28s %12v\n", "snapshot write", writeTime.Round(time.Millisecond))
	fmt.Printf("%-28s %12v\n", "restore (load+rebuild)", restore.Round(time.Millisecond))
	if restore > 0 {
		fmt.Printf("%-28s %12.1fx\n", "restore speedup", float64(cold)/float64(restore))
	}
	fmt.Printf("%-28s %12d bytes (version %d)\n", "snapshot size", stats.SnapshotBytes, stats.SnapshotVersion)
	fmt.Printf("\nidentity: %d quotes byte-identical between the calibrated and restored brokers\n", len(probe))
	return nil
}
