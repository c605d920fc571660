package market

// Live-update behavior at the broker layer: Broker.Update must publish
// atomic snapshots whose quotes are byte-identical to a fresh broker built
// on the final database (with the same support neighbors), stale conflict
// caches must never leak across a version bump, receipts must pin the
// version they were sold at, and concurrent quoting must ride through
// updates without synchronization beyond the snapshot swap (-race).

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"querypricing/internal/datagen"
	"querypricing/internal/plan"
	"querypricing/internal/relational"
	"querypricing/internal/support"
	"querypricing/internal/valuation"
	"querypricing/internal/workloads"
)

// updateScenario builds a tiny dataset + query sample for one of the four
// workloads (the market-layer twin of the support package's equivalence
// scenario).
func updateScenario(t *testing.T, workload string) (*relational.Database, []*relational.SelectQuery) {
	t.Helper()
	var (
		db  *relational.Database
		all []*relational.SelectQuery
	)
	switch workload {
	case "skewed":
		db = datagen.World(datagen.WorldConfig{Countries: 50, Cities: 120, Seed: 31})
		all = workloads.Skewed(db)
	case "uniform":
		db = datagen.World(datagen.WorldConfig{Countries: 50, Cities: 120, Seed: 32})
		all = workloads.Uniform(db, 60)
	case "ssb":
		db = datagen.SSB(datagen.SSBConfig{Customers: 80, Suppliers: 40, Parts: 40, LineOrders: 180, Seed: 33})
		all = workloads.SSB(db)
	case "tpch":
		db = datagen.TPCH(datagen.TPCHConfig{Parts: 60, Suppliers: 12, Customers: 30, Orders: 180, Seed: 34})
		all = workloads.TPCH(db)
	default:
		t.Fatalf("unknown workload %q", workload)
	}
	var qs []*relational.SelectQuery
	if len(all) > 50 {
		qs = append(qs, all[:30]...)
		for i := 30; i < len(all); i += 17 {
			qs = append(qs, all[i])
		}
	} else {
		qs = all
	}
	return db, qs
}

// brokerRandomUpdate draws an update batch from the database's active
// domains: distinct cells, live rows only (Apply's batch rules).
func brokerRandomUpdate(rng *rand.Rand, db *relational.Database, n int) []relational.CellChange {
	names := db.TableNames()
	var out []relational.CellChange
	used := make(map[[3]interface{}]bool, n)
	for len(out) < n {
		tn := names[rng.Intn(len(names))]
		tab := db.Table(tn)
		row, col := rng.Intn(tab.NumRows()), rng.Intn(len(tab.Schema.Cols))
		if !tab.Alive(row) || used[[3]interface{}{tn, row, col}] {
			continue
		}
		domain := db.ActiveDomain(tn, tab.Schema.Cols[col].Name)
		if len(domain) == 0 {
			continue
		}
		used[[3]interface{}{tn, row, col}] = true
		out = append(out, relational.CellChange{
			Table: tn, Row: row, Col: col, New: domain[rng.Intn(len(domain))],
		})
	}
	return out
}

// TestUpdateQuotesMatchFreshBroker is the acceptance property of the
// live-update path: for every workload and shard count K ∈ {1, 2, NumCPU},
// a broker that absorbed a random update sequence via Broker.Update quotes
// byte-identically to a fresh broker built over the final database with
// the same support neighbors and the same calibration.
func TestUpdateQuotesMatchFreshBroker(t *testing.T) {
	for _, w := range []string{"skewed", "uniform", "ssb", "tpch"} {
		w := w
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			db, qs := updateScenario(t, w)
			rng := rand.New(rand.NewSource(int64(len(w))))
			set, err := support.Generate(db, support.GenOptions{Size: 60, Seed: 5, DeltasPerNeighbor: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				cfg := Config{Seed: 5, Shards: k, LPIPCandidates: 4}
				live, err := NewBrokerWithSupport(db,
					&support.Set{DB: db, Neighbors: set.Neighbors, Shards: k}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Warm plan caches pre-update, so the update path has
				// real state to maintain or invalidate.
				if _, err := live.QuoteBatch(qs); err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 2; round++ {
					changes := brokerRandomUpdate(rng, live.DB(), 1+rng.Intn(6))
					version, _, err := live.Update(changes)
					if err != nil {
						t.Fatal(err)
					}
					if version != live.Version() || version != uint64(round+1) {
						t.Fatalf("K=%d: version after update %d = %d", k, round+1, version)
					}
				}
				fresh, err := NewBrokerWithSupport(live.DB(),
					&support.Set{DB: live.DB(), Neighbors: set.Neighbors, Shards: k}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Same forecast, same valuations, same algorithm: the pricing
				// functions must coincide, so quotes must too.
				if _, err := live.Calibrate(qs, valuation.Uniform{K: 90}, UIP); err != nil {
					t.Fatal(err)
				}
				if _, err := fresh.Calibrate(qs, valuation.Uniform{K: 90}, UIP); err != nil {
					t.Fatal(err)
				}
				for _, q := range qs {
					a, err := live.Quote(q)
					if err != nil {
						t.Fatal(err)
					}
					b, err := fresh.Quote(q)
					if err != nil {
						t.Fatal(err)
					}
					// The fresh broker inherits the final database's version
					// (lineage follows the data), so the quotes — price,
					// conflict size, version stamp — are byte-identical.
					if a != b {
						t.Fatalf("%s/%s: updated broker quote %+v != fresh broker %+v", w, q.Name, a, b)
					}
					if a.Version != 2 {
						t.Fatalf("%s: quote version = %d, want 2", q.Name, a.Version)
					}
				}
			}
		})
	}
}

// TestStaleConflictCacheNeverServed is the regression test for conflict
// sets across versions: a quote after an update must reflect the new
// snapshot, never a conflict set remembered from the old one, even when
// the update provably changes the query's conflict set.
func TestStaleConflictCacheNeverServed(t *testing.T) {
	db, qs := updateScenario(t, "skewed")
	set, err := support.Generate(db, support.GenOptions{Size: 80, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBrokerWithSupport(db, set, Config{Seed: 11, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Find a query with a non-empty conflict set.
	var q *relational.SelectQuery
	var before Quote
	for _, cand := range qs {
		quote, err := b.Quote(cand)
		if err != nil {
			t.Fatal(err)
		}
		if quote.ConflictSize > 0 {
			q, before = cand, quote
			break
		}
	}
	if q == nil {
		t.Fatal("no informative query in scenario")
	}
	// Neutralize every neighbor in q's conflict set: set each conflicting
	// neighbor's cells to its own delta values, so the update provably
	// shrinks CS(q) to exclude them.
	items, err := support.ConflictSet(b.state.Load().set, q)
	if err != nil {
		t.Fatal(err)
	}
	var changes []relational.CellChange
	for _, ni := range items {
		changes = append(changes, set.Neighbors[ni].Deltas...)
	}
	if _, _, err := b.Update(changes); err != nil {
		t.Fatal(err)
	}
	after, err := b.Quote(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := support.ConflictSet(&support.Set{DB: b.DB(), Neighbors: set.Neighbors}, q)
	if err != nil {
		t.Fatal(err)
	}
	if after.ConflictSize != len(want) {
		t.Fatalf("post-update conflict size = %d, want %d (fresh computation)", after.ConflictSize, len(want))
	}
	if after.ConflictSize == before.ConflictSize {
		t.Fatalf("update was supposed to change CS(q): before %d, after %d", before.ConflictSize, after.ConflictSize)
	}
	if after.Version != 1 {
		t.Fatalf("post-update quote version = %d, want 1", after.Version)
	}
}

// TestReceiptsPinVersion pins the sold-conflict-set semantics: each
// receipt records the database version its price was computed against,
// and updates never rewrite the sales log.
func TestReceiptsPinVersion(t *testing.T) {
	db, qs := updateScenario(t, "skewed")
	b, err := NewBroker(db, Config{SupportSize: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Calibrate(qs, valuation.Uniform{K: 50}, UBP); err != nil {
		t.Fatal(err)
	}
	if _, r0, err := b.Purchase(qs[0], 1e12); err != nil {
		t.Fatal(err)
	} else if r0.Version != 0 {
		t.Fatalf("pre-update receipt version = %d, want 0", r0.Version)
	}
	rng := rand.New(rand.NewSource(8))
	if _, _, err := b.Update(brokerRandomUpdate(rng, b.DB(), 3)); err != nil {
		t.Fatal(err)
	}
	if _, r1, err := b.Purchase(qs[1], 1e12); err != nil {
		t.Fatal(err)
	} else if r1.Version != 1 {
		t.Fatalf("post-update receipt version = %d, want 1", r1.Version)
	}
	sales := b.Sales()
	if len(sales) != 2 || sales[0].Version != 0 || sales[1].Version != 1 {
		t.Fatalf("sales log versions = %+v, want pinned [0, 1]", sales)
	}
}

// TestConcurrentQuotesDuringUpdate hammers lock-free quoting — single
// quotes, batches, purchases — while the broker absorbs a stream of
// updates long enough to cross the plan cache's cap drain (one eager fold
// of every stale plan when the pending log passes plan.MaxPendingBatches).
// Run with -race: the snapshot swap is the only coordination between
// quoting and updating, the cap drain shares the plan cache with the
// concurrent quotes' first-use folds, and every observed quote version
// must be one the broker actually published.
func TestConcurrentQuotesDuringUpdate(t *testing.T) {
	db, qs := updateScenario(t, "skewed")
	b, err := NewBroker(db, Config{SupportSize: 60, Seed: 2, Shards: 4, LPIPCandidates: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Calibrate(qs, valuation.Uniform{K: 100}, UIP); err != nil {
		t.Fatal(err)
	}
	const updates = plan.MaxPendingBatches + 2
	stop := make(chan struct{})
	errs := make(chan error, 64)
	var wg sync.WaitGroup
	workers := 6
	if runtime.GOMAXPROCS(0) < 4 {
		workers = 3
	}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch g % 3 {
				case 0:
					quote, err := b.Quote(qs[(g+i)%len(qs)])
					if err != nil {
						errs <- err
						return
					}
					if quote.Version > updates {
						errs <- &unexpectedVersionError{quote.Version}
						return
					}
				case 1:
					lo := (g + i) % (len(qs) - 4)
					if _, err := b.QuoteBatch(qs[lo : lo+4]); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, _, err := b.Purchase(qs[(g+i)%len(qs)], 1e12); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(17))
	for u := 0; u < updates; u++ {
		if _, _, err := b.Update(brokerRandomUpdate(rng, b.DB(), 1+rng.Intn(4))); err != nil {
			t.Fatalf("update %d: %v", u, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := b.Version(); got != updates {
		t.Fatalf("final version = %d, want %d", got, updates)
	}
	// Without the cap drain's trim the log would hold every batch.
	if ps := b.PlanStats(); ps.PendingBatches > plan.MaxPendingBatches {
		t.Fatalf("%d pending batches after %d updates: the cap drain never ran", ps.PendingBatches, updates)
	}
}

type unexpectedVersionError struct{ v uint64 }

func (e *unexpectedVersionError) Error() string {
	return "quote carries a version the broker never published"
}

// TestPendingBatchesBoundedAcrossShards streams 3 × plan.MaxPendingBatches
// random single-cell updates through a 7-shard broker with cached plans
// and no quote in between, so every fold before the final quotes is a cap
// drain. The reported pending log never exceeds the cap
// plan.MaxPendingBatches documents, at any shard count, because the
// support set keeps one plan cache and so one log. Afterwards every
// calibration query must quote byte-identically to a broker restored
// fresh on the final database.
func TestPendingBatchesBoundedAcrossShards(t *testing.T) {
	db, qs := updateScenario(t, "skewed")
	cfg := Config{SupportSize: 100, Seed: 5, Shards: 7, LPIPCandidates: 4}
	b, err := NewBroker(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Calibrate(qs, valuation.Uniform{K: 100}, UIP); err != nil {
		t.Fatal(err)
	}
	if ps := b.PlanStats(); ps.Plans == 0 {
		t.Fatal("calibration cached no plans")
	}
	rng := rand.New(rand.NewSource(1))
	capDrains := 0
	for i := 0; i < 3*plan.MaxPendingBatches; i++ {
		_, st, err := b.Update(brokerRandomUpdate(rng, b.DB(), 1))
		if err != nil {
			t.Fatal(err)
		}
		if st.PlansRebased+st.PlansInvalidated > 0 {
			capDrains++
		}
		if ps := b.PlanStats(); ps.PendingBatches > plan.MaxPendingBatches {
			t.Fatalf("update %d: %d pending batches, cap %d", i+1, ps.PendingBatches, plan.MaxPendingBatches)
		}
	}
	if capDrains < 2 {
		t.Fatalf("%d cap drains over %d updates, want at least 2", capDrains, 3*plan.MaxPendingBatches)
	}
	fresh, err := Restore(b.Snapshot(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	informative := 0
	for _, q := range qs {
		got, err := b.Quote(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Quote(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: cap-drained broker quote %+v != fresh broker %+v", q.Name, got, want)
		}
		if got.Informative {
			informative++
		}
	}
	if informative == 0 {
		t.Fatal("no informative quote: the comparison checks nothing")
	}
}
