package market

// Allocation-regression guards for Broker.Update and the post-update
// requote. With generation-shared plan-cache entries an update's cost is
// O(changes): Advance appends the change batch to the support set's one
// pending log, carries the index pool's untouched bare-scan indexes by
// reference and copies only O(1) generation metadata, no matter how many
// plans are live. TestUpdateAllocCeiling pins that property by ceiling
// the allocations of a 1-cell update against a broker holding the full
// skewed workload's compiled plans (~1000 of them); the requote guard
// pins the warm quote path after an update's deferred rebase is folded.

import (
	"testing"

	"querypricing/internal/datagen"
	"querypricing/internal/raceinfo"
	"querypricing/internal/relational"
	"querypricing/internal/support"
	"querypricing/internal/valuation"
	"querypricing/internal/workloads"
)

// updateAllocCeiling is the allocs-per-op budget of a single-cell
// Broker.Update averaged across cap-triggered amortized drains (every
// MaxPendingBatches-th update eagerly folds the whole cache, so the
// average is what the ceiling must cover). Measured ~112 with the
// generation-shared cache and a pool that keeps no change log of its own;
// a per-plan copy costs thousands, so the ceiling separates the regimes
// with room to spare.
const updateAllocCeiling = 250

// TestUpdateAllocCeiling guards Update's O(changes) allocation profile
// over a broker with the full skewed workload live (~1000 cached plans).
func TestUpdateAllocCeiling(t *testing.T) {
	if raceinfo.Enabled {
		t.Skip("allocation ceilings are calibrated without -race instrumentation")
	}
	if testing.Short() {
		t.Skip("full-workload calibration is slow; skipped in -short")
	}
	db := datagen.World(datagen.WorldConfig{Countries: 239, Cities: 800, Seed: 1})
	qs := workloads.Skewed(db)
	set, err := support.Generate(db, support.GenOptions{Size: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBrokerWithSupport(db, set, Config{Seed: 2, LPIPCandidates: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Calibrate(qs, valuation.Uniform{K: 100}, UIP); err != nil {
		t.Fatal(err) // compiles (and caches) every workload plan
	}
	if ps := b.PlanStats(); ps.Plans < 800 {
		t.Fatalf("scenario holds %d live plans, want ~1000 for the guard to mean anything", ps.Plans)
	}
	domain := db.ActiveDomain("Country", "Population")
	if len(domain) < 2 {
		t.Fatal("degenerate Population domain")
	}
	col := colIndexOf(t, db, "Country", "Population")
	i := 0
	// 128 runs span two cap-triggered drains (MaxPendingBatches = 64), so
	// the average prices in the amortized eager fold, exactly like the
	// UpdateRequote benchmark does.
	allocs := testing.AllocsPerRun(128, func() {
		i++
		if _, _, err := b.Update([]relational.CellChange{
			{Table: "Country", Row: 5, Col: col, New: domain[i%2]},
		}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > updateAllocCeiling {
		t.Errorf("1-cell update over %d live plans allocates %.1f/op, ceiling %d",
			b.PlanStats().Plans, allocs, updateAllocCeiling)
	}
}

// requoteAllocCeiling is the allocs-per-op budget of a warm quote against
// a broker that just absorbed an update (conflict caching disabled, so the
// quote pays real conflict-set computation). Measured ~13 after the arena
// work; the ceiling leaves headroom without re-admitting regressions.
const requoteAllocCeiling = 60

// TestPostUpdateRequoteAllocCeiling is the allocation-regression guard for
// the post-update warm quote path: once the first post-update quote has
// folded the deferred rebase, requotes must stay on the arena-backed
// near-zero-allocation path.
func TestPostUpdateRequoteAllocCeiling(t *testing.T) {
	if raceinfo.Enabled {
		t.Skip("allocation ceilings are calibrated without -race instrumentation")
	}
	db, qs := updateScenario(t, "skewed")
	b, err := NewBroker(db, Config{SupportSize: 400, Seed: 7, Shards: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Calibrate(qs, valuation.Uniform{K: 100}, UIP); err != nil {
		t.Fatal(err)
	}
	q := selectiveQueryOf(t, qs)
	domain := db.ActiveDomain("Country", "Population")
	if len(domain) < 2 {
		t.Fatal("degenerate Population domain")
	}
	col := colIndexOf(t, db, "Country", "Population")
	if _, _, err := b.Update([]relational.CellChange{{Table: "Country", Row: 2, Col: col, New: domain[0]}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Quote(q); err != nil {
		t.Fatal(err) // first post-update quote folds the deferred rebase
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := b.Quote(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > requoteAllocCeiling {
		t.Errorf("post-update requote allocates %.1f/op, ceiling %d", allocs, requoteAllocCeiling)
	}
}

// selectiveQueryOf picks a predicated single-table query (the typical
// online quote shape).
func selectiveQueryOf(t *testing.T, qs []*relational.SelectQuery) *relational.SelectQuery {
	t.Helper()
	for _, q := range qs {
		if len(q.Tables) == 1 && len(q.Where) > 0 && q.Limit == 0 {
			return q
		}
	}
	t.Fatal("no selective single-table query in scenario")
	return nil
}

// colIndexOf resolves a column name to its schema index.
func colIndexOf(t *testing.T, db *relational.Database, table, col string) int {
	t.Helper()
	tab := db.Table(table)
	if tab == nil {
		t.Fatalf("no table %q", table)
	}
	ci := tab.Schema.ColIndex(col)
	if ci < 0 {
		t.Fatalf("no column %s.%s", table, col)
	}
	return ci
}
