package market

// Allocation-regression guard for Broker.Update. With generation-shared
// plan-cache entries an update's cost is O(changes): Advance appends the
// change batch to each shard cache's shared pending log and copies only
// O(1) generation metadata, no matter how many plans are live. This test
// pins that property the way the requote guard pins the quote path — by
// ceiling the allocations of a 1-cell update against a broker holding the
// full skewed workload's compiled plans (~1000 of them).

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
// average is what the ceiling must cover). Measured ~220 with the
// generation-shared cache; the pre-change per-plan copy cost thousands,
// so the ceiling separates the regimes with room to spare.
const updateAllocCeiling = 500

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
