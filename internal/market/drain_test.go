package market

// Background drain convergence and the post-update requote allocation
// guard. With lazy plan advancement a broker defers every cached plan's
// rebase to its next quote; Config.BackgroundDrain folds them while the
// broker idles, and the warm requote path must stay as allocation-light as
// the plain warm quote path.

import (
	"math/rand"
	"testing"
	"time"

	"querypricing/internal/plan"
	"querypricing/internal/raceinfo"
	"querypricing/internal/relational"
	"querypricing/internal/support"
	"querypricing/internal/valuation"
)

// TestBackgroundDrainConverges enables the background drainer, streams
// updates through a warmed broker, and waits for the deferred rebases to
// be folded without any quote arriving — then checks post-drain quotes
// against a fresh broker on the final database. Run with -race: the
// drainer shares the plan caches with concurrent quotes.
func TestBackgroundDrainConverges(t *testing.T) {
	db, qs := updateScenario(t, "skewed")
	set, err := support.Generate(db, support.GenOptions{Size: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBrokerWithSupport(db, set, Config{Seed: 2, LPIPCandidates: 4, BackgroundDrain: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Calibrate(qs, valuation.Uniform{K: 100}, UIP); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for u := 0; u < 4; u++ {
		if _, _, err := b.Update(brokerRandomUpdate(rng, b.DB(), 1+rng.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	// The drainer runs asynchronously; converged means no stale plans.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b.state.Load().set.StalePlans() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background drainer did not converge: %d stale plans",
				b.state.Load().set.StalePlans())
		}
		time.Sleep(5 * time.Millisecond)
	}
	fresh, err := NewBrokerWithSupport(b.DB(),
		&support.Set{DB: b.DB(), Neighbors: set.Neighbors}, Config{Seed: 2, LPIPCandidates: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Calibrate(qs, valuation.Uniform{K: 100}, UIP); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Calibrate(qs, valuation.Uniform{K: 100}, UIP); err != nil {
		t.Fatal(err)
	}
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
			t.Fatalf("%s: drained broker quote %+v != fresh broker %+v", q.Name, got, want)
		}
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

// TestPendingBatchesBoundedAcrossShards streams 3 × plan.MaxPendingBatches
// single-cell updates through a 7-shard broker with cached plans and no
// drainer: the reported pending log never exceeds the cap
// plan.MaxPendingBatches documents, at any shard count, because the
// support set keeps one plan cache and so one log.
func TestPendingBatchesBoundedAcrossShards(t *testing.T) {
	db, qs := updateScenario(t, "skewed")
	b, err := NewBroker(db, Config{SupportSize: 100, Seed: 5, Shards: 7, LPIPCandidates: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Calibrate(qs, valuation.Uniform{K: 100}, UIP); err != nil {
		t.Fatal(err)
	}
	if ps := b.PlanStats(); ps.Plans == 0 {
		t.Fatal("calibration cached no plans")
	}
	domain := db.ActiveDomain("Country", "Population")
	if len(domain) < 2 {
		t.Fatal("degenerate Population domain")
	}
	col := colIndexOf(t, db, "Country", "Population")
	for i := 0; i < 3*plan.MaxPendingBatches; i++ {
		if _, _, err := b.Update([]relational.CellChange{
			{Table: "Country", Row: 4, Col: col, New: domain[i%2]},
		}); err != nil {
			t.Fatal(err)
		}
		if ps := b.PlanStats(); ps.PendingBatches > plan.MaxPendingBatches {
			t.Fatalf("update %d: %d pending batches, cap %d", i+1, ps.PendingBatches, plan.MaxPendingBatches)
		}
	}
}
