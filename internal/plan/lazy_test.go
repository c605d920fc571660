package plan

// Lazy coalesced cache advancement. Cache.Advance, which also advances the
// cache's own IndexPool, defers all maintenance to a pending change-batch
// log; these tests pin the coalescing semantics: a plan that sleeps
// through many update batches and is then touched folds every pending
// batch in one pass and comes out indistinguishable from a fresh
// compilation, and the pending log's cap triggers an eager amortized
// drain instead of unbounded growth.

import (
	"math/rand"
	"testing"

	"querypricing/internal/relational"
)

// TestLazyAdvanceSleepingPlans chains many update batches through
// Cache.Advance with no Gets in between — every cached plan sleeps through
// every version — then wakes each plan once and checks it against a fresh
// compilation on the final snapshot.
func TestLazyAdvanceSleepingPlans(t *testing.T) {
	db := testDB()
	cache := NewCache(db, 16)
	queries := testQueries()
	for _, q := range queries {
		if _, _, err := cache.Get(q); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
	}
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 10; round++ {
		changes := randomChanges(rng, db, 1+rng.Intn(3))
		newDB := applyUpdate(t, db, changes)
		cache, _ = cache.Advance(newDB, changes)
		db = newDB
	}
	if stale := cache.StaleLen(); stale == 0 {
		t.Fatal("every plan slept through 10 batches; expected stale entries")
	}
	for _, q := range queries {
		got, _, err := cache.Get(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		fresh, err := Compile(db, q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if got.Version() != db.Version() {
			t.Fatalf("%s: woken plan at version %d, want %d", q.Name, got.Version(), db.Version())
		}
		assertPlanEquivalent(t, db, got, fresh, q.Name+"/woken")
	}
	if stale := cache.StaleLen(); stale != 0 {
		t.Fatalf("StaleLen = %d after waking every plan, want 0", stale)
	}
}

// TestPendingCapForcesDrain pins the amortized bound on the pending log:
// once a chain of Advances would exceed MaxPendingBatches, the successor
// cache drains eagerly and starts with no stale entries, and the woken
// plans still match fresh compilations.
func TestPendingCapForcesDrain(t *testing.T) {
	db := testDB()
	cache := NewCache(db, 16)
	queries := testQueries()
	for _, q := range queries {
		if _, _, err := cache.Get(q); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
	}
	// Alternate one cell between two values; every batch is rebaseable.
	vals := []relational.Value{relational.Int(5), relational.Int(6)}
	sawDrain := false
	for round := 0; round < MaxPendingBatches+8; round++ {
		changes := []CellChange{{Table: "T", Row: 0, Col: 2, New: vals[round%2]}}
		newDB := applyUpdate(t, db, changes)
		cache, _ = cache.Advance(newDB, changes)
		db = newDB
		if cache.StaleLen() == 0 {
			sawDrain = true // the cap forced an eager drain on this Advance
		}
	}
	if !sawDrain {
		t.Fatalf("no Advance drained within %d rounds; pending log grows without bound", MaxPendingBatches+8)
	}
	for _, q := range queries {
		got, _, err := cache.Get(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		fresh, err := Compile(db, q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if got.BaseFingerprint() != fresh.BaseFingerprint() {
			t.Fatalf("%s: post-drain fingerprint %x != fresh %x", q.Name, got.BaseFingerprint(), fresh.BaseFingerprint())
		}
	}
}

// TestCacheDrainCountsAndConverges pins Drain's contract: it reports the
// rebased/recompiled split, leaves no stale entries, and the drained plans
// match fresh compilations.
func TestCacheDrainCountsAndConverges(t *testing.T) {
	db := testDB()
	cache := NewCache(db, 16)
	queries := testQueries()
	for _, q := range queries {
		if _, _, err := cache.Get(q); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
	}
	changes := []CellChange{
		{Table: "T", Row: 1, Col: 0, New: relational.Int(5)},
		{Table: "U", Row: 3, Col: 0, New: relational.Int(2)},
	}
	newDB := applyUpdate(t, db, changes)
	cache, ast := cache.Advance(newDB, changes)
	rebased, recompiled := cache.Drain()
	if rebased+recompiled != ast.Deferred {
		t.Fatalf("Drain folded %d+%d plans, want %d", rebased, recompiled, ast.Deferred)
	}
	if rebased == 0 {
		t.Fatal("expected at least one delta-maintained plan")
	}
	if stale := cache.StaleLen(); stale != 0 {
		t.Fatalf("StaleLen = %d after Drain, want 0", stale)
	}
	for _, q := range queries {
		got, fresh, err := cache.Get(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if fresh {
			t.Fatalf("%s: Get recompiled after a full Drain", q.Name)
		}
		ref, err := Compile(newDB, q)
		if err != nil {
			t.Fatal(err)
		}
		if got.BaseFingerprint() != ref.BaseFingerprint() {
			t.Fatalf("%s: drained fingerprint %x != fresh %x", q.Name, got.BaseFingerprint(), ref.BaseFingerprint())
		}
	}
}
