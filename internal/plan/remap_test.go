package plan

// Compaction re-homing at the plan layer: Plan.Remap must produce a plan
// indistinguishable from a fresh compilation on the compacted snapshot,
// and Cache.Remap must carry warm plans across the epoch (fresh lineage,
// preserved recency) while refusing anything stale. Runs under -race.

import (
	"math/rand"
	"testing"

	"querypricing/internal/relational"
)

// compactCurrent compacts db (which must have tombstones) and returns
// the compacted snapshot plus the slot maps.
func compactCurrent(t *testing.T, db *relational.Database) (*relational.Database, *relational.SlotMap) {
	t.Helper()
	specs, err := db.PlanCompaction(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		return nil, nil
	}
	newDB, maps, err := db.Compact(specs)
	if err != nil {
		t.Fatal(err)
	}
	return newDB, maps
}

// TestRemapMatchesRecompile drives each test query through chained mixed
// DML, compacts, and requires the remapped plan to be equivalent to a
// fresh compilation on the compacted snapshot — fingerprints, probe
// decisions, and follow-up DML probes all agree.
func TestRemapMatchesRecompile(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, q := range testQueries() {
		db := testDB()
		p, err := Compile(db, q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		remaps := 0
		for trial := 0; trial < 30; trial++ {
			changes := randomDMLChanges(rng, db, 1+rng.Intn(3))
			newDB := applyUpdate(t, db, changes)
			np, ok := p.Rebase(newDB, changes, nil)
			if !ok {
				np, err = Compile(newDB, q)
				if err != nil {
					t.Fatalf("%s: recompile: %v", q.Name, err)
				}
			}
			db, p = newDB, np

			cdb, maps := compactCurrent(t, db)
			if cdb == nil {
				continue // no tombstones yet this round
			}
			rp, ok := p.Remap(cdb, maps)
			if !ok {
				t.Fatalf("%s trial %d: Remap refused a current plan", q.Name, trial)
			}
			fresh, err := Compile(cdb, q)
			if err != nil {
				t.Fatalf("%s: compile on compacted: %v", q.Name, err)
			}
			remaps++
			assertPlanEquivalent(t, cdb, rp, fresh, q.Name)
			for i := 0; i < 3; i++ {
				probe := randomDMLChanges(rng, cdb, 1+rng.Intn(3))
				if g, f := rp.Probe(probe), fresh.Probe(probe); g != f {
					t.Fatalf("%s trial %d: probe %+v: remapped %v, fresh %v",
						q.Name, trial, probe, g, f)
				}
				checkProbeDML(t, cdb, rp, probe)
			}
			// Keep evolving on the compacted snapshot, like the broker does.
			db, p = cdb, rp
		}
		if remaps == 0 {
			t.Errorf("%s: no trial ever compacted; suspicious", q.Name)
		}
	}
}

// TestRemapRefusesStaleOrBare pins Remap's refusal cases: a plan whose
// version predates the snapshot the specs were planned against, and a
// slot map whose length disagrees with the plan's coordinates.
func TestRemapRefusesStale(t *testing.T) {
	db := testDB()
	q := testQueries()[0]
	p, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	// Advance twice, delete a row, then compact — but try to remap the
	// ORIGINAL plan, whose coordinate arrays are sized for the old table.
	tab := db.TableNames()[0]
	db2 := applyUpdate(t, db, []CellChange{
		relational.RowInsert(tab, db.Table(tab).Rows[0]...),
	})
	db3 := applyUpdate(t, db2, []CellChange{relational.RowDelete(tab, 0)})
	cdb, maps := compactCurrent(t, db3)
	if cdb == nil {
		t.Fatal("expected tombstones")
	}
	if _, ok := p.Remap(cdb, maps); ok {
		t.Fatal("Remap must refuse a plan compiled against a different slot layout")
	}
}

// TestCacheRemapCarriesWarmPlans: a cache with current plans carries them
// across a compaction epoch; cached lookups on the new lineage hit
// without recompiling, and the carried plans price like fresh ones.
func TestCacheRemapCarriesWarmPlans(t *testing.T) {
	db := testDB()
	qs := testQueries()
	cache := NewCache(db, 32)
	for _, q := range qs {
		if _, _, err := cache.Get(q); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
	}
	warm := cache.Len()
	if warm == 0 {
		t.Fatal("no plans cached")
	}
	tab := db.TableNames()[0]
	changes := []CellChange{relational.RowDelete(tab, 0)}
	newDB := applyUpdate(t, db, changes)
	cache, _ = cache.Advance(newDB, changes)

	cdb, maps := compactCurrent(t, newDB)
	if cdb == nil {
		t.Fatal("expected tombstones")
	}
	fresh, carried, dropped := cache.Remap(cdb, maps)
	if carried+dropped == 0 {
		t.Fatal("Remap saw no cached plans")
	}
	if fresh.Len() != carried {
		t.Fatalf("fresh cache holds %d plans, carried %d", fresh.Len(), carried)
	}
	// Carried plans must serve the compacted snapshot without recompiling,
	// and probe identically to fresh compilations.
	for _, q := range qs {
		p, hit, err := fresh.Get(q)
		if err != nil {
			t.Fatalf("%s on compacted cache: %v", q.Name, err)
		}
		fp, err := Compile(cdb, q)
		if err != nil {
			t.Fatal(err)
		}
		if p.BaseFingerprint() != fp.BaseFingerprint() {
			t.Fatalf("%s: carried plan fingerprint diverges from fresh (hit=%v)", q.Name, hit)
		}
	}
	// The old cache still serves the uncompacted snapshot.
	if _, _, err := cache.Get(qs[0]); err != nil {
		t.Fatalf("old lineage broken after Remap: %v", err)
	}
}
