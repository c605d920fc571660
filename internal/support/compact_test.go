package support_test

// Compaction equivalence at the support layer: re-homing a set onto a
// densely rewritten database (Set.Compact) must be invisible to pricing —
// conflict sets byte-identical to the pre-compaction set AND to a fresh
// Set over the compacted database, for every workload and shard count.
// That is the whole contract: a compaction epoch is a physical rewrite,
// never a semantic change. Runs under -race in CI.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"querypricing/internal/relational"
	"querypricing/internal/support"
)

// churnWithTombstones drives a DML chain until at least one table has
// tombstones, returning the advanced set and database.
func churnWithTombstones(t *testing.T, set *support.Set, db *relational.Database, rng *rand.Rand) (*support.Set, *relational.Database) {
	t.Helper()
	cur, curDB := set, db
	for round := 0; round < 10; round++ {
		newDB, norm := randomDMLBatch(t, rng, curDB)
		cur, _ = cur.Advance(newDB, norm)
		curDB = newDB
		if specs, err := curDB.PlanCompaction(nil); err == nil && len(specs) > 0 && round >= 2 {
			return cur, curDB
		}
	}
	t.Fatal("DML chain never produced a tombstone (randomDMLUpdate changed?)")
	return nil, nil
}

// randomDMLBatch draws one normalized mixed DML batch against db and
// returns the snapshot it produces together with the batch.
func randomDMLBatch(t *testing.T, rng *rand.Rand, db *relational.Database) (*relational.Database, []support.Delta) {
	t.Helper()
	norm, err := db.NormalizeChanges(randomDMLUpdate(rng, db, 3+rng.Intn(5)))
	if err != nil {
		t.Fatal(err)
	}
	newDB, err := db.Apply(norm)
	if err != nil {
		t.Fatal(err)
	}
	return newDB, norm
}

// TestSetCompactConflictSetsIdentical is the tentpole equivalence: after
// a mixed DML chain, compacting must leave every query's conflict set
// byte-identical — against the pre-compaction set, against a fresh Set
// over the compacted database, and across every shard count. The
// compacted set starts with an empty plan cache while the old set keeps
// its plans, and it stays identical to the fresh Set through further DML
// batches after the epoch.
func TestSetCompactConflictSetsIdentical(t *testing.T) {
	ks := []int{1, 2, runtime.NumCPU()}
	for _, w := range equivalenceWorkloads {
		w := w
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			var acrossShards [][]int
			for _, k := range ks {
				// Same seed per K: identical DML chain, so compacted
				// conflict sets must also agree across shard counts.
				rng := rand.New(rand.NewSource(int64(len(w)) * 977))
				db, qs := equivalenceScenario(t, w)
				set := generateSharded(t, db, 50, 7, 2, k)
				adv, advDB := churnWithTombstones(t, set, db, rng)
				before := conflictSets(t, adv, qs)

				specs, err := advDB.PlanCompaction(nil)
				if err != nil || len(specs) == 0 {
					t.Fatalf("PlanCompaction: specs=%d err=%v", len(specs), err)
				}
				newDB, maps, err := advDB.Compact(specs)
				if err != nil {
					t.Fatal(err)
				}
				cset, stats := adv.Compact(newDB, maps)
				if n := cset.PlanCacheLen(); n != 0 {
					t.Fatalf("compacted set starts with %d cached plans, want 0", n)
				}
				if n := adv.PlanCacheLen(); n == 0 || stats.PlansDropped != n || stats.PlansCarried != 0 {
					t.Fatalf("old set holds %d plans; stats %+v", n, stats)
				}
				after := conflictSets(t, cset, qs)
				assertSameConflictSets(t, w+"/pre-vs-post", qs, after, before)

				fresh := &support.Set{DB: newDB, Neighbors: cset.Neighbors, Shards: k}
				assertSameConflictSets(t, w+"/vs-fresh", qs, after, conflictSets(t, fresh, qs))

				// The old set still serves the uncompacted snapshot.
				assertSameConflictSets(t, w+"/old-snapshot", qs, conflictSets(t, adv, qs), before)

				// Past the epoch: the compacted and the fresh set take the
				// same DML batches and must agree after every one.
				cur, curFresh, curDB := cset, fresh, newDB
				for batch := 0; batch < 5; batch++ {
					nextDB, norm := randomDMLBatch(t, rng, curDB)
					cur, _ = cur.Advance(nextDB, norm)
					curFresh, _ = curFresh.Advance(nextDB, norm)
					curDB = nextDB
					assertSameConflictSets(t, fmt.Sprintf("%s/post-epoch-%d", w, batch), qs,
						conflictSets(t, cur, qs), conflictSets(t, curFresh, qs))
				}

				if acrossShards == nil {
					acrossShards = after
				} else {
					assertSameConflictSets(t, w+"/cross-shard", qs, after, acrossShards)
				}
				if stats.NeighborsRemapped < 0 || stats.DeltasDropped < 0 {
					t.Fatalf("negative compact stats: %+v", stats)
				}
			}
		})
	}
}

// TestRemapNeighborsSemantics pins the delta re-homing rules: deltas on
// live slots move with the slot map, deltas on dead slots become the
// Row=-1 vacuous sentinel (counted as dropped), and neighbors with no
// moved deltas share their original slices.
func TestRemapNeighborsSemantics(t *testing.T) {
	db := relational.NewDatabase()
	tab := relational.NewTable(relational.NewSchema("T",
		relational.Column{Name: "a", Kind: relational.KindInt}))
	for i := 0; i < 5; i++ {
		tab.Append(relational.Int(int64(i)))
	}
	db.AddTable(tab)
	next, err := db.Apply([]relational.CellChange{relational.RowDelete("T", 1), relational.RowDelete("T", 3)})
	if err != nil {
		t.Fatal(err)
	}
	_, maps, err := next.Compact([]relational.CompactSpec{{Table: "T", Slots: 5, Dead: []int{1, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	neighbors := []support.Neighbor{
		{Deltas: []support.Delta{{Table: "T", Row: 4, Col: 0, New: relational.Int(9)}}}, // live, moves to 2
		{Deltas: []support.Delta{{Table: "T", Row: 1, Col: 0, New: relational.Int(8)}}}, // dead slot
		{Deltas: []support.Delta{{Table: "T", Row: 0, Col: 0, New: relational.Int(7)}}}, // live, stays 0
		{Deltas: []support.Delta{{Table: "U", Row: 3, Col: 0, New: relational.Int(6)}}}, // untouched table
	}
	out, moved, dropped := support.RemapNeighbors(neighbors, maps)
	if moved != 2 || dropped != 1 {
		t.Fatalf("moved=%d dropped=%d, want 2 moved (rows 4 and 1) and 1 dropped", moved, dropped)
	}
	if got := out[0].Deltas[0].Row; got != 2 {
		t.Fatalf("live delta re-homed to %d, want 2", got)
	}
	if got := out[1].Deltas[0].Row; got != -1 {
		t.Fatalf("dead-slot delta re-homed to %d, want -1 sentinel", got)
	}
	if &out[2].Deltas[0] != &neighbors[2].Deltas[0] {
		t.Fatal("unmoved neighbor must share its delta slice")
	}
	if &out[3].Deltas[0] != &neighbors[3].Deltas[0] {
		t.Fatal("untouched-table neighbor must share its delta slice")
	}
	// Inputs are never mutated.
	if neighbors[0].Deltas[0].Row != 4 || neighbors[1].Deltas[0].Row != 1 {
		t.Fatal("RemapNeighbors mutated its input")
	}
}
