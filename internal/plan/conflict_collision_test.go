package plan_test

import (
	"slices"
	"testing"

	"querypricing/internal/datagen"
	"querypricing/internal/plan"
	"querypricing/internal/support"
	"querypricing/internal/workloads"
)

// TestConflictSetsUnderKeyHashCollisions computes the conflict set of
// every query of a skewed world workload with the join-index key hash at
// full width, then again with every key in one posting list (mask 0) and
// in two (mask 1): the sets must be identical.
func TestConflictSetsUnderKeyHashCollisions(t *testing.T) {
	db := datagen.World(datagen.WorldConfig{Countries: 60, Cities: 150, Seed: 1})
	queries := workloads.Skewed(db)
	conflictSets := func() [][]int {
		set, err := support.Generate(db, support.GenOptions{Size: 150, Seed: 2, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]int, len(queries))
		for i, q := range queries {
			if out[i], err = support.ConflictSet(set, q); err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
		}
		return out
	}
	want := conflictSets()
	nonEmpty := 0
	for _, cs := range want {
		if len(cs) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every conflict set is empty; the comparison would show nothing")
	}
	for _, m := range []uint64{0, 1} {
		t.Cleanup(plan.SetKeyHashMask(m))
		got := conflictSets()
		for i := range queries {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("mask %x, %s: conflict set %v, want %v", m, queries[i].Name, got[i], want[i])
			}
		}
	}
}
