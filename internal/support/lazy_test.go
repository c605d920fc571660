package support_test

// Coalesced multi-version rebase equivalence. Updates advance a support
// set lazily: Set.Advance appends the change batch to the plan cache's
// pending log and every plan folds its deferred batches — N batches
// coalesced into one rebase — on first post-update use. These tests pin
// the three ways a plan can cross a chain of update batches
//
//   - lazily: quoted after every batch (each quote folds what is pending),
//   - eagerly: Set.Drain after every batch (the fold the cap drain and
//     Broker.DrainPlans run),
//   - asleep: never touched until after the final batch (one coalesced
//     fold across every version at once),
//
// against the ground truth of a fresh Set literally constructed over the
// final database — byte-identical conflict sets across all four workloads
// and shard counts, under -race. Each chain runs on its own set, warmed
// separately, so no chain's folds do another's work: every eager Drain
// must fold plans, and the sleeper must reach its final quotes with every
// plan still stale.

import (
	"math/rand"
	"runtime"
	"testing"

	"querypricing/internal/support"
)

func TestLazyEagerFreshRebaseEquivalence(t *testing.T) {
	for _, w := range equivalenceWorkloads {
		w := w
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			db, qs := equivalenceScenario(t, w)
			rng := rand.New(rand.NewSource(int64(len(w)) * 1303))
			probe := qs[:len(qs)/2] // the other half sleeps even in the lazy chain
			for _, k := range []int{1, 2, runtime.NumCPU()} {
				base := generateSharded(t, db, 40, 11, 2, k)
				warmed := func() *support.Set {
					set := &support.Set{DB: db, Neighbors: base.Neighbors, Shards: k}
					conflictSets(t, set, qs) // warm every plan pre-update
					return set
				}
				conflictSets(t, base, qs) // the lazy chain's root, and the old snapshot below
				lazy, eager, sleeper := base, warmed(), warmed()
				curDB := db
				for round := 0; round < 4; round++ {
					changes := randomUpdate(rng, curDB, 1+rng.Intn(6))
					newDB, err := curDB.Apply(changes)
					if err != nil {
						t.Fatal(err)
					}
					lazy, _ = lazy.Advance(newDB, changes)
					conflictSets(t, lazy, probe) // fold-on-use for the probed half
					eager, _ = eager.Advance(newDB, changes)
					if st := eager.Drain(); st.PlansRebased+st.PlansInvalidated == 0 {
						t.Fatalf("K=%d round %d: eager Drain folded no plans", k, round)
					}
					if stale := eager.StalePlans(); stale != 0 {
						t.Fatalf("K=%d round %d: %d plans still stale after Drain", k, round, stale)
					}
					sleeper, _ = sleeper.Advance(newDB, changes) // sleeps through every version
					curDB = newDB
				}
				if plans, stale, _ := sleeper.PlanStats(); plans == 0 || stale != plans {
					t.Fatalf("K=%d: sleeper has %d of %d plans stale before its one coalesced fold, want all", k, stale, plans)
				}

				fresh := &support.Set{DB: curDB, Neighbors: base.Neighbors, Shards: k}
				want := conflictSets(t, fresh, qs)
				assertSameConflictSets(t, w+"/lazy", qs, conflictSets(t, lazy, qs), want)
				assertSameConflictSets(t, w+"/eager", qs, conflictSets(t, eager, qs), want)
				assertSameConflictSets(t, w+"/sleeper", qs, conflictSets(t, sleeper, qs), want)
				// The pre-update set must still serve the original snapshot.
				assertSameConflictSets(t, w+"/old-snapshot", qs,
					conflictSets(t, base, qs),
					conflictSets(t, &support.Set{DB: db, Neighbors: base.Neighbors, Shards: k}, qs))
			}
		})
	}
}
