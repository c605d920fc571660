package support_test

// Allocation-regression guards for the warm quote path. The probe arenas
// (plan.Arena, threaded through each shard's pooled quote scratch) make a
// warm ConflictSet nearly allocation-free; these ceilings keep future PRs
// from silently re-inflating the hot path. The guards are skipped under
// the race detector, whose instrumentation changes allocation counts.

import (
	"testing"

	"querypricing/internal/raceinfo"
	"querypricing/internal/relational"
	"querypricing/internal/support"
)

// warmConflictSetCeiling is the allocs-per-op budget of a warm
// ConflictSet over a selective single-table query (the BenchmarkConflictSet
// warm10k shape). Measured ~18 after the arena work; the ceiling leaves
// headroom without re-admitting the pre-arena 243.
const warmConflictSetCeiling = 60

// selectiveQuery picks a predicated single-table query from the workload —
// the typical online quote shape the warm10k benchmark tracks.
func selectiveQuery(t *testing.T, qs []*relational.SelectQuery) *relational.SelectQuery {
	t.Helper()
	for _, q := range qs {
		if len(q.Tables) == 1 && len(q.Where) > 0 && q.Limit == 0 {
			return q
		}
	}
	t.Fatal("no selective single-table query in scenario")
	return nil
}

// TestWarmConflictSetAllocCeiling runs the warm quote at several shard
// counts: every count stays under the ceiling, and a sharded set
// allocates no more per quote than the unsharded one, since the shards
// are probed in the calling goroutine into one conflict list.
func TestWarmConflictSetAllocCeiling(t *testing.T) {
	if raceinfo.Enabled {
		t.Skip("allocation ceilings are calibrated without -race instrumentation")
	}
	db, qs := equivalenceScenario(t, "skewed")
	q := selectiveQuery(t, qs)
	var unsharded float64
	for _, k := range []int{1, 2, 7} {
		set, err := support.Generate(db, support.GenOptions{Size: 2000, Seed: 3, Shards: k})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := support.ConflictSet(set, q); err != nil {
			t.Fatal(err) // prime the plan cache, shard indexes and arenas
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := support.ConflictSet(set, q); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > warmConflictSetCeiling {
			t.Errorf("K=%d: warm ConflictSet allocates %.1f/op, ceiling %d", k, allocs, warmConflictSetCeiling)
		}
		if k == 1 {
			unsharded = allocs
		} else if allocs > unsharded {
			t.Errorf("K=%d: warm ConflictSet allocates %.1f/op, more than the unsharded %.1f", k, allocs, unsharded)
		}
	}
}
