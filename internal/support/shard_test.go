package support_test

// Sharded-vs-unsharded equivalence: partitioning a support set into K
// shards must never change a conflict set, for any K, on any workload —
// both through the batch builder (shard × query-tile scheduling) and the
// online per-query path (per-shard ascending lists merged with one sort).
// These tests randomize seeds and delta widths and run under -race in CI.

import (
	"runtime"
	"testing"

	"querypricing/internal/relational"
	"querypricing/internal/support"
)

func shardCounts() []int {
	ks := []int{1, 2, 7, runtime.NumCPU()}
	// Deduplicate (NumCPU may collide with the fixed counts).
	seen := map[int]bool{}
	out := ks[:0]
	for _, k := range ks {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// generateSharded samples the same support set (same seed, same deltas)
// with a given shard count.
func generateSharded(t *testing.T, db *relational.Database, size int, seed int64, deltas, shards int) *support.Set {
	t.Helper()
	set, err := support.Generate(db, support.GenOptions{
		Size: size, Seed: seed, DeltasPerNeighbor: deltas, Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestShardedMatchesUnsharded is the central equivalence property of the
// sharded engine: across all four workloads, random seeds and neighbor
// delta widths, hypergraphs built over K shards are byte-identical to the
// single-shard build for every tested K, and so are the build Stats.
func TestShardedMatchesUnsharded(t *testing.T) {
	for _, w := range equivalenceWorkloads {
		w := w
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			db, qs := equivalenceScenario(t, w)
			for _, cfg := range []struct {
				seed   int64
				deltas int
			}{{41, 1}, {42, 2}} {
				base := generateSharded(t, db, 50, cfg.seed, cfg.deltas, 1)
				want, wantStats, err := support.BuildHypergraph(base, qs, support.BuildOptions{})
				if err != nil {
					t.Fatal(err)
				}
				// Every pair is counted exactly once: pruned by rule 1 or
				// 2, decided by a probe, or punted to a fallback.
				if got, pairs := wantStats.PrunedByCols+wantStats.PrunedByPred+wantStats.DeltaProbes+wantStats.Fallbacks, len(qs)*base.Size(); got != pairs {
					t.Fatalf("%s seed %d: Stats %+v account for %d pairs, want %d", w, cfg.seed, *wantStats, got, pairs)
				}
				for _, k := range shardCounts() {
					if k == 1 {
						continue
					}
					set := generateSharded(t, db, 50, cfg.seed, cfg.deltas, k)
					if got := set.NumShards(); got != k {
						t.Fatalf("NumShards = %d, want %d", got, k)
					}
					h, st, err := support.BuildHypergraph(set, qs, support.BuildOptions{})
					if err != nil {
						t.Fatal(err)
					}
					assertSameHypergraph(t, w, qs, h, want)
					if *st != *wantStats {
						t.Fatalf("%s seed %d K=%d: Stats %+v, want the single-shard %+v", w, cfg.seed, k, *st, *wantStats)
					}
				}
			}
		})
	}
}

// TestShardedConflictSetMatchesUnsharded pins the online path: for every
// query and every shard count, the merged per-shard conflict lists
// equal the single-shard conflict set (and the batch builder's edge).
func TestShardedConflictSetMatchesUnsharded(t *testing.T) {
	db, qs := equivalenceScenario(t, "ssb")
	base := generateSharded(t, db, 60, 77, 2, 1)
	want, _, err := support.BuildHypergraph(base, qs, support.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range shardCounts() {
		set := generateSharded(t, db, 60, 77, 2, k)
		for qi, q := range qs {
			items, err := support.ConflictSet(set, q)
			if err != nil {
				t.Fatal(err)
			}
			edge := want.Edge(qi).Items
			if len(items) != len(edge) {
				t.Fatalf("K=%d query %s: ConflictSet %v, want %v", k, q.Name, items, edge)
			}
			for i := range items {
				if items[i] != edge[i] {
					t.Fatalf("K=%d query %s: ConflictSet %v, want %v", k, q.Name, items, edge)
				}
			}
		}
	}
}

// TestShardedSetConcurrentUse drives the sharded builder and concurrent
// online quotes over one shared sharded Set; with -race it verifies the
// per-shard state (plan caches, footprint indexes) is safe under the
// fan-out the broker performs.
func TestShardedSetConcurrentUse(t *testing.T) {
	db, qs := equivalenceScenario(t, "skewed")
	qs = qs[:50]
	set := generateSharded(t, db, 40, 13, 1, 4)
	done := make(chan error, 6)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := support.BuildHypergraph(set, qs, support.BuildOptions{Workers: 4})
			done <- err
		}()
	}
	for i := 0; i < 4; i++ {
		i := i
		go func() {
			for k := 0; k < 10; k++ {
				if _, err := support.ConflictSet(set, qs[(i*10+k)%len(qs)]); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 6; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
