package support_test

// Sharded-vs-unsharded equivalence: partitioning a support set into K
// shards must never change a conflict set, for any K, on any workload —
// both through the batch builder (shard × query-tile scheduling) and the
// online per-query path (per-shard ascending lists merged with one sort).
// These tests randomize seeds and delta widths and run under -race in CI.

import (
	"math/rand"
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
// shared state (the plan cache, footprint indexes, probe scratch pools)
// is safe under the concurrency the broker produces.
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

// mixedNeighbors builds a support set of n neighbors over db mixing every
// delta shape the scan distinguishes: one cell update (the compact-record
// path), two cell updates, one row insert and one row delete (both on
// the delta-list path), shuffled so every shard holds each shape.
func mixedNeighbors(t *testing.T, db *relational.Database, n int, rng *rand.Rand) []support.Neighbor {
	t.Helper()
	single := generateSharded(t, db, n*6/10, 61, 1, 1).Neighbors
	double := generateSharded(t, db, n*3/10, 62, 2, 1).Neighbors
	out := append(append([]support.Neighbor(nil), single...), double...)
	names := db.TableNames()
	for i := 0; len(out) < n; i++ {
		tn := names[rng.Intn(len(names))]
		tab := db.Table(tn)
		if i%2 == 0 {
			vals := make([]relational.Value, len(tab.Schema.Cols))
			for ci, c := range tab.Schema.Cols {
				domain := db.ActiveDomain(tn, c.Name)
				vals[ci] = domain[rng.Intn(len(domain))]
			}
			out = append(out, support.Neighbor{Deltas: []support.Delta{relational.RowInsert(tn, vals...)}})
			continue
		}
		row := rng.Intn(len(tab.Rows))
		out = append(out, support.Neighbor{Deltas: []support.Delta{relational.RowDelete(tn, row)}})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestMixedShapesMatchReference runs the scan over every neighbor shape at
// once, after a compaction left some deltas at the Row = -1 sentinel,
// with |S| not a multiple of the 64-bit candidate words: at every shard
// count, ConflictSet and BuildHypergraph equal the DisablePruning
// reference (full evaluation of every pair), and the build Stats do not
// depend on the shard count.
func TestMixedShapesMatchReference(t *testing.T) {
	const size = 1037
	db, qs := equivalenceScenario(t, "skewed")
	rng := rand.New(rand.NewSource(5))
	neighbors := mixedNeighbors(t, db, size, rng)

	// Delete the rows the first neighbors write, then compact: their
	// deltas re-home to Row -1.
	var deletes []support.Delta
	hit := map[[2]interface{}]bool{}
	for _, nb := range neighbors {
		d := nb.Deltas[0]
		key := [2]interface{}{d.Table, d.Row}
		if d.Op != relational.OpCellUpdate || hit[key] {
			continue
		}
		hit[key] = true
		deletes = append(deletes, relational.RowDelete(d.Table, d.Row))
		if len(deletes) == 12 {
			break
		}
	}
	delDB, err := db.Apply(deletes)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := delDB.PlanCompaction(nil)
	if err != nil || len(specs) == 0 {
		t.Fatalf("PlanCompaction: specs=%d err=%v", len(specs), err)
	}
	newDB, maps, err := delDB.Compact(specs)
	if err != nil {
		t.Fatal(err)
	}

	var ref *support.Set
	var wantStats *support.Stats
	var want [][]int
	for _, k := range []int{1, 2, 7} {
		pre := &support.Set{DB: db, Neighbors: neighbors, Shards: k}
		adv, _ := pre.Advance(delDB, deletes)
		set, cst := adv.Compact(newDB, maps)
		if cst.DeltasDropped == 0 {
			t.Fatal("compaction left no delta at Row -1")
		}
		if ref == nil {
			ref = &support.Set{DB: newDB, Neighbors: set.Neighbors}
			h, _, err := support.BuildHypergraph(ref, qs, support.BuildOptions{DisablePruning: true})
			if err != nil {
				t.Fatal(err)
			}
			for i := range qs {
				want = append(want, h.Edge(i).Items)
			}
		}
		h, st, err := support.BuildHypergraph(set, qs, support.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]int, len(qs))
		for i := range qs {
			got[i] = h.Edge(i).Items
		}
		assertSameConflictSets(t, "BuildHypergraph", qs, got, want)
		assertSameConflictSets(t, "ConflictSet", qs, conflictSets(t, set, qs), want)
		if wantStats == nil {
			wantStats = st
			if pairs := st.PrunedByCols + st.PrunedByPred + st.DeltaProbes + st.Fallbacks; pairs != len(qs)*size {
				t.Fatalf("Stats %+v account for %d pairs, want %d", *st, pairs, len(qs)*size)
			}
		} else if *st != *wantStats {
			t.Fatalf("K=%d: Stats %+v, want the single-shard %+v", k, *st, *wantStats)
		}
	}
	// Every shape must reach a verdict somewhere, or the set proves little.
	conflicting := map[string]bool{}
	for _, items := range want {
		for _, ni := range items {
			nb := ref.Neighbors[ni]
			shape := string(nb.Deltas[0].Op)
			if len(nb.Deltas) == 2 {
				shape = "two cells"
			}
			conflicting[shape] = true
		}
	}
	for _, shape := range []string{"", "two cells", string(relational.OpRowInsert), string(relational.OpRowDelete)} {
		if !conflicting[shape] {
			t.Errorf("no neighbor of shape %q conflicts with any query", shape)
		}
	}
}
