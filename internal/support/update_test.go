package support_test

// Live-update equivalence at the support layer: advancing a set onto an
// updated base database (Set.Advance) must produce conflict sets
// byte-identical to a set literally constructed over the updated database
// with the same neighbors — across all four workloads, every shard count,
// and chained random update sequences — while the original set keeps
// serving the original snapshot.

import (
	"math/rand"
	"runtime"
	"testing"

	"querypricing/internal/relational"
	"querypricing/internal/support"
)

// randomUpdate draws an update batch whose values come from the column's
// active domain (plus the occasional NULL), mirroring live traffic. Cells
// are distinct within the batch and target live rows only, honoring
// Apply's batch rules.
func randomUpdate(rng *rand.Rand, db *relational.Database, n int) []support.Delta {
	names := db.TableNames()
	var out []support.Delta
	used := make(map[[3]interface{}]bool, n)
	for len(out) < n {
		tn := names[rng.Intn(len(names))]
		t := db.Table(tn)
		row, col := rng.Intn(t.NumRows()), rng.Intn(len(t.Schema.Cols))
		if !t.Alive(row) || used[[3]interface{}{tn, row, col}] {
			continue
		}
		if rng.Intn(10) == 0 {
			used[[3]interface{}{tn, row, col}] = true
			out = append(out, support.Delta{Table: tn, Row: row, Col: col, New: relational.Null()})
			continue
		}
		domain := db.ActiveDomain(tn, t.Schema.Cols[col].Name)
		if len(domain) == 0 {
			continue
		}
		used[[3]interface{}{tn, row, col}] = true
		out = append(out, support.Delta{
			Table: tn, Row: row, Col: col, New: domain[rng.Intn(len(domain))],
		})
	}
	return out
}

func conflictSets(t *testing.T, set *support.Set, qs []*relational.SelectQuery) [][]int {
	t.Helper()
	out := make([][]int, len(qs))
	for i, q := range qs {
		items, err := support.ConflictSet(set, q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		out[i] = items
	}
	return out
}

func assertSameConflictSets(t *testing.T, label string, qs []*relational.SelectQuery, got, want [][]int) {
	t.Helper()
	for i := range qs {
		g, w := got[i], want[i]
		if len(g) != len(w) {
			t.Fatalf("%s: query %s: conflict set %v, want %v", label, qs[i].Name, g, w)
		}
		for k := range g {
			if g[k] != w[k] {
				t.Fatalf("%s: query %s: conflict set %v, want %v", label, qs[i].Name, g, w)
			}
		}
	}
}

// TestAdvanceMatchesFreshSet is the central live-update equivalence
// property: after a chain of random update batches, the advanced set's
// conflict sets equal those of a literal fresh Set over the final
// database, for every workload and shard count — and the pre-update set
// still answers for the pre-update snapshot.
func TestAdvanceMatchesFreshSet(t *testing.T) {
	ks := []int{1, 2, runtime.NumCPU()}
	for _, w := range equivalenceWorkloads {
		w := w
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			db, qs := equivalenceScenario(t, w)
			rng := rand.New(rand.NewSource(int64(len(w)) * 31))
			for _, k := range ks {
				set := generateSharded(t, db, 50, 7, 2, k)
				baseline := conflictSets(t, set, qs) // warms every plan cache
				cur, curDB := set, db
				for round := 0; round < 3; round++ {
					changes := randomUpdate(rng, curDB, 1+rng.Intn(8))
					newDB, err := curDB.Apply(changes)
					if err != nil {
						t.Fatal(err)
					}
					adv, stats := cur.Advance(newDB, changes)
					if round == 0 && stats.PlansDeferred == 0 {
						t.Fatalf("K=%d: warmed caches but no plan maintenance was deferred", k)
					}
					fresh := &support.Set{DB: newDB, Neighbors: set.Neighbors, Shards: k}
					assertSameConflictSets(t, w, qs,
						conflictSets(t, adv, qs), conflictSets(t, fresh, qs))
					cur, curDB = adv, newDB
				}
				// The original set still serves the original snapshot.
				assertSameConflictSets(t, w+"/old-snapshot", qs, conflictSets(t, set, qs), baseline)
			}
		})
	}
}

// TestAdvanceNeutralizedNeighbor pins the vacuous-delta semantics: when an
// update sets a base cell to exactly a neighbor's delta value, that
// neighbor stops conflicting — on the advanced set just as on a fresh one.
func TestAdvanceNeutralizedNeighbor(t *testing.T) {
	db, qs := equivalenceScenario(t, "skewed")
	set := generateSharded(t, db, 60, 3, 1, 2)
	// Find a (query, neighbor) conflict to neutralize.
	var q *relational.SelectQuery
	var nb *support.Neighbor
	for _, cand := range qs {
		items, err := support.ConflictSet(set, cand)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) > 0 {
			q = cand
			nb = &set.Neighbors[items[0]]
			break
		}
	}
	if q == nil {
		t.Skip("no conflicting pair in this scenario")
	}
	changes := append([]support.Delta(nil), nb.Deltas...)
	newDB, err := db.Apply(changes)
	if err != nil {
		t.Fatal(err)
	}
	adv, _ := set.Advance(newDB, changes)
	fresh := &support.Set{DB: newDB, Neighbors: set.Neighbors, Shards: 2}
	got, err := support.ConflictSet(adv, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := support.ConflictSet(fresh, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameConflictSets(t, "neutralized", []*relational.SelectQuery{q}, [][]int{got}, [][]int{want})
}

// TestAdvanceBeforeFirstUse advances a set whose plan cache has never
// been used, then quotes the predecessor before the successor. Both must
// keep answering for their own snapshot: the predecessor's first use must
// not rebind a cache lineage the successor folds its plans through.
func TestAdvanceBeforeFirstUse(t *testing.T) {
	db, qs := equivalenceScenario(t, "skewed")
	rng := rand.New(rand.NewSource(29))
	for _, k := range []int{1, 2} {
		base := generateSharded(t, db, 60, 5, 1, k)
		changes := randomUpdate(rng, db, 8)
		newDB, err := db.Apply(changes)
		if err != nil {
			t.Fatal(err)
		}
		next, _ := base.Advance(newDB, changes)
		assertSameConflictSets(t, "predecessor", qs, conflictSets(t, base, qs),
			conflictSets(t, &support.Set{DB: db, Neighbors: base.Neighbors, Shards: k}, qs))
		assertSameConflictSets(t, "successor", qs, conflictSets(t, next, qs),
			conflictSets(t, &support.Set{DB: newDB, Neighbors: base.Neighbors, Shards: k}, qs))
	}
}
