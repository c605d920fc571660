package plan

// Plans across a compaction epoch. A compaction carries no plan across:
// the successor recompiles each one on first use, and keeps maintaining
// it with Rebase from there. These tests pin that the chain Rebase →
// compaction → Compile → Rebase stays indistinguishable from a fresh
// compilation at every step.

import (
	"math/rand"
	"testing"

	"querypricing/internal/relational"
)

// compactCurrent compacts every table of db that has tombstones and
// returns the compacted snapshot, or nil when there is nothing to reclaim.
func compactCurrent(t *testing.T, db *relational.Database) *relational.Database {
	t.Helper()
	specs, err := db.PlanCompaction(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		return nil
	}
	newDB, _, err := db.Compact(specs)
	if err != nil {
		t.Fatal(err)
	}
	return newDB
}

// rebaseOrCompile applies changes and carries p onto the successor with
// Rebase, falling back to Compile when Rebase declines.
func rebaseOrCompile(t *testing.T, db *relational.Database, p *Plan, changes []CellChange) (*relational.Database, *Plan) {
	t.Helper()
	newDB := applyUpdate(t, db, changes)
	if np, ok := p.Rebase(newDB, changes, nil); ok {
		return newDB, np
	}
	np, err := Compile(newDB, p.Query())
	if err != nil {
		t.Fatalf("%s: recompile: %v", p.Query().Name, err)
	}
	return newDB, np
}

// assertMatchesCompile requires p to equal Compile on db: fingerprint,
// version, every single-cell probe decision, and random follow-up DML
// probes (checked against full re-evaluation as well).
func assertMatchesCompile(t *testing.T, rng *rand.Rand, db *relational.Database, p *Plan, label string) {
	t.Helper()
	fresh, err := Compile(db, p.Query())
	if err != nil {
		t.Fatalf("%s: compile: %v", label, err)
	}
	assertPlanEquivalent(t, db, p, fresh, label)
	for i := 0; i < 3; i++ {
		probe := randomDMLChanges(rng, db, 1+rng.Intn(3))
		if g, f := p.Probe(probe), fresh.Probe(probe); g != f {
			t.Fatalf("%s: DML probe %+v: maintained %v, fresh %v", label, probe, g, f)
		}
		checkProbeDML(t, db, p, probe)
	}
}

// TestCompactedRebaseChainMatchesCompile runs, for every test query, a
// scripted prefix and then chained random mixed DML with periodic
// compactions. Before an epoch the plan is maintained by Rebase; at the
// epoch it is compiled on the compacted database, whose answer (and so
// fingerprint) must not move; after it Rebase maintains it again.
//
// The scripted prefix covers a row that is inserted failing a filtered
// alias's predicate and later updated so it passes, both within one
// epoch and across one: the shape in which the scan-position map of a
// filtered alias is shorter than its table.
func TestCompactedRebaseChainMatchesCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	failing := func() CellChange {
		return relational.RowInsert("T", relational.Int(2), relational.Str("a"), relational.Int(1))
	}
	passN := func(row int) CellChange {
		return CellChange{Table: "T", Row: row, Col: 2, New: relational.Int(20)}
	}
	for _, q := range testQueries() {
		db := testDB()
		p, err := Compile(db, q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		step := func(label string, changes []CellChange) {
			t.Helper()
			db, p = rebaseOrCompile(t, db, p, changes)
			assertMatchesCompile(t, rng, db, p, q.Name+"/"+label)
		}
		epoch := func(label string) bool {
			t.Helper()
			cdb := compactCurrent(t, db)
			if cdb == nil {
				return false
			}
			np, err := Compile(cdb, q)
			if err != nil {
				t.Fatalf("%s/%s: compile on compacted: %v", q.Name, label, err)
			}
			if np.BaseFingerprint() != p.BaseFingerprint() {
				t.Fatalf("%s/%s: compaction moved the fingerprint %x -> %x",
					q.Name, label, p.BaseFingerprint(), np.BaseFingerprint())
			}
			db, p = cdb, np
			assertMatchesCompile(t, rng, db, p, q.Name+"/"+label)
			return true
		}

		// Within one epoch: slot 5 is born failing N > 8, then passes.
		step("insert-failing", []CellChange{failing()})
		step("update-passing", []CellChange{passN(5)})
		// Across an epoch: slot 6 is born failing, slot 1 dies, the
		// compaction moves slot 6 to 5, and only then does it pass.
		step("insert-failing-2", []CellChange{failing()})
		step("delete", []CellChange{relational.RowDelete("T", 1)})
		if !epoch("scripted-epoch") {
			t.Fatalf("%s: scripted delete left nothing to compact", q.Name)
		}
		step("update-passing-after-epoch", []CellChange{passN(5)})

		epochs := 1
		for trial := 0; trial < 30; trial++ {
			step("random", randomDMLChanges(rng, db, 1+rng.Intn(3)))
			if trial%4 == 3 && epoch("random-epoch") {
				epochs++
			}
		}
		if epochs < 3 {
			t.Errorf("%s: only %d epochs in the chain; suspicious", q.Name, epochs)
		}
	}
}
