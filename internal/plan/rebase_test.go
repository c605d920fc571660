package plan

import (
	"math/rand"
	"testing"

	"querypricing/internal/relational"
)

// applyUpdate is the ground-truth update: a fresh snapshot via Apply.
func applyUpdate(t testing.TB, db *relational.Database, changes []CellChange) *relational.Database {
	t.Helper()
	out, err := db.Apply(changes)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	return out
}

// assertPlanEquivalent checks a rebased plan against a fresh compilation on
// the same snapshot: identical base fingerprint, identical probe outcomes
// across every single-delta neighbor, identical version stamp.
func assertPlanEquivalent(t *testing.T, db *relational.Database, got, fresh *Plan, label string) {
	t.Helper()
	if got.BaseFingerprint() != fresh.BaseFingerprint() {
		t.Fatalf("%s: rebased fingerprint %x != fresh %x", label, got.BaseFingerprint(), fresh.BaseFingerprint())
	}
	if got.Version() != db.Version() {
		t.Fatalf("%s: rebased version %d != db version %d", label, got.Version(), db.Version())
	}
	for _, table := range db.TableNames() {
		tab := db.Table(table)
		for ri := range tab.Rows {
			if !tab.Alive(ri) {
				continue // dead slots take no cell deltas
			}
			for ci := range tab.Schema.Cols {
				for _, nv := range candidateValues(db, table, ci) {
					ch := []CellChange{{Table: table, Row: ri, Col: ci, New: nv}}
					g, f := got.Probe(ch), fresh.Probe(ch)
					if g != f {
						t.Fatalf("%s: probe %+v: rebased %v, fresh %v", label, ch, g, f)
					}
					// Decisive outcomes must also match ground truth.
					checkProbe(t, db, got, ch)
				}
			}
		}
	}
}

// randomChanges draws a random update batch against db, restricted to
// values Apply admits: NULL, or the column's declared kind. Cells are
// distinct within the batch (Apply rejects duplicate-cell batches).
func randomChanges(rng *rand.Rand, db *relational.Database, n int) []CellChange {
	names := db.TableNames()
	var out []CellChange
	used := make(map[[3]interface{}]bool, n)
	for len(out) < n {
		table := names[rng.Intn(len(names))]
		tab := db.Table(table)
		ri := rng.Intn(tab.NumRows())
		ci := rng.Intn(len(tab.Schema.Cols))
		if !tab.Alive(ri) || used[[3]interface{}{table, ri, ci}] {
			continue
		}
		var cands []relational.Value
		for _, v := range candidateValues(db, table, ci) {
			if v.IsNull() || v.K == tab.Schema.Cols[ci].Kind {
				cands = append(cands, v)
			}
		}
		if len(cands) == 0 {
			continue
		}
		used[[3]interface{}{table, ri, ci}] = true
		out = append(out, CellChange{Table: table, Row: ri, Col: ci, New: cands[rng.Intn(len(cands))]})
	}
	return out
}

// TestRebaseMatchesRecompile is the central live-update property at the
// plan layer: whenever Rebase claims success, the rebased plan is
// indistinguishable from a fresh compilation against the updated database —
// same fingerprint, same probe decisions — across random update batches on
// every query shape, including repeated chained updates.
func TestRebaseMatchesRecompile(t *testing.T) {
	baseDB := testDB()
	rng := rand.New(rand.NewSource(7))
	for _, q := range testQueries() {
		db := baseDB
		p, err := Compile(db, q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		rebases := 0
		for trial := 0; trial < 60; trial++ {
			changes := randomChanges(rng, db, 1+rng.Intn(3))
			newDB := applyUpdate(t, db, changes)
			fresh, err := Compile(newDB, q)
			if err != nil {
				t.Fatalf("%s: recompile: %v", q.Name, err)
			}
			np, ok := p.Rebase(newDB, changes, nil)
			if !ok {
				// Invalidated: recompiling is always sound. Chain from the
				// fresh plan so later trials keep exercising Rebase.
				db, p = newDB, fresh
				continue
			}
			rebases++
			if trial%7 == 0 { // the exhaustive check is expensive; sample it
				assertPlanEquivalent(t, newDB, np, fresh, q.Name)
			} else if np.BaseFingerprint() != fresh.BaseFingerprint() {
				t.Fatalf("%s trial %d: rebased fingerprint %x != fresh %x (changes %+v)",
					q.Name, trial, np.BaseFingerprint(), fresh.BaseFingerprint(), changes)
			}
			db, p = newDB, np // chain: next update rebases the rebased plan
		}
		if q.Limit == 0 && rebases == 0 {
			t.Fatalf("%s: no update batch was ever delta-maintained; suspicious", q.Name)
		}
	}
}

// TestRebaseLimitAndDisconnected pins the unconditional invalidation
// cases: LIMIT plans (order-sensitive output) always recompile.
func TestRebaseLimitAndDisconnected(t *testing.T) {
	db := testDB()
	q := &relational.SelectQuery{Name: "lim", Tables: []string{"T"}, Limit: 2}
	p, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	changes := []CellChange{{Table: "T", Row: 0, Col: 0, New: relational.Int(9)}}
	newDB := applyUpdate(t, db, changes)
	if _, ok := p.Rebase(newDB, changes, nil); ok {
		t.Fatal("LIMIT plan must invalidate on update")
	}
}

// TestRebaseUntouchedQueryIsShared pins the cheapest path: an update that
// never touches the query's tables re-stamps the plan without rebuilding
// anything.
func TestRebaseUntouchedQueryIsShared(t *testing.T) {
	db := testDB()
	q := &relational.SelectQuery{Name: "t-only", Tables: []string{"T"},
		Select: []relational.ColRef{ref("T", "V")}}
	p, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	changes := []CellChange{{Table: "U", Row: 0, Col: 1, New: relational.Str("q")}}
	newDB := applyUpdate(t, db, changes)
	np, ok := p.Rebase(newDB, changes, nil)
	if !ok {
		t.Fatal("update to an unrelated table must rebase")
	}
	if np.BaseFingerprint() != p.BaseFingerprint() {
		t.Fatal("fingerprint changed without a relevant update")
	}
	if np.Version() != newDB.Version() {
		t.Fatalf("version = %d, want %d", np.Version(), newDB.Version())
	}
	if np.aliases[0] != p.aliases[0] {
		t.Fatal("untouched alias must be shared structurally")
	}
}

// TestRebaseThroughPoolAndCache drives the cache-level update path:
// Cache.Advance, advancing the cache's pool with it, defers all plan
// maintenance to first use, and the lazily upgraded plans must be
// equivalent to fresh compilations against the new snapshot while the old
// cache keeps serving the old snapshot.
func TestRebaseThroughPoolAndCache(t *testing.T) {
	db := testDB()
	cache := NewCache(db, 8)
	queries := testQueries()
	for _, q := range queries {
		if _, _, err := cache.Get(q); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
	}
	changes := []CellChange{
		{Table: "T", Row: 1, Col: 0, New: relational.Int(5)}, // join key retarget
		{Table: "U", Row: 3, Col: 0, New: relational.Int(2)},
		{Table: "T", Row: 4, Col: 2, New: relational.Int(25)}, // predicate flip
	}
	newDB := applyUpdate(t, db, changes)
	newCache, ast := cache.Advance(newDB, changes)
	if ast.Deferred != cache.Len() {
		t.Fatalf("Advance deferred %d plans, want all %d", ast.Deferred, cache.Len())
	}
	if stale := newCache.StaleLen(); stale != ast.Deferred {
		t.Fatalf("StaleLen = %d after Advance, want %d", stale, ast.Deferred)
	}
	for _, q := range queries {
		np, fresh, err := newCache.Get(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		ref, err := Compile(newDB, q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if np.BaseFingerprint() != ref.BaseFingerprint() {
			t.Fatalf("%s (fresh=%v): cache served fingerprint %x, want %x",
				q.Name, fresh, np.BaseFingerprint(), ref.BaseFingerprint())
		}
		if np.Version() != newDB.Version() {
			t.Fatalf("%s: lazily upgraded plan at version %d, want %d", q.Name, np.Version(), newDB.Version())
		}
		// The old cache still serves plans for the old snapshot.
		op, _, err := cache.Get(q)
		if err != nil {
			t.Fatalf("%s: old cache: %v", q.Name, err)
		}
		oldRef, err := Compile(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if op.BaseFingerprint() != oldRef.BaseFingerprint() {
			t.Fatalf("%s: old cache corrupted by Advance", q.Name)
		}
	}
	if stale := newCache.StaleLen(); stale != 0 {
		t.Fatalf("StaleLen = %d after touching every entry, want 0", stale)
	}
}

// TestMinMaxTieDecisionsAreExact pins the closed ROADMAP item: tie deaths
// and births on MIN/MAX — including cross-kind Int/Float ties — decide
// exactly instead of falling back to full re-evaluation.
func TestMinMaxTieDecisionsAreExact(t *testing.T) {
	db := relational.NewDatabase()
	tab := relational.NewTable(relational.NewSchema("V",
		relational.Column{Name: "g", Kind: relational.KindString},
		relational.Column{Name: "x", Kind: relational.KindFloat},
	))
	tab.Append(relational.Str("a"), relational.Int(3)) // canonical min: Int(3)
	tab.Append(relational.Str("a"), relational.Float(3))
	tab.Append(relational.Str("a"), relational.Float(7))
	tab.Append(relational.Str("b"), relational.Int(5))
	db.AddTable(tab)
	q := &relational.SelectQuery{Name: "min", Tables: []string{"V"},
		GroupBy: []relational.ColRef{ref("V", "g")},
		Aggs:    []relational.Agg{{Op: relational.AggMin, Col: ref("V", "x")}}}
	p, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ch   CellChange
		want Outcome
	}{
		// Removing the Float(3) tie mate leaves the reported Int(3) min.
		{"tie-mate-death", CellChange{Table: "V", Row: 1, Col: 1, New: relational.Float(9)}, Unchanged},
		// Removing the reported Int(3) changes the answer (Float(3) takes over).
		{"reported-death", CellChange{Table: "V", Row: 0, Col: 1, New: relational.Float(9)}, Changed},
		// A new Int(3) tie birth only bumps multiplicity.
		{"tie-birth", CellChange{Table: "V", Row: 2, Col: 1, New: relational.Int(3)}, Unchanged},
		// A Float(5) tie birth against group b's Int(5) keeps Int reported.
		{"cross-kind-birth", CellChange{Table: "V", Row: 2, Col: 1, New: relational.Float(7)}, Unchanged},
	}
	for _, tc := range cases {
		got := p.Probe([]CellChange{tc.ch})
		if got != tc.want {
			t.Errorf("%s: probe = %v, want %v", tc.name, got, tc.want)
		}
		checkProbe(t, db, p, []CellChange{tc.ch})
	}
}

// TestRebasedRule2ReadsEachAliasRow pins rule 2 on a rebased self-join. A
// base update moves a row out of alias b's scan by changing a column alias
// a never reads, so the rebase shares a with the predecessor's rows. A
// neighbor writing that row must then get the same verdict, attribution
// included, from the rebased plan as from a fresh compile: each alias's
// predicates read that alias's own base row.
func TestRebasedRule2ReadsEachAliasRow(t *testing.T) {
	s := relational.NewTable(relational.NewSchema("S",
		relational.Column{Name: "K", Kind: relational.KindInt},
		relational.Column{Name: "V", Kind: relational.KindInt},
		relational.Column{Name: "W", Kind: relational.KindInt},
		relational.Column{Name: "X", Kind: relational.KindInt},
	))
	s.Append(relational.Int(1), relational.Int(10), relational.Int(1), relational.Int(1))
	s.Append(relational.Int(1), relational.Int(10), relational.Int(2), relational.Int(2))
	db := relational.NewDatabase()
	db.AddTable(s)
	q := &relational.SelectQuery{Name: "self-join", Tables: []string{"S", "S"}, Aliases: []string{"a", "b"},
		Joins:  []relational.JoinCond{{Left: ref("a", "K"), Right: ref("b", "K")}},
		Where:  []relational.Predicate{{Col: ref("b", "V"), Op: relational.OpGe, Val: relational.Int(5)}},
		Select: []relational.ColRef{ref("b", "W"), ref("b", "X")}}
	p, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	upd := []CellChange{{Table: "S", Row: 0, Col: 1, New: relational.Int(1)}} // row 0 leaves b's scan
	next, err := db.Apply(upd)
	if err != nil {
		t.Fatal(err)
	}
	rebased, ok := p.Rebase(next, upd, nil)
	if !ok {
		t.Fatal("rebase refused a cell update")
	}
	if rebased.aliases[0] != p.aliases[0] {
		t.Fatal("fixture: alias a should be shared across the rebase")
	}
	fresh, err := Compile(next, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range [][]CellChange{
		{{Table: "S", Row: 0, Col: 2, New: relational.Int(7)}},
		{{Table: "S", Row: 0, Col: 2, New: relational.Int(7)}, {Table: "S", Row: 0, Col: 3, New: relational.Int(7)}},
	} {
		got, want := rebased.ProbeDelta(nb), fresh.ProbeDelta(nb)
		if got != want || !want.InputUntouched {
			t.Fatalf("%+v: rebased plan %+v, fresh compile %+v (want input untouched)", nb, got, want)
		}
	}
}
