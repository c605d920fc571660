package plan

import (
	"math/rand"
	"testing"

	"querypricing/internal/relational"
)

// testDB builds a small two-table database with duplicate join keys, NULLs
// and ties, exercising every decision path.
func testDB() *relational.Database {
	db := relational.NewDatabase()
	t := relational.NewTable(relational.NewSchema("T",
		relational.Column{Name: "K", Kind: relational.KindInt},
		relational.Column{Name: "V", Kind: relational.KindString},
		relational.Column{Name: "N", Kind: relational.KindInt},
	))
	t.Append(relational.Int(1), relational.Str("a"), relational.Int(10))
	t.Append(relational.Int(2), relational.Str("b"), relational.Int(20))
	t.Append(relational.Int(2), relational.Str("c"), relational.Int(20))
	t.Append(relational.Int(3), relational.Str("a"), relational.Null())
	t.Append(relational.Int(4), relational.Str("d"), relational.Int(5))
	db.AddTable(t)
	u := relational.NewTable(relational.NewSchema("U",
		relational.Column{Name: "K", Kind: relational.KindInt},
		relational.Column{Name: "W", Kind: relational.KindString},
	))
	u.Append(relational.Int(1), relational.Str("x"))
	u.Append(relational.Int(2), relational.Str("y"))
	u.Append(relational.Int(2), relational.Str("z"))
	u.Append(relational.Int(5), relational.Str("w"))
	db.AddTable(u)
	return db
}

func ref(t, c string) relational.ColRef { return relational.ColRef{Table: t, Col: c} }

func testQueries() []*relational.SelectQuery {
	gt := relational.Predicate{Col: ref("T", "N"), Op: relational.OpGt, Val: relational.Int(8)}
	return []*relational.SelectQuery{
		{Name: "star", Tables: []string{"T"}},
		{Name: "proj", Tables: []string{"T"}, Select: []relational.ColRef{ref("T", "V")}},
		{Name: "filtered", Tables: []string{"T"}, Where: []relational.Predicate{gt},
			Select: []relational.ColRef{ref("T", "K")}},
		{Name: "join", Tables: []string{"T", "U"},
			Joins:  []relational.JoinCond{{Left: ref("T", "K"), Right: ref("U", "K")}},
			Select: []relational.ColRef{ref("T", "V"), ref("U", "W")}},
		{Name: "join-filtered", Tables: []string{"T", "U"},
			Joins: []relational.JoinCond{{Left: ref("T", "K"), Right: ref("U", "K")}},
			Where: []relational.Predicate{gt}},
		{Name: "self-join", Tables: []string{"T", "T"}, Aliases: []string{"a", "b"},
			Joins:  []relational.JoinCond{{Left: ref("a", "V"), Right: ref("b", "V")}},
			Select: []relational.ColRef{ref("a", "K"), ref("b", "K")}},
		{Name: "distinct", Tables: []string{"T"}, Select: []relational.ColRef{ref("T", "V")}, Distinct: true},
		{Name: "limited", Tables: []string{"T"}, Limit: 2},
		{Name: "count-star", Tables: []string{"T"}, Where: []relational.Predicate{gt},
			Aggs: []relational.Agg{{Op: relational.AggCount}}},
		{Name: "count-col", Tables: []string{"T"},
			Aggs: []relational.Agg{{Op: relational.AggCount, Col: ref("T", "N")}}},
		{Name: "count-distinct", Tables: []string{"T"},
			Aggs: []relational.Agg{{Op: relational.AggCount, Col: ref("T", "V"), Distinct: true}}},
		{Name: "sum", Tables: []string{"T"},
			Aggs: []relational.Agg{{Op: relational.AggSum, Col: ref("T", "N")}}},
		{Name: "avg-grouped", Tables: []string{"T"}, GroupBy: []relational.ColRef{ref("T", "V")},
			Aggs: []relational.Agg{{Op: relational.AggAvg, Col: ref("T", "N")}}},
		{Name: "min", Tables: []string{"T"},
			Aggs: []relational.Agg{{Op: relational.AggMin, Col: ref("T", "N")}}},
		{Name: "max-grouped", Tables: []string{"T"}, GroupBy: []relational.ColRef{ref("T", "V")},
			Aggs: []relational.Agg{{Op: relational.AggMax, Col: ref("T", "N")}}},
		{Name: "count-grouped-join", Tables: []string{"T", "U"},
			Joins:   []relational.JoinCond{{Left: ref("T", "K"), Right: ref("U", "K")}},
			GroupBy: []relational.ColRef{ref("U", "W")},
			Aggs:    []relational.Agg{{Op: relational.AggCount, Col: ref("T", "V")}}},
	}
}

// applyChanges clones the database and patches the changed cells.
func applyChanges(db *relational.Database, changes []CellChange) *relational.Database {
	out := db.Clone()
	for _, c := range changes {
		out.Table(c.Table).Rows[c.Row][c.Col] = c.New
	}
	return out
}

// checkProbe asserts that a decisive probe outcome matches ground truth
// (full re-evaluation against the patched database).
func checkProbe(t *testing.T, db *relational.Database, p *Plan, changes []CellChange) {
	t.Helper()
	out := p.Probe(changes)
	if out == NeedFullEval {
		return // the fallback path is correct by construction
	}
	res, err := p.Query().Eval(applyChanges(db, changes))
	if err != nil {
		t.Fatalf("%s: full eval: %v", p.Query().Name, err)
	}
	truth := res.Fingerprint() != p.BaseFingerprint()
	if (out == Changed) != truth {
		t.Fatalf("%s: probe says %v, full evaluation says changed=%v for %+v",
			p.Query().Name, out, truth, changes)
	}
}

// candidateValues returns replacement values for a column, including NULL
// and values colliding with other rows.
func candidateValues(db *relational.Database, table string, col int) []relational.Value {
	t := db.Table(table)
	seen := map[string]bool{}
	var out []relational.Value
	for _, row := range t.Rows {
		if row == nil {
			continue // tombstoned slot (DML chains)
		}
		v := row[col]
		k := string(v.AppendEncode(nil))
		if !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	out = append(out, relational.Null(), relational.Int(99), relational.Str("zz"))
	return out
}

// TestProbeExhaustiveSingleDelta compares every decisive probe outcome with
// ground truth across every (cell, replacement) single-delta neighbor.
func TestProbeExhaustiveSingleDelta(t *testing.T) {
	db := testDB()
	for _, q := range testQueries() {
		p, err := Compile(db, q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		for _, table := range db.TableNames() {
			tab := db.Table(table)
			for ri := range tab.Rows {
				for ci := range tab.Schema.Cols {
					for _, nv := range candidateValues(db, table, ci) {
						checkProbe(t, db, p, []CellChange{{Table: table, Row: ri, Col: ci, New: nv}})
					}
				}
			}
		}
	}
}

// TestProbeRandomMultiDelta stresses multi-delta neighbors (including
// several changes to the same row and to both join sides).
func TestProbeRandomMultiDelta(t *testing.T) {
	db := testDB()
	rng := rand.New(rand.NewSource(11))
	plans := make([]*Plan, 0)
	for _, q := range testQueries() {
		p, err := Compile(db, q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		plans = append(plans, p)
	}
	names := db.TableNames()
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(3)
		var changes []CellChange
		for d := 0; d < n; d++ {
			table := names[rng.Intn(len(names))]
			tab := db.Table(table)
			ri := rng.Intn(tab.NumRows())
			ci := rng.Intn(len(tab.Schema.Cols))
			cands := candidateValues(db, table, ci)
			changes = append(changes, CellChange{
				Table: table, Row: ri, Col: ci, New: cands[rng.Intn(len(cands))],
			})
		}
		for _, p := range plans {
			checkProbe(t, db, p, changes)
		}
	}
}

// TestProbeUnusedColumnIsUnchanged pins the footprint-style skip inside the
// probe: a change to a column the query never reads is always Unchanged.
func TestProbeUnusedColumnIsUnchanged(t *testing.T) {
	db := testDB()
	q := &relational.SelectQuery{Name: "kv", Tables: []string{"T"},
		Select: []relational.ColRef{ref("T", "K")}}
	p, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Probe([]CellChange{{Table: "T", Row: 0, Col: 1, New: relational.Str("q")}})
	if got != Unchanged {
		t.Fatalf("probe on unused column = %v, want Unchanged", got)
	}
}

// TestProbeLimitFallsBack pins the LIMIT rule: any visible change forces a
// full re-evaluation because row order matters.
func TestProbeLimitFallsBack(t *testing.T) {
	db := testDB()
	q := &relational.SelectQuery{Name: "lim", Tables: []string{"T"}, Limit: 2}
	p, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Probe([]CellChange{{Table: "T", Row: 0, Col: 0, New: relational.Int(7)}})
	if got != NeedFullEval {
		t.Fatalf("probe on LIMIT query = %v, want NeedFullEval", got)
	}
}

// TestLocallyPruned pins pruning rule 2 on the compiled plan.
func TestLocallyPruned(t *testing.T) {
	db := testDB()
	q := &relational.SelectQuery{Name: "hi", Tables: []string{"T"},
		Where:  []relational.Predicate{{Col: ref("T", "N"), Op: relational.OpGt, Val: relational.Int(15)}},
		Select: []relational.ColRef{ref("T", "V")}}
	p, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 has N=10: invisible before, and V=zz keeps it invisible after.
	if !p.LocallyPruned([]CellChange{{Table: "T", Row: 0, Col: 1, New: relational.Str("zz")}}) {
		t.Fatal("change to an invisible row should be pruned")
	}
	// Row 1 has N=20: visible, so a V change is not pruned.
	if p.LocallyPruned([]CellChange{{Table: "T", Row: 1, Col: 1, New: relational.Str("zz")}}) {
		t.Fatal("change to a visible row must not be pruned")
	}
	// Row 0's N raised to 30 makes it visible after the change.
	if p.LocallyPruned([]CellChange{{Table: "T", Row: 0, Col: 2, New: relational.Int(30)}}) {
		t.Fatal("change making a row visible must not be pruned")
	}
}

// cyclicDB builds three tables joined in a cycle with cross-kind (Int vs
// Float) join values: Eval hash-probes the first condition binding each
// alias (encoding equality) and checks the rest with coercing Equal, so a
// probe that swaps those roles decides cross-kind ties wrongly.
func cyclicDB() *relational.Database {
	db := relational.NewDatabase()
	t0 := relational.NewTable(relational.NewSchema("T0",
		relational.Column{Name: "x", Kind: relational.KindInt},
		relational.Column{Name: "y", Kind: relational.KindInt},
	))
	t0.Append(relational.Int(1), relational.Int(5))
	t0.Append(relational.Int(2), relational.Float(5))
	db.AddTable(t0)
	t1 := relational.NewTable(relational.NewSchema("T1",
		relational.Column{Name: "x", Kind: relational.KindInt},
		relational.Column{Name: "z", Kind: relational.KindInt},
	))
	t1.Append(relational.Int(1), relational.Int(7))
	t1.Append(relational.Int(2), relational.Int(7))
	db.AddTable(t1)
	t2 := relational.NewTable(relational.NewSchema("T2",
		relational.Column{Name: "y", Kind: relational.KindFloat},
		relational.Column{Name: "z", Kind: relational.KindInt},
	))
	t2.Append(relational.Float(5), relational.Int(7))
	t2.Append(relational.Float(6), relational.Int(7))
	db.AddTable(t2)
	return db
}

// TestProbeCyclicJoinRoles pins that delta probes honor Eval's per-
// condition comparison roles on cyclic join graphs: T0.y = T2.y is a
// residual (coercing Equal, so Int(5) matches Float(5)) even when a
// program traverses it, and T1.z = T2.z stays a hash condition from
// either direction.
func TestProbeCyclicJoinRoles(t *testing.T) {
	db := cyclicDB()
	q := &relational.SelectQuery{
		Name:   "cycle",
		Tables: []string{"T0", "T1", "T2"},
		Joins: []relational.JoinCond{
			{Left: ref("T1", "z"), Right: ref("T2", "z")},
			{Left: ref("T0", "x"), Right: ref("T1", "x")},
			{Left: ref("T0", "y"), Right: ref("T2", "y")},
		},
	}
	p, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	// Base result: T0 row 0 (y=Int 5) joins T2 row 0 (y=Float 5) through
	// the coercing residual. Retargeting T2's z breaks the join: Changed.
	broke := []CellChange{{Table: "T2", Row: 0, Col: 1, New: relational.Int(8)}}
	if got := p.Probe(broke); got != Changed {
		t.Fatalf("breaking the cyclic join = %v, want Changed", got)
	}
	// Exhaustive sweep against ground truth.
	for _, table := range db.TableNames() {
		tab := db.Table(table)
		for ri := range tab.Rows {
			for ci := range tab.Schema.Cols {
				for _, nv := range candidateValues(db, table, ci) {
					checkProbe(t, db, p, []CellChange{{Table: table, Row: ri, Col: ci, New: nv}})
				}
			}
		}
	}
}

// TestProbeCyclicJoinExtrasBeforeProbe pins that a residual condition
// listed before the hash condition that binds the same alias is not lost
// when the probe step is assembled: with Joins ordered [T0.y=T2.y,
// T1.z=T2.z, T0.x=T1.x], the residual T1.z=T2.z is encountered before the
// probe condition while binding T1 in programs starting at T2.
func TestProbeCyclicJoinExtrasBeforeProbe(t *testing.T) {
	db := cyclicDB()
	q := &relational.SelectQuery{
		Name:   "cycle-reordered",
		Tables: []string{"T0", "T1", "T2"},
		Joins: []relational.JoinCond{
			{Left: ref("T0", "y"), Right: ref("T2", "y")},
			{Left: ref("T1", "z"), Right: ref("T2", "z")},
			{Left: ref("T0", "x"), Right: ref("T1", "x")},
		},
	}
	p, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range db.TableNames() {
		tab := db.Table(table)
		for ri := range tab.Rows {
			for ci := range tab.Schema.Cols {
				for _, nv := range candidateValues(db, table, ci) {
					checkProbe(t, db, p, []CellChange{{Table: table, Row: ri, Col: ci, New: nv}})
				}
			}
		}
	}
}

// TestCacheSharesAndBounds pins the plan cache: structurally identical
// queries share one plan, and the LRU evicts beyond its bound.
func TestCacheSharesAndBounds(t *testing.T) {
	db := testDB()
	c := NewCache(db, 3)
	q1 := &relational.SelectQuery{Name: "first", Tables: []string{"T"}}
	q2 := &relational.SelectQuery{Name: "second", Tables: []string{"T"}} // same SQL
	p1, fresh1, err := c.Get(q1)
	if err != nil || !fresh1 {
		t.Fatalf("first Get: fresh=%v err=%v", fresh1, err)
	}
	p2, fresh2, err := c.Get(q2)
	if err != nil || fresh2 {
		t.Fatalf("second Get should hit the cache: fresh=%v err=%v", fresh2, err)
	}
	if p1 != p2 {
		t.Fatal("structurally identical queries must share a plan")
	}
	for i := 0; i < 5; i++ {
		q := &relational.SelectQuery{Name: "lim", Tables: []string{"T"}, Limit: i + 1}
		if _, _, err := c.Get(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Len(); got != 3 {
		t.Fatalf("cache len = %d, want its bound 3", got)
	}
}

// TestCompileErrorsMatchEval pins that Compile rejects what Eval rejects.
func TestCompileErrorsMatchEval(t *testing.T) {
	db := testDB()
	bad := []*relational.SelectQuery{
		{Name: "no-tables"},
		{Name: "unknown-table", Tables: []string{"Nope"}},
		{Name: "cross-join", Tables: []string{"T", "U"}},
		{Name: "bad-col", Tables: []string{"T"}, Select: []relational.ColRef{ref("T", "Nope")}},
	}
	for _, q := range bad {
		if _, err := Compile(db, q); err == nil {
			t.Fatalf("%s: Compile accepted a query Eval rejects", q.Name)
		}
	}
}

func BenchmarkProbeSingleDelta(b *testing.B) {
	db := testDB()
	for _, q := range testQueries()[:6] {
		p, err := Compile(db, q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.Name, func(b *testing.B) {
			b.ReportAllocs()
			ch := []CellChange{{Table: "T", Row: 1, Col: 1, New: relational.Str("q")}}
			for i := 0; i < b.N; i++ {
				p.Probe(ch)
			}
		})
	}
}
