package relational

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func sampleDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	country := NewTable(NewSchema("Country",
		Column{"Code", KindString},
		Column{"Name", KindString},
		Column{"Continent", KindString},
		Column{"Population", KindInt},
	))
	country.Append(Str("USA"), Str("United States"), Str("North America"), Int(331000000))
	country.Append(Str("GRC"), Str("Greece"), Str("Europe"), Int(10700000))
	country.Append(Str("FRA"), Str("France"), Str("Europe"), Int(67000000))
	country.Append(Str("JPN"), Str("Japan"), Str("Asia"), Int(125000000))
	db.AddTable(country)

	city := NewTable(NewSchema("City",
		Column{"ID", KindInt},
		Column{"Name", KindString},
		Column{"CountryCode", KindString},
		Column{"Population", KindInt},
	))
	city.Append(Int(1), Str("New York"), Str("USA"), Int(8400000))
	city.Append(Int(2), Str("Athens"), Str("GRC"), Int(660000))
	city.Append(Int(3), Str("Paris"), Str("FRA"), Int(2100000))
	city.Append(Int(4), Str("Lyon"), Str("FRA"), Int(520000))
	city.Append(Int(5), Str("Tokyo"), Str("JPN"), Int(13900000))
	db.AddTable(city)
	return db
}

func mustEval(t *testing.T, db *Database, q *SelectQuery) *Result {
	t.Helper()
	r, err := q.Eval(db)
	if err != nil {
		t.Fatalf("Eval(%s): %v", q, err)
	}
	return r
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Float(3), 0},
		{Float(2.5), Int(2), 1},
		{Str("a"), Str("b"), -1},
		{Null(), Int(0), -1},
		{Null(), Null(), 0},
		{Int(5), Str("5"), -1}, // numbers sort before strings
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueEncodeInjective(t *testing.T) {
	f := func(a, b int64, s1, s2 string) bool {
		va, vb := Int(a), Int(b)
		if a != b && string(va.AppendEncode(nil)) == string(vb.AppendEncode(nil)) {
			return false
		}
		sa, sb := Str(s1), Str(s2)
		if s1 != s2 && string(sa.AppendEncode(nil)) == string(sb.AppendEncode(nil)) {
			return false
		}
		// Ints and strings never collide.
		return string(va.AppendEncode(nil)) != string(sa.AppendEncode(nil))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelectStar(t *testing.T) {
	db := sampleDB(t)
	r := mustEval(t, db, &SelectQuery{Name: "all", Tables: []string{"Country"}})
	if len(r.Rows) != 4 || len(r.Cols) != 4 {
		t.Fatalf("got %dx%d, want 4x4", len(r.Rows), len(r.Cols))
	}
}

func TestPredicateOps(t *testing.T) {
	db := sampleDB(t)
	count := func(p Predicate) int {
		r := mustEval(t, db, &SelectQuery{Tables: []string{"Country"}, Where: []Predicate{p}})
		return len(r.Rows)
	}
	cc := ColRef{"Country", "Continent"}
	pop := ColRef{"Country", "Population"}
	name := ColRef{"Country", "Name"}
	if got := count(Predicate{Col: cc, Op: OpEq, Val: Str("Europe")}); got != 2 {
		t.Errorf("Eq: %d, want 2", got)
	}
	if got := count(Predicate{Col: cc, Op: OpNe, Val: Str("Europe")}); got != 2 {
		t.Errorf("Ne: %d, want 2", got)
	}
	if got := count(Predicate{Col: pop, Op: OpGt, Val: Int(100000000)}); got != 2 {
		t.Errorf("Gt: %d, want 2", got)
	}
	if got := count(Predicate{Col: pop, Op: OpLe, Val: Int(67000000)}); got != 2 {
		t.Errorf("Le: %d, want 2", got)
	}
	if got := count(Predicate{Col: pop, Op: OpBetween, Val: Int(10000000), Val2: Int(70000000)}); got != 2 {
		t.Errorf("Between: %d, want 2", got)
	}
	if got := count(Predicate{Col: name, Op: OpLikePrefix, Val: Str("J")}); got != 1 {
		t.Errorf("LikePrefix: %d, want 1", got)
	}
	if got := count(Predicate{Col: cc, Op: OpIn, Set: []Value{Str("Asia"), Str("Europe")}}); got != 3 {
		t.Errorf("In: %d, want 3", got)
	}
}

func TestProjectionDistinctLimit(t *testing.T) {
	db := sampleDB(t)
	r := mustEval(t, db, &SelectQuery{
		Tables:   []string{"Country"},
		Select:   []ColRef{{"Country", "Continent"}},
		Distinct: true,
	})
	if len(r.Rows) != 3 {
		t.Fatalf("distinct continents = %d, want 3", len(r.Rows))
	}
	r = mustEval(t, db, &SelectQuery{
		Tables: []string{"Country"},
		Select: []ColRef{{"Country", "Name"}},
		Limit:  2,
	})
	if len(r.Rows) != 2 {
		t.Fatalf("limit 2 returned %d rows", len(r.Rows))
	}
}

func TestScalarAggregates(t *testing.T) {
	db := sampleDB(t)
	r := mustEval(t, db, &SelectQuery{
		Tables: []string{"Country"},
		Aggs: []Agg{
			{Op: AggCount},
			{Op: AggSum, Col: ColRef{"Country", "Population"}},
			{Op: AggAvg, Col: ColRef{"Country", "Population"}},
			{Op: AggMin, Col: ColRef{"Country", "Population"}},
			{Op: AggMax, Col: ColRef{"Country", "Population"}},
		},
	})
	if len(r.Rows) != 1 {
		t.Fatalf("scalar agg rows = %d, want 1", len(r.Rows))
	}
	row := r.Rows[0]
	if row[0].I != 4 {
		t.Errorf("count = %v, want 4", row[0])
	}
	wantSum := float64(331000000 + 10700000 + 67000000 + 125000000)
	if row[1].F != wantSum {
		t.Errorf("sum = %v, want %g", row[1], wantSum)
	}
	if row[2].F != wantSum/4 {
		t.Errorf("avg = %v, want %g", row[2], wantSum/4)
	}
	if row[3].I != 10700000 || row[4].I != 331000000 {
		t.Errorf("min/max = %v/%v", row[3], row[4])
	}
}

func TestScalarAggregateEmptyInput(t *testing.T) {
	db := sampleDB(t)
	r := mustEval(t, db, &SelectQuery{
		Tables: []string{"Country"},
		Where:  []Predicate{{Col: ColRef{"Country", "Continent"}, Op: OpEq, Val: Str("Atlantis")}},
		Aggs:   []Agg{{Op: AggCount}, {Op: AggAvg, Col: ColRef{"Country", "Population"}}},
	})
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(r.Rows))
	}
	if r.Rows[0][0].I != 0 {
		t.Errorf("count = %v, want 0", r.Rows[0][0])
	}
	if !r.Rows[0][1].IsNull() {
		t.Errorf("avg over empty = %v, want NULL", r.Rows[0][1])
	}
}

func TestGroupBy(t *testing.T) {
	db := sampleDB(t)
	r := mustEval(t, db, &SelectQuery{
		Tables:  []string{"Country"},
		GroupBy: []ColRef{{"Country", "Continent"}},
		Aggs:    []Agg{{Op: AggCount, Col: ColRef{"Country", "Code"}}},
	})
	if len(r.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(r.Rows))
	}
	// Sorted by group key: Asia, Europe, North America.
	if r.Rows[0][0].S != "Asia" || r.Rows[0][1].I != 1 {
		t.Errorf("row 0 = %v", r.Rows[0])
	}
	if r.Rows[1][0].S != "Europe" || r.Rows[1][1].I != 2 {
		t.Errorf("row 1 = %v", r.Rows[1])
	}
}

func TestCountDistinct(t *testing.T) {
	db := sampleDB(t)
	r := mustEval(t, db, &SelectQuery{
		Tables: []string{"Country"},
		Aggs:   []Agg{{Op: AggCount, Col: ColRef{"Country", "Continent"}, Distinct: true}},
	})
	if r.Rows[0][0].I != 3 {
		t.Fatalf("count distinct = %v, want 3", r.Rows[0][0])
	}
}

func TestJoin(t *testing.T) {
	db := sampleDB(t)
	r := mustEval(t, db, &SelectQuery{
		Tables: []string{"Country", "City"},
		Joins:  []JoinCond{{Left: ColRef{"Country", "Code"}, Right: ColRef{"City", "CountryCode"}}},
		Where:  []Predicate{{Col: ColRef{"Country", "Continent"}, Op: OpEq, Val: Str("Europe")}},
		Select: []ColRef{{"City", "Name"}},
	})
	if len(r.Rows) != 3 {
		t.Fatalf("European cities = %d, want 3 (Athens, Paris, Lyon)", len(r.Rows))
	}
}

func TestJoinWithAggregates(t *testing.T) {
	db := sampleDB(t)
	r := mustEval(t, db, &SelectQuery{
		Tables:  []string{"Country", "City"},
		Joins:   []JoinCond{{Left: ColRef{"Country", "Code"}, Right: ColRef{"City", "CountryCode"}}},
		GroupBy: []ColRef{{"Country", "Continent"}},
		Aggs:    []Agg{{Op: AggSum, Col: ColRef{"City", "Population"}}},
	})
	if len(r.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(r.Rows))
	}
	// Europe = Athens + Paris + Lyon.
	for _, row := range r.Rows {
		if row[0].S == "Europe" && row[1].F != 660000+2100000+520000 {
			t.Fatalf("Europe city population = %v", row[1])
		}
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := sampleDB(t)
	// Self-ish 3-way: Country -> City -> Country again via alias.
	r := mustEval(t, db, &SelectQuery{
		Tables:  []string{"City", "Country", "City"},
		Aliases: []string{"c1", "co", "c2"},
		Joins: []JoinCond{
			{Left: ColRef{"c1", "CountryCode"}, Right: ColRef{"co", "Code"}},
			{Left: ColRef{"c2", "CountryCode"}, Right: ColRef{"co", "Code"}},
		},
		Where: []Predicate{{Col: ColRef{"co", "Code"}, Op: OpEq, Val: Str("FRA")}},
		Aggs:  []Agg{{Op: AggCount}},
	})
	// France has 2 cities -> 2x2 pairs.
	if r.Rows[0][0].I != 4 {
		t.Fatalf("pairs = %v, want 4", r.Rows[0][0])
	}
}

func TestCrossJoinRejected(t *testing.T) {
	db := sampleDB(t)
	q := &SelectQuery{Tables: []string{"Country", "City"}}
	if _, err := q.Eval(db); err == nil {
		t.Fatal("want error for missing join condition")
	}
}

func TestUnknownReferences(t *testing.T) {
	db := sampleDB(t)
	if _, err := (&SelectQuery{Tables: []string{"Nope"}}).Eval(db); err == nil {
		t.Fatal("want error for unknown table")
	}
	if _, err := (&SelectQuery{
		Tables: []string{"Country"},
		Where:  []Predicate{{Col: ColRef{"Country", "Nope"}, Op: OpEq, Val: Int(1)}},
	}).Eval(db); err == nil {
		t.Fatal("want error for unknown column")
	}
	if _, err := (&SelectQuery{
		Tables: []string{"Country"},
		Select: []ColRef{{"Bad", "Name"}},
	}).Eval(db); err == nil {
		t.Fatal("want error for unknown alias")
	}
}

func TestFingerprintOrderInsensitive(t *testing.T) {
	a := &Result{Cols: []string{"x"}, Rows: [][]Value{{Int(1)}, {Int(2)}, {Int(3)}}}
	b := &Result{Cols: []string{"x"}, Rows: [][]Value{{Int(3)}, {Int(1)}, {Int(2)}}}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint must be order-insensitive")
	}
	c := &Result{Cols: []string{"x"}, Rows: [][]Value{{Int(1)}, {Int(2)}, {Int(4)}}}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("fingerprint must distinguish different multisets")
	}
	d := &Result{Cols: []string{"y"}, Rows: [][]Value{{Int(1)}, {Int(2)}, {Int(3)}}}
	if a.Fingerprint() == d.Fingerprint() {
		t.Fatal("fingerprint must include column names")
	}
	e := &Result{Cols: []string{"x"}, Rows: [][]Value{{Int(1)}, {Int(1)}, {Int(2)}, {Int(3)}}}
	if a.Fingerprint() == e.Fingerprint() {
		t.Fatal("fingerprint must be multiset-sensitive (duplicates matter)")
	}
}

func TestFootprint(t *testing.T) {
	db := sampleDB(t)
	q := &SelectQuery{
		Tables: []string{"Country", "City"},
		Joins:  []JoinCond{{Left: ColRef{"Country", "Code"}, Right: ColRef{"City", "CountryCode"}}},
		Where:  []Predicate{{Col: ColRef{"Country", "Continent"}, Op: OpEq, Val: Str("Europe")}},
		Select: []ColRef{{"City", "Name"}},
	}
	f, err := q.Footprint(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct{ tbl, col string }{
		{"Country", "Code"}, {"Country", "Continent"},
		{"City", "CountryCode"}, {"City", "Name"},
	} {
		if !f.Touches(want.tbl, want.col) {
			t.Errorf("footprint misses %s.%s", want.tbl, want.col)
		}
	}
	if f.Touches("City", "Population") {
		t.Error("footprint must not include City.Population")
	}
	if f.Touches("Country", "Population") {
		t.Error("footprint must not include Country.Population")
	}
}

func TestFootprintSelectStar(t *testing.T) {
	db := sampleDB(t)
	q := &SelectQuery{Tables: []string{"Country"}}
	f, err := q.Footprint(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"Code", "Name", "Continent", "Population"} {
		if !f.Touches("Country", c) {
			t.Errorf("SELECT * footprint misses %s", c)
		}
	}
}

func TestFootprintCountStar(t *testing.T) {
	db := sampleDB(t)
	q := &SelectQuery{
		Tables: []string{"Country"},
		Where:  []Predicate{{Col: ColRef{"Country", "Continent"}, Op: OpEq, Val: Str("Asia")}},
		Aggs:   []Agg{{Op: AggCount}},
	}
	f, err := q.Footprint(db)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Touches("Country", "Continent") {
		t.Error("count(*) footprint must include predicate column")
	}
	if f.Touches("Country", "Name") {
		t.Error("count(*) footprint must not include unreferenced columns")
	}
}

func TestActiveDomain(t *testing.T) {
	db := sampleDB(t)
	dom := db.ActiveDomain("Country", "Continent")
	if len(dom) != 3 {
		t.Fatalf("domain size = %d, want 3", len(dom))
	}
	if dom[0].S != "Asia" { // sorted
		t.Fatalf("domain[0] = %v, want Asia", dom[0])
	}
}

func TestCloneIsDeep(t *testing.T) {
	db := sampleDB(t)
	cp := db.Clone()
	cp.Table("Country").Rows[0][1] = Str("Mutated")
	if db.Table("Country").Rows[0][1].S == "Mutated" {
		t.Fatal("Clone shares row storage")
	}
}

func TestQueryString(t *testing.T) {
	q := &SelectQuery{
		Tables:  []string{"Country"},
		Where:   []Predicate{{Col: ColRef{"Country", "Continent"}, Op: OpEq, Val: Str("Asia")}},
		GroupBy: []ColRef{{"Country", "Continent"}},
		Aggs:    []Agg{{Op: AggCount, Col: ColRef{"Country", "Name"}}},
	}
	s := q.String()
	for _, want := range []string{"SELECT", "count(Country.Name)", "FROM Country", "Continent = Asia", "GROUP BY"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestEvalDeterministic(t *testing.T) {
	db := sampleDB(t)
	q := &SelectQuery{
		Tables:  []string{"Country", "City"},
		Joins:   []JoinCond{{Left: ColRef{"Country", "Code"}, Right: ColRef{"City", "CountryCode"}}},
		GroupBy: []ColRef{{"Country", "Continent"}},
		Aggs:    []Agg{{Op: AggCount}, {Op: AggSum, Col: ColRef{"City", "Population"}}},
	}
	r1 := mustEval(t, db, q)
	for i := 0; i < 20; i++ {
		r2 := mustEval(t, db, q)
		if r1.Fingerprint() != r2.Fingerprint() {
			t.Fatal("evaluation must be deterministic")
		}
	}
}

// TestAppendRefusesNaN pins Append's float check: a NaN cell panics and
// leaves the table as it was, as a width mismatch does, while ±Inf and
// NULL are appended.
func TestAppendRefusesNaN(t *testing.T) {
	tbl := NewTable(NewSchema("T", Column{"I", KindInt}, Column{"F", KindFloat}))
	mustPanic := func(label string, row ...Value) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Append did not panic", label)
			}
		}()
		tbl.Append(row...)
	}
	mustPanic("NaN", Int(1), Float(math.NaN()))
	mustPanic("width", Int(1))
	if n := tbl.NumRows(); n != 0 {
		t.Fatalf("refused rows left %d slots", n)
	}
	tbl.Append(Int(1), Float(math.Inf(1)))
	tbl.Append(Int(2), Float(math.Inf(-1)))
	tbl.Append(Int(3), Null())
	if n := tbl.NumRows(); n != 3 {
		t.Fatalf("NumRows = %d after three admissible appends, want 3", n)
	}
}
