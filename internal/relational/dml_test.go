package relational

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// dmlTestDB: T(a int, b string) with 3 rows, U(c float) with 1 row.
func dmlTestDB() *Database {
	db := NewDatabase()
	t := NewTable(NewSchema("T",
		Column{Name: "a", Kind: KindInt},
		Column{Name: "b", Kind: KindString},
	))
	t.Append(Int(1), Str("x"))
	t.Append(Int(2), Str("y"))
	t.Append(Int(3), Str("z"))
	db.AddTable(t)
	u := NewTable(NewSchema("U", Column{Name: "c", Kind: KindFloat}))
	u.Append(Float(1.5))
	db.AddTable(u)
	return db
}

func TestApplyInsertAppendsAtStableSlots(t *testing.T) {
	db := dmlTestDB()
	next, err := db.Apply([]CellChange{
		RowInsert("T", Int(4), Str("w")),
		RowInsert("T", Int(5), Str("v")),
	})
	if err != nil {
		t.Fatal(err)
	}
	nt := next.Table("T")
	if nt.NumRows() != 5 {
		t.Fatalf("slots after insert = %d, want 5", nt.NumRows())
	}
	if !nt.Rows[3][0].Equal(Int(4)) || !nt.Rows[4][0].Equal(Int(5)) {
		t.Fatalf("inserts landed at wrong slots: %v / %v", nt.Rows[3], nt.Rows[4])
	}
	// Receiver untouched (copy-on-write).
	if db.Table("T").NumRows() != 3 {
		t.Fatal("Apply mutated the receiver's row count")
	}
	// Untouched table shared outright.
	if next.Table("U") != db.Table("U") {
		t.Fatal("untouched table must be shared")
	}
}

func TestApplyInsertCopiesVals(t *testing.T) {
	db := dmlTestDB()
	vals := []Value{Int(9), Str("q")}
	ins := CellChange{Table: "T", Row: -1, Op: OpRowInsert, Vals: vals}
	next, err := db.Apply([]CellChange{ins})
	if err != nil {
		t.Fatal(err)
	}
	vals[0] = Int(777) // caller mutates its slice after Apply
	if got := next.Table("T").Rows[3][0]; !got.Equal(Int(9)) {
		t.Fatalf("inserted row aliases the caller's Vals slice: %v", got)
	}
}

func TestApplyDeleteTombstonesSlot(t *testing.T) {
	db := dmlTestDB()
	next, err := db.Apply([]CellChange{RowDelete("T", 1)})
	if err != nil {
		t.Fatal(err)
	}
	nt := next.Table("T")
	if nt.NumRows() != 3 {
		t.Fatalf("delete must keep the slot count: got %d", nt.NumRows())
	}
	if nt.Rows[1] != nil {
		t.Fatal("deleted slot must be nil")
	}
	if nt.LiveRows() != 2 {
		t.Fatalf("LiveRows = %d, want 2", nt.LiveRows())
	}
	if nt.Alive(1) || !nt.Alive(0) || !nt.Alive(2) {
		t.Fatal("Alive disagrees with the tombstone")
	}
	// Receiver untouched.
	if db.Table("T").Rows[1] == nil {
		t.Fatal("Apply mutated the receiver")
	}
	// Survivors keep their slots (identity is decoupled from position).
	if &next.Table("T").Rows[2][0] != &db.Table("T").Rows[2][0] {
		t.Fatal("surviving row must be shared structurally at its old slot")
	}
}

func TestDeletedRowsAreInvisibleToEval(t *testing.T) {
	db := dmlTestDB()
	q := &SelectQuery{Name: "all", Tables: []string{"T"}}
	next, err := db.Apply([]CellChange{RowDelete("T", 0), RowInsert("T", Int(7), Str("n"))})
	if err != nil {
		t.Fatal(err)
	}
	r, err := q.Eval(next)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 { // 3 original - 1 deleted + 1 inserted
		t.Fatalf("scan sees %d rows, want 3", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[0].Equal(Int(1)) {
			t.Fatal("scan sees the deleted row")
		}
	}
	// Aggregates over the post-DML table.
	agg := &SelectQuery{Name: "cnt", Tables: []string{"T"},
		Aggs: []Agg{{Op: AggCount}}}
	ar, err := agg.Eval(next)
	if err != nil {
		t.Fatal(err)
	}
	if got := ar.Rows[0][0]; !got.Equal(Int(3)) {
		t.Fatalf("COUNT(*) = %v, want 3", got)
	}
}

func TestNormalizeChangesAssignsInsertSlots(t *testing.T) {
	db := dmlTestDB()
	batch := []CellChange{
		RowInsert("T", Int(4), Str("w")),
		RowDelete("U", 0),
		RowInsert("U", Float(2.5)),
		RowInsert("T", Int(5), Str("v")),
	}
	norm, err := db.NormalizeChanges(batch)
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].Row != -1 {
		t.Fatal("NormalizeChanges must not mutate its input")
	}
	wantRows := []int{3, 0, 1, 4} // T has 3 slots, U has 1; deletes never free slots
	for i, w := range wantRows {
		if norm[i].Row != w {
			t.Fatalf("normalized change %d row = %d, want %d", i, norm[i].Row, w)
		}
	}
	// The assignment matches what Apply actually does.
	next, err := db.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	if got := next.Table("T").Rows[3][0]; !got.Equal(Int(4)) {
		t.Fatalf("Apply slot disagrees with NormalizeChanges: %v", got)
	}
	if got := next.Table("U").Rows[1][0]; !got.Equal(Float(2.5)) {
		t.Fatalf("Apply slot disagrees with NormalizeChanges: %v", got)
	}
	// A batch without inserts is returned as-is, no copy.
	plain := []CellChange{{Table: "T", Row: 0, Col: 0, New: Int(8)}}
	norm2, err := db.NormalizeChanges(plain)
	if err != nil {
		t.Fatal(err)
	}
	if &norm2[0] != &plain[0] {
		t.Fatal("insert-free batch should be returned without copying")
	}
}

// TestValidateChangesDMLNegativePaths pins every rejection rule added with
// the DML batch semantics, including that the duplicate-cell error names
// the offending coordinates rather than just the change indices.
func TestValidateChangesDMLNegativePaths(t *testing.T) {
	db := dmlTestDB()
	dead, err := db.Apply([]CellChange{RowDelete("T", 1)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		db      *Database
		batch   []CellChange
		wantSub []string // substrings the error must contain
	}{
		{"duplicate cell", db, []CellChange{
			{Table: "T", Row: 2, Col: 1, New: Str("p")},
			{Table: "T", Row: 2, Col: 1, New: Str("q")},
		}, []string{"T", "row 2", "col 1", "0", "1"}},
		{"double delete", db, []CellChange{
			RowDelete("T", 0), RowDelete("T", 0),
		}, []string{"both delete", "row 0", "T"}},
		{"delete then update", db, []CellChange{
			RowDelete("T", 0),
			{Table: "T", Row: 0, Col: 0, New: Int(9)},
		}, []string{"deletes"}},
		{"update then delete", db, []CellChange{
			{Table: "T", Row: 0, Col: 0, New: Int(9)},
			RowDelete("T", 0),
		}, []string{"updates"}},
		{"update dead row", dead, []CellChange{
			{Table: "T", Row: 1, Col: 0, New: Int(9)},
		}, []string{"deleted row 1"}},
		{"delete dead row", dead, []CellChange{
			RowDelete("T", 1),
		}, []string{"already-deleted"}},
		{"delete out of range", db, []CellChange{
			RowDelete("T", 99),
		}, []string{"out of range"}},
		{"insert wrong arity", db, []CellChange{
			RowInsert("T", Int(1)),
		}, []string{"inserts 1 values"}},
		{"insert wrong kind", db, []CellChange{
			RowInsert("T", Str("no"), Str("x")),
		}, []string{"string into int"}},
		{"insert unknown table", db, []CellChange{
			RowInsert("Nope", Int(1)),
		}, []string{"unknown table"}},
		{"unknown op", db, []CellChange{
			{Table: "T", Row: 0, Op: ChangeOp("upsert")},
		}, []string{"unknown op"}},
	}
	for _, tc := range cases {
		err := tc.db.ValidateChanges(tc.batch)
		if err == nil {
			t.Errorf("%s: batch accepted", tc.name)
			continue
		}
		for _, sub := range tc.wantSub {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: error %q missing %q", tc.name, err, sub)
			}
		}
		if _, aerr := tc.db.Apply(tc.batch); aerr == nil {
			t.Errorf("%s: Apply accepted a batch ValidateChanges rejects", tc.name)
		}
	}
	// NULL stays admissible in inserted rows.
	if err := db.ValidateChanges([]CellChange{RowInsert("T", Null(), Null())}); err != nil {
		t.Errorf("NULL must be admissible in inserts: %v", err)
	}
}

// TestValidateChangesRefusesNonFiniteFloats pins the refusal of NaN and
// ±Inf in cell updates and inserted rows: the error names the change
// index, table, row (an insert's assigned slot) and column. Finite
// extremes and -0.0 stay admissible.
func TestValidateChangesRefusesNonFiniteFloats(t *testing.T) {
	db := dmlTestDB()
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases := []struct {
			name    string
			batch   []CellChange
			wantSub []string
		}{
			{"cell update", []CellChange{
				{Table: "T", Row: 0, Col: 0, New: Int(9)},
				{Table: "U", Row: 0, Col: 0, New: Float(f)},
			}, []string{"change 1", `"U"`, "row 0", `"c"`, "non-finite"}},
			{"insert", []CellChange{
				RowInsert("U", Float(2)),
				RowInsert("T", Int(4), Str("w")),
				RowInsert("U", Float(f)),
			}, []string{"change 2", `"U"`, "row 2", `"c"`, "non-finite"}},
		}
		for _, tc := range cases {
			err := db.ValidateChanges(tc.batch)
			if err == nil {
				t.Errorf("%s of %v: batch accepted", tc.name, f)
				continue
			}
			for _, sub := range tc.wantSub {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("%s of %v: error %q missing %q", tc.name, f, err, sub)
				}
			}
			if _, aerr := db.Apply(tc.batch); aerr == nil {
				t.Errorf("%s of %v: Apply accepted a batch ValidateChanges rejects", tc.name, f)
			}
		}
	}
	for _, f := range []float64{math.MaxFloat64, -math.MaxFloat64, math.Copysign(0, -1), math.SmallestNonzeroFloat64} {
		batch := []CellChange{{Table: "U", Row: 0, Col: 0, New: Float(f)}, RowInsert("U", Float(f))}
		if err := db.ValidateChanges(batch); err != nil {
			t.Errorf("finite float %v refused: %v", f, err)
		}
	}
}

func TestLivenessAccessorsAndClone(t *testing.T) {
	db := dmlTestDB()
	next, err := db.Apply([]CellChange{RowDelete("T", 2), RowInsert("U", Float(9))})
	if err != nil {
		t.Fatal(err)
	}
	if got := next.TotalRows(); got != 4 { // T: 2 live, U: 2 live
		t.Fatalf("TotalRows = %d, want 4", got)
	}
	// ActiveDomain must not include deleted rows' values.
	for _, v := range next.ActiveDomain("T", "a") {
		if v.Equal(Int(3)) {
			t.Fatal("ActiveDomain includes a deleted row's value")
		}
	}
	// Clone preserves tombstones (slot layout is identity).
	cl := next.Clone()
	ct := cl.Table("T")
	if ct.NumRows() != 3 || ct.Rows[2] != nil {
		t.Fatalf("Clone lost the tombstone layout: slots=%d dead=%v", ct.NumRows(), ct.Rows[2] == nil)
	}
	if !ct.Rows[0][0].Equal(Int(1)) {
		t.Fatal("Clone lost live data")
	}
}

// assertSameDatabase compares two databases slot-for-slot: same tables,
// same slot counts, same tombstone layout, byte-identical values. This is
// stricter than semantic equality on purpose — the whole DML design rests
// on slot identity.
func assertSameDatabase(t *testing.T, got, want *Database) {
	t.Helper()
	gn, wn := got.TableNames(), want.TableNames()
	if len(gn) != len(wn) {
		t.Fatalf("table counts differ: %v vs %v", gn, wn)
	}
	for _, name := range wn {
		g, w := got.Table(name), want.Table(name)
		if g == nil {
			t.Fatalf("table %q missing", name)
		}
		if len(g.Rows) != len(w.Rows) {
			t.Fatalf("%s: slot counts differ: %d vs %d", name, len(g.Rows), len(w.Rows))
		}
		for ri := range w.Rows {
			if (g.Rows[ri] == nil) != (w.Rows[ri] == nil) {
				t.Fatalf("%s[%d]: tombstone layouts differ", name, ri)
			}
			for ci := range w.Rows[ri] {
				if g.Rows[ri][ci] != w.Rows[ri][ci] {
					t.Fatalf("%s[%d][%d]: %v != %v", name, ri, ci, g.Rows[ri][ci], w.Rows[ri][ci])
				}
			}
		}
	}
}

// TestApplyOrderInsensitive is the metamorphic order property promised by
// ValidateChanges: the cell updates and deletes of a valid batch are
// mutually order-independent, and inserts append in batch order per
// table — so any permutation preserving each table's insert subsequence
// produces a byte-identical snapshot.
func TestApplyOrderInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	db := dmlTestDB()
	for trial := 0; trial < 200; trial++ {
		// A valid batch mixing all three kinds over the current state.
		var batch []CellChange
		if db.Table("T").LiveRows() > 1 {
			for ri := range db.Table("T").Rows {
				if db.Table("T").Alive(ri) {
					batch = append(batch, RowDelete("T", ri))
					break
				}
			}
		}
		for ri := range db.Table("T").Rows {
			if db.Table("T").Alive(ri) && (len(batch) == 0 || batch[0].Row != ri) {
				batch = append(batch,
					CellChange{Table: "T", Row: ri, Col: 0, New: Int(int64(trial))},
					CellChange{Table: "T", Row: ri, Col: 1, New: Str("perm")})
			}
		}
		batch = append(batch,
			RowInsert("T", Int(int64(100+trial)), Str("i1")),
			RowInsert("U", Float(float64(trial))),
			RowInsert("T", Int(int64(200+trial)), Str("i2")))
		want, err := db.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		// Shuffle, then restore each table's insert subsequence order.
		perm := append([]CellChange(nil), batch...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		inserts := make(map[string][]CellChange)
		for _, c := range batch {
			if c.Op == OpRowInsert {
				inserts[c.Table] = append(inserts[c.Table], c)
			}
		}
		for i, c := range perm {
			if c.Op == OpRowInsert {
				perm[i] = inserts[c.Table][0]
				inserts[c.Table] = inserts[c.Table][1:]
			}
		}
		got, err := db.Apply(perm)
		if err != nil {
			t.Fatalf("permuted batch rejected: %v", err)
		}
		if got.Version() != want.Version() {
			t.Fatalf("versions differ: %d vs %d", got.Version(), want.Version())
		}
		assertSameDatabase(t, got, want)
		if trial%3 == 0 { // chain some trials so tombstones accumulate
			db = want
		}
	}
}
