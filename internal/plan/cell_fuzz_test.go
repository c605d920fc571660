package plan

// FuzzSingleCellInputTouched pins pruning rule 2 for one-cell-update
// neighbors (ProbeCell, through cellTouched) against two references: the
// generic probe's verdict on the same change as a one-change batch, and a
// from-first-principles check that re-runs every alias's predicates on
// the base row and on the patched row. The fixture is a self-join of one
// table — a bare alias next to a filtered one whose predicates sit on two
// columns — compiled once over the table and once over a copy with a
// tombstoned slot (which demotes the bare alias to a filtered scan).
// Coordinates range over Row -1 and past the end, the tombstone, and
// columns out of range; values over NULL, ±Inf and cross-kind values.

import (
	"math"
	"testing"

	"querypricing/internal/relational"
)

// cellFuzzDB builds S(K int, V int, W float, X string): rows inside and
// outside the filtered alias's scan, failing one predicate or both.
func cellFuzzDB() *relational.Database {
	s := relational.NewTable(relational.NewSchema("S",
		relational.Column{Name: "K", Kind: relational.KindInt},
		relational.Column{Name: "V", Kind: relational.KindInt},
		relational.Column{Name: "W", Kind: relational.KindFloat},
		relational.Column{Name: "X", Kind: relational.KindString},
	))
	s.Append(relational.Int(1), relational.Int(7), relational.Float(10), relational.Str("a"))         // in scan
	s.Append(relational.Int(1), relational.Int(2), relational.Float(10), relational.Str("b"))         // fails V
	s.Append(relational.Int(2), relational.Int(9), relational.Float(80), relational.Str("c"))         // fails W
	s.Append(relational.Int(2), relational.Int(1), relational.Float(90), relational.Str("d"))         // fails both
	s.Append(relational.Int(3), relational.Null(), relational.Float(5), relational.Str("e"))          // NULL fails V
	s.Append(relational.Int(3), relational.Int(6), relational.Float(math.Inf(-1)), relational.Null()) // in scan
	db := relational.NewDatabase()
	db.AddTable(s)
	return db
}

// cellFuzzValues is the replacement-value domain.
var cellFuzzValues = []relational.Value{
	relational.Null(), relational.Int(0), relational.Int(5), relational.Int(7), relational.Int(-3),
	relational.Float(10), relational.Float(49.5), relational.Float(50), relational.Float(math.Inf(1)),
	relational.Float(math.Inf(-1)), relational.Str("a"), relational.Str("zz"),
}

// cellFuzzQuery: alias a scans S bare and reads K and X; alias b reads K,
// V and W under one predicate on V and one on W.
func cellFuzzQuery() *relational.SelectQuery {
	return &relational.SelectQuery{
		Name: "self-join-cell", Tables: []string{"S", "S"}, Aliases: []string{"a", "b"},
		Joins: []relational.JoinCond{{Left: ref("a", "K"), Right: ref("b", "K")}},
		Where: []relational.Predicate{
			{Col: ref("b", "V"), Op: relational.OpGe, Val: relational.Int(5)},
			{Col: ref("b", "W"), Op: relational.OpLt, Val: relational.Float(50)},
		},
		Select: []relational.ColRef{ref("a", "X"), ref("b", "K")},
	}
}

// cellTouchedOracle decides rule 2 for one cell update by brute force:
// some alias that reads the column scans the row before the change or
// after it.
func cellTouchedOracle(p *Plan, db *relational.Database, c CellChange) bool {
	rows := db.Table(c.Table).Rows
	if c.Row < 0 || c.Row >= len(rows) || rows[c.Row] == nil || c.Col < 0 || c.Col >= len(rows[c.Row]) {
		return false
	}
	patched := append([]relational.Value(nil), rows[c.Row]...)
	patched[c.Col] = c.New
	for _, ai := range p.aliasesOf(c.Table) {
		ca := p.aliases[ai]
		if ca.usedCols[c.Col] && (ca.passes(rows[c.Row]) || ca.passes(patched)) {
			return true
		}
	}
	return false
}

func FuzzSingleCellInputTouched(f *testing.F) {
	// Seeds: plan (0 tombstone-free, 1 tombstoned), row+1, col+1, value.
	f.Add(byte(0), byte(2), byte(3), byte(6))  // W of a row failing V: stays out
	f.Add(byte(0), byte(3), byte(3), byte(6))  // W of a row failing W: now in
	f.Add(byte(0), byte(3), byte(2), byte(6))  // V of a row failing W
	f.Add(byte(0), byte(4), byte(2), byte(3))  // V of a row failing both: still out
	f.Add(byte(0), byte(2), byte(2), byte(3))  // V of a row failing V: now in
	f.Add(byte(0), byte(1), byte(3), byte(8))  // W to +Inf on an in-scan row
	f.Add(byte(0), byte(5), byte(3), byte(9))  // W to -Inf on a NULL-V row
	f.Add(byte(0), byte(0), byte(3), byte(0))  // Row -1
	f.Add(byte(0), byte(8), byte(3), byte(6))  // Row past the end
	f.Add(byte(1), byte(3), byte(3), byte(6))  // tombstoned slot
	f.Add(byte(1), byte(3), byte(1), byte(1))  // tombstoned slot, join column
	f.Add(byte(0), byte(2), byte(0), byte(6))  // Col -1
	f.Add(byte(0), byte(2), byte(5), byte(6))  // Col past the end
	f.Add(byte(0), byte(4), byte(4), byte(0))  // unread-by-b column, bare a reads it
	f.Add(byte(1), byte(4), byte(4), byte(11)) // same, a filtered by liveness
	db := cellFuzzDB()
	tomb, err := db.Apply([]CellChange{relational.RowDelete("S", 2)})
	if err != nil {
		f.Fatal(err)
	}
	dbs := []*relational.Database{db, tomb}
	plans := make([]*Plan, len(dbs))
	for i, d := range dbs {
		if plans[i], err = Compile(d, cellFuzzQuery()); err != nil {
			f.Fatal(err)
		}
	}
	if !plans[0].aliases[0].bare || plans[1].aliases[0].bare || plans[0].aliases[1].bare {
		f.Fatal("fixture: want alias a bare only over the tombstone-free table")
	}
	arena := NewArena()
	f.Fuzz(func(t *testing.T, which, rb, cb, vb byte) {
		d, p := dbs[int(which)%len(dbs)], plans[int(which)%len(dbs)]
		n, ncols := len(d.Table("S").Rows), len(d.Table("S").Schema.Cols)
		c := CellChange{
			Table: "S",
			Row:   int(rb)%(n+3) - 1,
			Col:   int(cb)%(ncols+2) - 1,
			New:   cellFuzzValues[int(vb)%len(cellFuzzValues)],
		}
		got := p.ProbeCell(c.Table, c.Row, c.Col, c.New, arena)
		generic := p.ProbeDelta([]CellChange{c})
		if got != generic {
			t.Fatalf("%+v: ProbeCell %+v, ProbeDelta %+v", c, got, generic)
		}
		if want := cellTouchedOracle(p, d, c); !got.InputUntouched != want {
			t.Fatalf("%+v: rule 2 says touched=%v, predicates on the base and patched rows say %v",
				c, !got.InputUntouched, want)
		}
		if d.ValidateChanges([]CellChange{c}) == nil {
			checkProbe(t, d, p, []CellChange{c})
		}
	})
}
