package plan

// FuzzProbeDeltaDML decodes arbitrary bytes into a mixed change batch
// and cross-checks every decisive probe outcome against full
// re-evaluation on an independently patched clone — the probe's one
// correctness obligation. Invalid batches (out-of-range rows, wrong
// kinds, duplicate cells) must not panic the probe: support neighbors
// are hypothetical databases, so the probe sees unvalidated coordinates
// by design. CI runs a short -fuzz smoke on the checked-in corpus.

import (
	"math"
	"testing"

	"querypricing/internal/relational"
)

// decodeProbeBatch maps bytes onto a change batch against db: 4 bytes
// per change (op, table, row, value), same spirit as the relational
// fuzz decoder but tuned to the plan test fixture's candidate values so
// probes land on join keys and predicate columns often.
func decodeProbeBatch(db *relational.Database, data []byte) []CellChange {
	names := db.TableNames()
	var out []CellChange
	for len(data) >= 4 && len(out) < 8 {
		op, tb, rb, vb := data[0], data[1], data[2], data[3]
		data = data[4:]
		table := names[int(tb)%len(names)]
		t := db.Table(table)
		row := int(rb) % (t.NumRows() + 2)
		switch op % 4 {
		case 0, 1: // cell update (half the op space: the common case)
			ci := int(vb>>5) % len(t.Schema.Cols)
			cands := candidateValues(db, table, ci)
			if len(cands) == 0 {
				continue
			}
			out = append(out, CellChange{Table: table, Row: row, Col: ci, New: cands[int(vb)%len(cands)]})
		case 2: // delete
			out = append(out, relational.RowDelete(table, row))
		default: // insert; alternate un-normalized and pre-slotted
			vals := make([]relational.Value, len(t.Schema.Cols))
			for ci := range vals {
				cands := candidateValues(db, table, ci)
				if len(cands) == 0 {
					vals[ci] = relational.Null()
				} else {
					vals[ci] = cands[int(vb+byte(ci))%len(cands)]
				}
			}
			row := -1
			if vb&0x10 != 0 {
				row = int(rb) % (t.NumRows() + 2)
			}
			out = append(out, CellChange{Table: table, Row: row, Op: relational.OpRowInsert, Vals: vals})
		}
	}
	return out
}

func FuzzProbeDeltaDML(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})                            // one cell update
	f.Add([]byte{2, 0, 1, 0})                            // one delete
	f.Add([]byte{3, 0, 0, 0})                            // one un-normalized insert
	f.Add([]byte{3, 0, 0, 0x10})                         // one pre-slotted insert
	f.Add([]byte{2, 1, 0, 0, 3, 1, 0, 0})                // delete + insert, same table
	f.Add([]byte{0, 0, 2, 0x40, 2, 0, 2, 0})             // update + delete same row (invalid)
	f.Add([]byte{0, 0, 0, 0, 0, 1, 3, 0x20, 2, 0, 4, 0}) // mixed three-change batch
	db := testDB()
	queries := testQueries()
	plans := make([]*Plan, len(queries))
	for i, q := range queries {
		p, err := Compile(db, q)
		if err != nil {
			f.Fatalf("%s: %v", q.Name, err)
		}
		plans[i] = p
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		batch := decodeProbeBatch(db, data)
		valid := db.ValidateChanges(batch) == nil
		for _, p := range plans {
			if !valid {
				// Hypothetical coordinates: the probe must stay panic-free
				// and is allowed any answer (there is no ground truth).
				_ = p.Probe(batch)
				continue
			}
			checkProbeDML(t, db, p, batch)
		}
	})
}

// aggFuzzFloats is FuzzAggregateBaseState's float domain: signed zeros,
// infinities, values whose SUM overflows (1e308), Compare-equal
// duplicates and NULL. NaN is left out: Apply refuses it.
var aggFuzzFloats = []relational.Value{
	relational.Null(), relational.Float(0), relational.Float(math.Copysign(0, -1)),
	relational.Float(1), relational.Float(-1), relational.Float(2.5), relational.Float(1e308),
	relational.Float(-1e308), relational.Float(math.Inf(1)), relational.Float(math.Inf(-1)),
}

// aggFuzzInts is the group-column domain, NULL included.
var aggFuzzInts = []relational.Value{relational.Null(), relational.Int(0), relational.Int(1), relational.Int(2)}

// decodeAggTable maps bytes onto T(G int, F float) — two bytes per row,
// at most 12 rows, possibly none — next to a fixed U(G int, W string) for
// the join aggregate, and decodes the rest into up to four cell updates
// of T (three bytes each: row, column, value).
func decodeAggTable(data []byte) (*relational.Database, []CellChange) {
	t := relational.NewTable(relational.NewSchema("T",
		relational.Column{Name: "G", Kind: relational.KindInt},
		relational.Column{Name: "F", Kind: relational.KindFloat},
	))
	n := 0
	if len(data) > 0 {
		n, data = int(data[0])%13, data[1:]
	}
	for ; n > 0 && len(data) >= 2; n-- {
		t.Append(aggFuzzInts[int(data[0])%len(aggFuzzInts)], aggFuzzFloats[int(data[1])%len(aggFuzzFloats)])
		data = data[2:]
	}
	u := relational.NewTable(relational.NewSchema("U",
		relational.Column{Name: "G", Kind: relational.KindInt},
		relational.Column{Name: "W", Kind: relational.KindString},
	))
	u.Append(relational.Int(0), relational.Str("x"))
	u.Append(relational.Int(1), relational.Str("y"))
	u.Append(relational.Int(1), relational.Str("z"))
	u.Append(relational.Int(2), relational.Str("x"))
	db := relational.NewDatabase()
	db.AddTable(t)
	db.AddTable(u)
	var changes []CellChange
	for ; t.NumRows() > 0 && len(data) >= 3 && len(changes) < 4; data = data[3:] {
		c := CellChange{Table: "T", Row: int(data[0]) % t.NumRows(), Col: int(data[1]) % 2}
		if c.Col == 0 {
			c.New = aggFuzzInts[int(data[2])%len(aggFuzzInts)]
		} else {
			c.New = aggFuzzFloats[int(data[2])%len(aggFuzzFloats)]
		}
		changes = append(changes, c)
	}
	return db, changes
}

// aggFuzzQueries is every aggregate op × DISTINCT × grouped/scalar over
// T.F, COUNT(*) both ways, and one grouped join aggregate.
func aggFuzzQueries() []*relational.SelectQuery {
	var qs []*relational.SelectQuery
	for op := relational.AggCount; op <= relational.AggMax; op++ {
		for _, distinct := range []bool{false, true} {
			for _, grouped := range []bool{false, true} {
				q := &relational.SelectQuery{Name: "agg", Tables: []string{"T"},
					Aggs: []relational.Agg{{Op: op, Col: ref("T", "F"), Distinct: distinct}}}
				if grouped {
					q.GroupBy = []relational.ColRef{ref("T", "G")}
				}
				qs = append(qs, q)
			}
		}
	}
	qs = append(qs,
		&relational.SelectQuery{Name: "count-star", Tables: []string{"T"},
			Aggs: []relational.Agg{{Op: relational.AggCount}}},
		&relational.SelectQuery{Name: "count-star-grouped", Tables: []string{"T"},
			GroupBy: []relational.ColRef{ref("T", "G")},
			Aggs:    []relational.Agg{{Op: relational.AggCount}}},
		&relational.SelectQuery{Name: "join", Tables: []string{"T", "U"},
			Joins:   []relational.JoinCond{{Left: ref("T", "G"), Right: ref("U", "G")}},
			GroupBy: []relational.ColRef{ref("U", "W")},
			Aggs: []relational.Agg{{Op: relational.AggSum, Col: ref("T", "F")},
				{Op: relational.AggMin, Col: ref("T", "F")}, {Op: relational.AggCount}}},
	)
	return qs
}

// FuzzAggregateBaseState guards the aggregate base state that compile
// derives its fingerprint from: on small tables with signed zeros,
// infinities, overflowing sums, duplicates and NULLs, every aggregate
// plan's base fingerprint must equal Eval's, every decisive probe of a
// decoded cell-update batch must agree with full re-evaluation, and a
// successful Rebase onto the patched database must carry Eval's
// fingerprint there.
func FuzzAggregateBaseState(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})                                     // empty table
	f.Add([]byte{2, 1, 1, 1, 2, 0, 1, 0})                // 0.0 and -0.0 in one group
	f.Add([]byte{3, 1, 8, 1, 9, 2, 3, 0, 1, 3})          // +Inf, -Inf; update one to 1
	f.Add([]byte{3, 1, 6, 1, 6, 2, 6, 1, 1, 7})          // 1e308 twice: SUM overflows
	f.Add([]byte{4, 0, 0, 1, 2, 1, 2, 2, 5, 3, 0, 0, 0}) // NULL group, NULL value; regroup
	queries := aggFuzzQueries()
	f.Fuzz(func(t *testing.T, data []byte) {
		db, changes := decodeAggTable(data)
		valid := db.ValidateChanges(changes) == nil
		var newDB *relational.Database
		if valid {
			newDB = applyUpdate(t, db, changes)
		}
		for _, q := range queries {
			p, err := Compile(db, q)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			res, err := q.Eval(db)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			if p.BaseFingerprint() != res.Fingerprint() {
				t.Fatalf("%s: plan fingerprint %x, Eval %x on %v", q.Name, p.BaseFingerprint(), res.Fingerprint(), db.Table("T").Rows)
			}
			if !valid {
				_ = p.Probe(changes)
				continue
			}
			checkProbeDML(t, db, p, changes)
			np, ok := p.Rebase(newDB, changes, nil)
			if !ok {
				continue
			}
			after, err := q.Eval(newDB)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			if np.BaseFingerprint() != after.Fingerprint() {
				t.Fatalf("%s: rebased fingerprint %x, Eval %x after %+v", q.Name, np.BaseFingerprint(), after.Fingerprint(), changes)
			}
		}
	})
}
