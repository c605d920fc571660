package relational

// Native fuzz targets for the DML surface. FuzzApplyDML decodes arbitrary
// bytes into a change batch and checks the Apply contract from every
// angle: validation and application agree on acceptance, accepted batches
// land exactly where NormalizeChanges predicts, slot/liveness accounting
// balances, the receiver is never mutated, and the result matches an
// independent re-implementation slot-for-slot. CI runs a short -fuzz
// smoke on top of the checked-in corpus (see .github/workflows).

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// decodeFuzzBatch deterministically maps a byte string onto a change
// batch against db: 4 bytes per change (op, table, row, value). Inserts
// alternate between un-normalized (Row -1) and pre-assigned slots so both
// forms stay covered. Out-of-range coordinates are produced on purpose —
// rejecting them is half the contract.
func decodeFuzzBatch(db *Database, data []byte) []CellChange {
	names := db.TableNames()
	var out []CellChange
	for len(data) >= 4 && len(out) < 12 {
		op, tb, rb, vb := data[0], data[1], data[2], data[3]
		data = data[4:]
		table := names[int(tb)%len(names)]
		t := db.Table(table)
		row := int(rb) % (t.NumRows() + 3) // reaches past the live range
		// mkAny draws any kind (wrong-kind rejections stay covered);
		// mkTyped draws NULL or the column's kind, so accepted inserts and
		// updates are reachable from byte strings too.
		mkAny := func(seed byte) Value {
			switch seed % 4 {
			case 0:
				return Null()
			case 1:
				return Int(int64(seed))
			case 2:
				return Float(float64(seed) / 2)
			default:
				return Str(string(rune('a' + seed%26)))
			}
		}
		mkTyped := func(seed byte, kind Kind) Value {
			if seed%5 == 0 {
				return Null()
			}
			switch kind {
			case KindInt:
				return Int(int64(seed))
			case KindFloat:
				return Float(float64(seed) / 2)
			default:
				return Str(string(rune('a' + seed%26)))
			}
		}
		mkRow := func(seed byte) []Value {
			n := len(t.Schema.Cols)
			if seed&0x40 != 0 {
				n = int(seed) % (n + 2) // wrong arity possible
			}
			vals := make([]Value, n)
			for i := range vals {
				if seed&0x80 != 0 {
					vals[i] = mkAny(seed + byte(i))
				} else {
					vals[i] = mkTyped(seed+byte(i), t.Schema.Cols[i%len(t.Schema.Cols)].Kind)
				}
			}
			return vals
		}
		switch op % 4 {
		case 0: // cell update
			col := int(vb>>4) % (len(t.Schema.Cols) + 1)
			nv := mkTyped(vb, t.Schema.Cols[col%len(t.Schema.Cols)].Kind)
			if vb&0x80 != 0 {
				nv = mkAny(vb)
			}
			out = append(out, CellChange{Table: table, Row: row, Col: col, New: nv})
		case 1: // delete
			out = append(out, RowDelete(table, row))
		case 2: // insert, un-normalized
			out = append(out, RowInsert(table, mkRow(vb)...))
		default: // insert with a caller-chosen slot
			out = append(out, CellChange{Table: table, Row: row, Op: OpRowInsert, Vals: mkRow(vb)})
		}
	}
	return out
}

func FuzzApplyDML(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 5})             // one cell update
	f.Add([]byte{1, 0, 1, 0})             // one delete
	f.Add([]byte{2, 0, 0, 2, 2, 1, 0, 1}) // two inserts
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 2}) // delete + insert
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1}) // duplicate cell (rejected)
	f.Add([]byte{1, 0, 2, 0, 0, 0, 2, 9}) // delete + update same row (rejected)
	f.Add([]byte{3, 1, 9, 7})             // pre-slotted insert
	f.Fuzz(func(t *testing.T, data []byte) {
		db := dmlTestDB()
		// Give the base state a tombstone and a grown slot so fuzz inputs
		// exercise dead-row and appended-slot coordinates too.
		db, err := db.Apply([]CellChange{RowDelete("T", 1), RowInsert("T", Int(40), Str("g"))})
		if err != nil {
			t.Fatal(err)
		}
		batch := decodeFuzzBatch(db, data)
		verr := db.ValidateChanges(batch)
		next, aerr := db.Apply(batch)
		if (verr == nil) != (aerr == nil) {
			t.Fatalf("ValidateChanges err=%v but Apply err=%v", verr, aerr)
		}
		if aerr != nil {
			if next != nil {
				t.Fatal("failed Apply returned a database")
			}
			return
		}
		norm, nerr := db.NormalizeChanges(batch)
		if nerr != nil {
			t.Fatalf("Apply accepted a batch NormalizeChanges rejects: %v", nerr)
		}
		// Accounting: slots grow by exactly the insert count, live rows by
		// inserts minus deletes, per table.
		inserts, deletes := map[string]int{}, map[string]int{}
		for _, c := range batch {
			switch c.Op {
			case OpRowInsert:
				inserts[c.Table]++
			case OpRowDelete:
				deletes[c.Table]++
			}
		}
		for _, name := range db.TableNames() {
			ot, nt := db.Table(name), next.Table(name)
			if got, want := nt.NumRows(), ot.NumRows()+inserts[name]; got != want {
				t.Fatalf("%s: slots = %d, want %d", name, got, want)
			}
			if got, want := nt.LiveRows(), ot.LiveRows()+inserts[name]-deletes[name]; got != want {
				t.Fatalf("%s: live rows = %d, want %d", name, got, want)
			}
		}
		// Every insert landed at the slot NormalizeChanges predicted, with
		// the exact values (pre-slotted inserts included: Apply appends
		// regardless, so prediction and landing must still agree).
		for i, c := range norm {
			if c.Op != OpRowInsert {
				continue
			}
			row := next.Table(c.Table).Rows[c.Row]
			if row == nil {
				t.Fatalf("insert %d: predicted slot %s[%d] is dead", i, c.Table, c.Row)
			}
			for ci, v := range batch[i].Vals {
				if row[ci] != v {
					t.Fatalf("insert %d: slot %s[%d][%d] = %v, want %v", i, c.Table, c.Row, ci, row[ci], v)
				}
			}
		}
		// The receiver is never mutated.
		if db.Version() != 1 || next.Version() != 2 {
			t.Fatalf("versions: receiver %d (want 1), successor %d (want 2)", db.Version(), next.Version())
		}
		// Byte-identity against an independent reapplication.
		ref := db.Clone()
		for _, c := range norm {
			rt := ref.Table(c.Table)
			switch c.Op {
			case OpRowInsert:
				row := append([]Value(nil), c.Vals...)
				rt.Rows = append(rt.Rows, row)
			case OpRowDelete:
				rt.Rows[c.Row] = nil
			default:
				row := append([]Value(nil), rt.Rows[c.Row]...)
				row[c.Col] = c.New
				rt.Rows[c.Row] = row
			}
		}
		assertSameDatabase(t, next, ref)
	})
}

// decodeJoinQuery maps bytes onto two or three small tables of mixed-kind
// cells (T0, T1, T2; columns A and B) and a left-deep equi-join over them:
// each later table joins an earlier one on a hash condition and, when the
// bytes ask, a residual condition on the other columns. Values come from
// a small domain — NULL, Int 0–2, Float 0–2, -0.0, "a", "b" — so joins,
// cross-kind near-misses and NULL keys are all common.
func decodeJoinQuery(data []byte) (*Database, *SelectQuery) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	val := func(b byte) Value {
		n := int64(b/7) % 3
		switch b % 7 {
		case 0:
			return Null()
		case 1, 2:
			return Int(n)
		case 3:
			return Float(float64(n))
		case 4:
			return Float(math.Copysign(0, -1))
		case 5:
			return Float(float64(n) + 0.5)
		default:
			return Str(string(rune('a' + n%2)))
		}
	}
	cols := []string{"A", "B"}
	db := NewDatabase()
	k := 2 + int(next()%2)
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("T%d", i)
		t := NewTable(NewSchema(names[i], Column{"A", KindInt}, Column{"B", KindInt}))
		for r := int(next() % 7); r > 0; r-- {
			t.Append(val(next()), val(next()))
		}
		db.AddTable(t)
	}
	q := &SelectQuery{Name: "fuzz-join", Tables: names}
	for i := 1; i < k; i++ {
		b := next()
		other := names[int(b>>4)%i]
		hc := int(b) % 2
		jc := JoinCond{Left: ColRef{names[i], cols[hc]}, Right: ColRef{other, cols[(b>>1)%2]}}
		if b&0x04 != 0 {
			jc.Left, jc.Right = jc.Right, jc.Left // Eval normalizes either side
		}
		q.Joins = append(q.Joins, jc)
		if b&0x08 != 0 {
			q.Joins = append(q.Joins, JoinCond{Left: ColRef{names[i], cols[1-hc]}, Right: ColRef{names[int(b>>6)%i], cols[(b>>2)%2]}})
		}
	}
	return db, q
}

// nestedLoopJoin is the reference Eval's hash join must reproduce: it
// binds the tables in declaration order, and for each running tuple (in
// order) scans the next table's rows (in slot order). As in Eval, the
// first condition linking a table to the earlier ones is the hash
// condition — identical, non-NULL canonical encodings — and the others
// are residuals checked with coercing Equal.
func nestedLoopJoin(db *Database, q *SelectQuery) [][]Value {
	offset := map[string]int{}
	width := 0
	var tuples [][]Value
	for i, name := range q.Tables {
		t := db.Table(name)
		type cond struct{ newCol, oldIdx int }
		var conds []cond
		for _, jc := range q.Joins {
			l, r := jc.Left, jc.Right
			if r.Table == name {
				l, r = r, l
			}
			off, seen := offset[r.Table]
			if l.Table != name || !seen {
				continue
			}
			conds = append(conds, cond{t.Schema.ColIndex(l.Col), off + db.Table(r.Table).Schema.ColIndex(r.Col)})
		}
		offset[name] = width
		width += len(t.Schema.Cols)
		if i == 0 {
			for _, row := range t.Rows {
				tuples = append(tuples, append([]Value(nil), row...))
			}
			continue
		}
		var next [][]Value
		for _, tup := range tuples {
			for _, row := range t.Rows {
				hv, pv := row[conds[0].newCol], tup[conds[0].oldIdx]
				if hv.IsNull() || pv.IsNull() || !bytes.Equal(hv.AppendEncode(nil), pv.AppendEncode(nil)) {
					continue
				}
				ok := true
				for _, c := range conds[1:] {
					if !row[c.newCol].Equal(tup[c.oldIdx]) {
						ok = false
						break
					}
				}
				if ok {
					next = append(next, append(append([]Value(nil), tup...), row...))
				}
			}
		}
		tuples = next
	}
	return tuples
}

// FuzzEvalJoinMatchesNestedLoop checks Eval's SELECT * over a decoded
// join against the nested-loop reference, rows and order, with the join
// hash at full width and with every key forced into one bucket.
func FuzzEvalJoinMatchesNestedLoop(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 2, 3, 4, 5, 6, 3, 8, 9, 10, 11, 12, 13, 0})
	f.Add([]byte{1, 4, 7, 14, 21, 28, 1, 8, 4, 7, 15, 22, 2, 9, 16, 3, 4, 5, 6, 0, 0x5c})
	f.Add([]byte{1, 6, 1, 1, 3, 3, 4, 4, 0, 0, 6, 6, 8, 8, 6, 1, 3, 4, 0, 6, 8, 10, 3, 2, 2, 5, 5, 1, 0x0f, 0xc9})
	f.Fuzz(func(t *testing.T, data []byte) {
		db, q := decodeJoinQuery(data)
		want := nestedLoopJoin(db, q)
		for _, m := range []uint64{^uint64(0), 0} {
			old := joinKeyMask
			joinKeyMask = m
			r, err := q.Eval(db)
			joinKeyMask = old
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if !sameRows(r.Rows, want) {
				t.Fatalf("mask %x, %s:\n Eval %v\n want %v", m, q, r.Rows, want)
			}
		}
	})
}
