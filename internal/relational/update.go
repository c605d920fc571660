package relational

// Live updates to the base database. The seller's data evolves between
// sales, so Database carries a monotonically increasing version counter and
// an Apply mutation API that publishes each batch of changes as a new
// snapshot: the receiver is never modified, untouched tables (and the
// untouched rows of touched tables) are shared structurally, and only the
// changed rows are copied. Everything compiled against the old snapshot —
// query plans, join indexes, fingerprints, in-flight quotes — stays valid
// and keeps serving while higher layers swap in the successor (see
// docs/UPDATES.md for the full update story).
//
// A batch mixes three change kinds, discriminated by CellChange.Op:
//
//   - cell updates (the zero Op): table.Rows[Row][Col] becomes New;
//   - row inserts (RowInsert): a full new row is appended to the table;
//   - row deletes (RowDelete): the row's slot is tombstoned.
//
// Row identity is the physical slot index, decoupled from scan position:
// a delete sets Rows[i] to nil and the slot is never reused, an insert
// always lands at len(Rows). Every row-coordinate system built on top —
// support-delta coordinates, shard hashes, footprint postings, fingerprint
// row terms — therefore stays stable across any DML history; only scan
// *visibility* changes. Slots of deleted rows are reclaimed by a future
// compaction story, not by Apply.

import (
	"fmt"
	"math"
)

// ChangeOp discriminates the kinds of change a batch may carry. The zero
// value is a single-cell update, which keeps every pre-DML literal,
// JSON body and WAL record meaning exactly what it always meant.
type ChangeOp string

const (
	// OpCellUpdate sets one existing cell: Rows[Row][Col] = New.
	OpCellUpdate ChangeOp = ""
	// OpRowInsert appends a full row (Vals) to the table. The slot it
	// lands in is assigned by Apply (see NormalizeChanges).
	OpRowInsert ChangeOp = "insert"
	// OpRowDelete tombstones the row at slot Row: the slot stays, its
	// contents become nil, and no scan sees it again.
	OpRowDelete ChangeOp = "delete"
)

// CellChange is a single change to the base database. Despite the
// historical name it now carries all three DML kinds (see ChangeOp); the
// zero Op is a cell update, so existing cell-change literals and encoded
// records are unchanged. It is the one delta currency of the whole stack —
// support neighbors, plan probes and live updates all speak it
// (plan.CellChange and support.Delta are aliases of this type).
type CellChange struct {
	Table string
	Row   int
	Col   int
	New   Value
	// Op is the change kind; empty means cell update.
	Op ChangeOp `json:",omitempty"`
	// Vals is the full inserted row for OpRowInsert, unused otherwise.
	Vals []Value `json:",omitempty"`
}

// RowInsert returns a change that appends a full row to table. The slot
// the row will occupy is assigned deterministically at Apply time (Row is
// -1 until then); use NormalizeChanges to learn it ahead of Apply.
func RowInsert(table string, vals ...Value) CellChange {
	return CellChange{Table: table, Row: -1, Op: OpRowInsert, Vals: vals}
}

// RowDelete returns a change that tombstones the row at slot row.
func RowDelete(table string, row int) CellChange {
	return CellChange{Table: table, Row: row, Op: OpRowDelete}
}

// Version returns the database's version: 0 for a freshly constructed (or
// cloned) database, incremented by one on every Apply.
func (d *Database) Version() uint64 { return d.version }

// cellKey identifies one cell for duplicate detection.
type cellKey struct {
	table string
	row   int
	col   int
}

// rowKey identifies one row slot.
type rowKey struct {
	table string
	row   int
}

// ValidateChanges checks a change batch against the database without
// building anything. Per kind:
//
//   - cell updates must reference a live (non-deleted) row and an
//     in-range column, and a non-NULL value's kind must match the
//     column's declared kind (base data stays schema-typed; NULL is
//     always admissible), and a float must be finite (no NaN, no ±Inf);
//   - deletes must reference a live row;
//   - inserts must carry exactly one value per schema column, each
//     NULL or of the column's kind, floats finite.
//
// Within one batch the changes must also be mutually consistent: writing
// the same cell twice is rejected (the error names the offending
// table, row and column plus both change indices, so a WAL-refused batch
// is debuggable from the message alone), as are deleting a row twice and
// mixing a delete with a cell update of the same row. These rules make
// the cell and delete changes of a valid batch order-independent; inserts
// append in batch order. It is exactly the validation Apply performs
// before constructing the successor snapshot, exported so write-ahead
// layers (internal/store) can refuse a bad batch *before* logging it — a
// WAL must never contain a record that replay would reject.
func (d *Database) ValidateChanges(changes []CellChange) error {
	var cells map[cellKey]int
	var deletes map[rowKey]int
	var cellRows map[rowKey]int // first cell-update index per row
	// A single change cannot conflict with itself, so the dup-tracking
	// maps stay nil on the 1-change fast path (the production common case:
	// Broker.Update validates-then-applies every batch).
	track := len(changes) > 1
	for i, c := range changes {
		t := d.tables[c.Table]
		if t == nil {
			return fmt.Errorf("relational: apply: change %d references unknown table %q", i, c.Table)
		}
		switch c.Op {
		case OpCellUpdate:
			if c.Row < 0 || c.Row >= len(t.Rows) {
				return fmt.Errorf("relational: apply: change %d row %d out of range for %q (%d rows)", i, c.Row, c.Table, len(t.Rows))
			}
			if t.Rows[c.Row] == nil {
				return fmt.Errorf("relational: apply: change %d updates deleted row %d of %q", i, c.Row, c.Table)
			}
			if c.Col < 0 || c.Col >= len(t.Schema.Cols) {
				return fmt.Errorf("relational: apply: change %d column %d out of range for %q (%d columns)", i, c.Col, c.Table, len(t.Schema.Cols))
			}
			if col := t.Schema.Cols[c.Col]; !c.New.IsNull() && c.New.K != col.Kind {
				return fmt.Errorf("relational: apply: change %d writes a %s into %s column %q.%q",
					i, c.New.K, col.Kind, c.Table, col.Name)
			}
			if nonFinite(c.New) {
				return fmt.Errorf("relational: apply: change %d writes non-finite float %v into row %d column %q.%q",
					i, c.New.F, c.Row, c.Table, t.Schema.Cols[c.Col].Name)
			}
			if track {
				ck := cellKey{c.Table, c.Row, c.Col}
				if cells == nil {
					cells = make(map[cellKey]int, len(changes))
				}
				if j, dup := cells[ck]; dup {
					return fmt.Errorf("relational: apply: changes %d and %d both write cell %s[row %d][col %d]; split them across batches",
						j, i, c.Table, c.Row, c.Col)
				}
				cells[ck] = i
				rk := rowKey{c.Table, c.Row}
				if j, dead := deletes[rk]; dead {
					return fmt.Errorf("relational: apply: change %d updates row %d of %q which change %d deletes", i, c.Row, c.Table, j)
				}
				if cellRows == nil {
					cellRows = make(map[rowKey]int, len(changes))
				}
				if _, seen := cellRows[rk]; !seen {
					cellRows[rk] = i
				}
			}
		case OpRowDelete:
			if c.Row < 0 || c.Row >= len(t.Rows) {
				return fmt.Errorf("relational: apply: change %d deletes row %d out of range for %q (%d rows)", i, c.Row, c.Table, len(t.Rows))
			}
			if t.Rows[c.Row] == nil {
				return fmt.Errorf("relational: apply: change %d deletes already-deleted row %d of %q", i, c.Row, c.Table)
			}
			if track {
				rk := rowKey{c.Table, c.Row}
				if deletes == nil {
					deletes = make(map[rowKey]int, len(changes))
				}
				if j, dup := deletes[rk]; dup {
					return fmt.Errorf("relational: apply: changes %d and %d both delete row %d of %q", j, i, c.Row, c.Table)
				}
				if j, written := cellRows[rk]; written {
					return fmt.Errorf("relational: apply: change %d deletes row %d of %q which change %d updates", i, c.Row, c.Table, j)
				}
				deletes[rk] = i
			}
		case OpRowInsert:
			if len(c.Vals) != len(t.Schema.Cols) {
				return fmt.Errorf("relational: apply: change %d inserts %d values into %q (%d columns)",
					i, len(c.Vals), c.Table, len(t.Schema.Cols))
			}
			for ci, v := range c.Vals {
				if col := t.Schema.Cols[ci]; !v.IsNull() && v.K != col.Kind {
					return fmt.Errorf("relational: apply: change %d inserts a %s into %s column %q.%q",
						i, v.K, col.Kind, c.Table, col.Name)
				}
				if nonFinite(v) {
					return fmt.Errorf("relational: apply: change %d inserts non-finite float %v into row %d column %q.%q",
						i, v.F, insertSlot(t, changes[:i+1]), c.Table, t.Schema.Cols[ci].Name)
				}
			}
		default:
			return fmt.Errorf("relational: apply: change %d has unknown op %q", i, c.Op)
		}
	}
	return nil
}

// nonFinite reports whether v is a NaN or infinite float. Base data
// refuses them: NaN compares equal to every value, so aggregate and
// predicate decisions over it disagree with full evaluation, and neither
// NaN nor ±Inf survives the JSON encoding of a write-ahead log record.
func nonFinite(v Value) bool {
	return v.K == KindFloat && (math.IsNaN(v.F) || math.IsInf(v.F, 0))
}

// insertSlot is the slot Apply assigns the last insert of changes: the
// table's slot count plus the inserts into it that precede it.
func insertSlot(t *Table, changes []CellChange) int {
	last := changes[len(changes)-1]
	slot := len(t.Rows)
	for _, c := range changes[:len(changes)-1] {
		if c.Op == OpRowInsert && c.Table == last.Table {
			slot++
		}
	}
	return slot
}

// NormalizeChanges validates a batch and returns a copy with every
// insert's Row field set to the slot Apply will assign it: the k-th
// insert into a table lands at len(t.Rows)+k, because deletes tombstone
// in place and never shrink the slice. Engine layers that maintain
// row-coordinate structures (plan rebasing, pooled join indexes) rely on
// normalized batches so an insert names its slot like any other change.
// Batches without inserts are returned as-is (no copy).
func (d *Database) NormalizeChanges(changes []CellChange) ([]CellChange, error) {
	if err := d.ValidateChanges(changes); err != nil {
		return nil, err
	}
	hasInsert := false
	for _, c := range changes {
		if c.Op == OpRowInsert {
			hasInsert = true
			break
		}
	}
	if !hasInsert {
		return changes, nil
	}
	out := append([]CellChange(nil), changes...)
	next := make(map[string]int, 1)
	for i, c := range out {
		if c.Op != OpRowInsert {
			continue
		}
		n, ok := next[c.Table]
		if !ok {
			n = len(d.tables[c.Table].Rows)
		}
		out[i].Row = n
		next[c.Table] = n + 1
	}
	return out, nil
}

// Apply publishes a new database snapshot with the changes applied, in
// order, and the version counter incremented by one. Cell updates write
// in place, deletes tombstone their slot (Rows[i] = nil — the slot is
// never reused), and inserts append, so the k-th insert into a table
// deterministically occupies slot len(t.Rows)+k (NormalizeChanges
// computes the same assignment ahead of time). The receiver is NOT
// modified: untouched tables are shared outright, touched tables get a
// fresh row slice sharing every untouched row, and only changed rows are
// copied. Readers of the old snapshot — concurrent quotes, compiled
// plans, overlay views — therefore keep seeing exactly the data they
// started with.
//
// Every change is validated before anything is built (ValidateChanges);
// on error the returned database is nil and the receiver is unchanged.
// Note the asymmetry with support neighbors, which are free to posit
// cross-kind hypothetical values: neighbors describe databases the seller
// might have had, updates mutate the one the seller actually has.
func (d *Database) Apply(changes []CellChange) (*Database, error) {
	if err := d.ValidateChanges(changes); err != nil {
		return nil, err
	}
	touched := make(map[string]bool, 1)
	for _, c := range changes {
		touched[c.Table] = true
	}
	out := &Database{
		tables:  make(map[string]*Table, len(d.tables)),
		order:   append([]string(nil), d.order...), // never share the mutable order slice
		version: d.version + 1,
	}
	for name, t := range d.tables {
		if !touched[name] {
			out.tables[name] = t // untouched table: shared outright
			continue
		}
		nt := NewTable(t.Schema)
		nt.Rows = make([][]Value, len(t.Rows))
		copy(nt.Rows, t.Rows)
		out.tables[name] = nt
	}
	copied := make(map[rowKey]bool, len(changes)) // (table, row) pairs already copied
	for _, c := range changes {
		nt := out.tables[c.Table]
		switch c.Op {
		case OpRowInsert:
			row := make([]Value, len(c.Vals))
			copy(row, c.Vals) // never alias the caller's slice
			nt.Rows = append(nt.Rows, row)
		case OpRowDelete:
			nt.Rows[c.Row] = nil
		default:
			key := rowKey{c.Table, c.Row}
			if !copied[key] {
				row := make([]Value, len(nt.Rows[c.Row]))
				copy(row, nt.Rows[c.Row])
				nt.Rows[c.Row] = row
				copied[key] = true
			}
			nt.Rows[c.Row][c.Col] = c.New
		}
	}
	return out, nil
}

// EncodingLess reports whether a's canonical encoding (AppendEncode) orders
// strictly before b's, without materializing either encoding. It is the
// tie-break Eval and the plan layer use to make MIN/MAX outputs pure
// functions of each group's value multiset: among Compare-equal candidates
// (e.g. Int(3) vs Float(3)), the one with the smallest canonical encoding
// is reported, so the answer never depends on encounter order.
func EncodingLess(a, b Value) bool {
	if a.K != b.K {
		return a.K < b.K // the kind byte leads every encoding
	}
	switch a.K {
	case KindInt:
		// Big-endian bytes of uint64(I): byte order == unsigned order.
		return uint64(a.I) < uint64(b.I)
	case KindFloat:
		x, y := a.F, b.F
		if x == 0 {
			x = 0 // normalize -0, as AppendEncode does
		}
		if y == 0 {
			y = 0
		}
		return math.Float64bits(x) < math.Float64bits(y)
	case KindString:
		// Length prefix first (big-endian uint32), then the bytes.
		if len(a.S) != len(b.S) {
			return len(a.S) < len(b.S)
		}
		return a.S < b.S
	default: // NULL: identical encodings
		return false
	}
}
