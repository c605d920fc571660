package relational

import (
	"fmt"
	"math"
	"sort"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Kind Kind
}

// Schema is the typed column list of a relation.
type Schema struct {
	Name string
	Cols []Column

	byName map[string]int
}

// NewSchema builds a schema; column names must be unique.
func NewSchema(name string, cols ...Column) *Schema {
	s := &Schema{Name: name, Cols: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := s.byName[c.Name]; dup {
			panic(fmt.Sprintf("relational: duplicate column %q in %q", c.Name, name))
		}
		s.byName[c.Name] = i
	}
	return s
}

// ColIndex returns the index of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Table is a relation instance: a schema plus rows. A row's identity is
// its slot index in Rows, and that identity is stable for the table's
// whole life: deletes tombstone a slot (the row slice becomes nil) rather
// than shifting its successors, and inserts append. Scans skip nil slots,
// so visibility and identity are decoupled — the property every
// row-coordinate structure above this package (support deltas, shard
// hashes, index postings, fingerprint row terms) is built on.
type Table struct {
	Schema *Schema
	Rows   [][]Value
}

// NewTable returns an empty table with the given schema.
func NewTable(s *Schema) *Table { return &Table{Schema: s} }

// Append adds a row after validating it: the width must match the
// schema, and no float cell may be NaN, which compares equal to nothing
// and so has no place in a group, a sort order or a plan fingerprint
// (updates refuse it in ValidateChanges). ±Inf order like any float and
// stay admissible.
func (t *Table) Append(row ...Value) {
	if len(row) != len(t.Schema.Cols) {
		panic(fmt.Sprintf("relational: row width %d != schema width %d for %q",
			len(row), len(t.Schema.Cols), t.Schema.Name))
	}
	for i, v := range row {
		if v.K == KindFloat && math.IsNaN(v.F) {
			panic(fmt.Sprintf("relational: NaN float in row %d column %q.%q",
				len(t.Rows), t.Schema.Name, t.Schema.Cols[i].Name))
		}
	}
	t.Rows = append(t.Rows, row)
}

// NumRows returns the slot count — live rows plus tombstones. It bounds
// every valid row id; use LiveRows for the tuple count scans observe.
func (t *Table) NumRows() int { return len(t.Rows) }

// LiveRows returns the number of live (non-tombstoned) rows.
func (t *Table) LiveRows() int {
	n := 0
	for _, row := range t.Rows {
		if row != nil {
			n++
		}
	}
	return n
}

// Alive reports whether row is a valid slot holding a live row.
func (t *Table) Alive(row int) bool {
	return row >= 0 && row < len(t.Rows) && t.Rows[row] != nil
}

// Database is a named collection of tables, stamped with a monotonically
// increasing version: 0 at construction, +1 per Apply (update.go). Higher
// layers use the version to stamp compiled plans and pricing snapshots
// with the exact data they were built against.
type Database struct {
	tables  map[string]*Table
	order   []string
	version uint64
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*Table)}
}

// NewDatabaseAtVersion returns an empty database whose version lineage
// starts at v instead of 0. It exists for restore paths (internal/store):
// a persisted snapshot of version v is reloaded into a database that
// reports the same version it had when it was written, so replayed WAL
// batches and re-pinned quotes line up with the original lineage.
func NewDatabaseAtVersion(v uint64) *Database {
	d := NewDatabase()
	d.version = v
	return d
}

// AddTable registers a table under its schema name.
func (d *Database) AddTable(t *Table) {
	name := t.Schema.Name
	if _, dup := d.tables[name]; dup {
		panic(fmt.Sprintf("relational: duplicate table %q", name))
	}
	d.tables[name] = t
	d.order = append(d.order, name)
}

// Table returns the named table, or nil.
func (d *Database) Table(name string) *Table { return d.tables[name] }

// TableNames returns the table names in registration order.
func (d *Database) TableNames() []string {
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// TotalRows returns the total number of live tuples across all tables
// (tombstoned slots are not tuples).
func (d *Database) TotalRows() int {
	n := 0
	for _, t := range d.tables {
		n += t.LiveRows()
	}
	return n
}

// ActiveDomain returns the sorted distinct non-null values of a column,
// used by workload generators to parameterize query templates and by the
// support generator to draw replacement values.
func (d *Database) ActiveDomain(table, col string) []Value {
	t := d.Table(table)
	if t == nil {
		return nil
	}
	ci := t.Schema.ColIndex(col)
	if ci < 0 {
		return nil
	}
	seen := make(map[string]Value)
	for _, row := range t.Rows {
		if row == nil {
			continue // tombstoned slot
		}
		v := row[ci]
		if v.IsNull() {
			continue
		}
		seen[string(v.AppendEncode(nil))] = v
	}
	out := make([]Value, 0, len(seen))
	for _, v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Compare(out[b]) < 0 })
	return out
}

// Clone returns a deep copy of the database (fresh row slices; Values are
// immutable so cells are shared). Tombstoned slots stay tombstoned, so
// row ids in the clone mean what they meant in the original. The clone
// starts its own version lineage at 0.
func (d *Database) Clone() *Database {
	out := NewDatabase()
	for _, name := range d.order {
		src := d.tables[name]
		dst := NewTable(src.Schema)
		dst.Rows = make([][]Value, len(src.Rows))
		for i, row := range src.Rows {
			if row == nil {
				continue // preserve the nil tombstone
			}
			r := make([]Value, len(row))
			copy(r, row)
			dst.Rows[i] = r
		}
		out.AddTable(dst)
	}
	return out
}
