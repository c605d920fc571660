package relational

// Tombstone compaction. Deletes tombstone slots and never reuse them
// (update.go), so a delete-heavy history grows every table's physical
// slot array without bound. Compact publishes a successor snapshot in
// which each chosen table's live rows occupy slots 0..live-1 densely,
// in their original order, together with a SlotMap recording where every
// old slot went. Because live-row order is preserved the remap is
// monotone, and the SlotMap is exactly what higher layers need to re-home
// their slot-addressed coordinates (support.Set.Compact re-homes the
// support deltas). Compiled plans are not re-homed: they are dropped at
// the epoch and recompiled on first use against the compacted snapshot.
//
// A compaction is described by CompactSpecs: one per rewritten table,
// carrying the slot count it applies to and the ascending list of dead
// slots. The spec is O(tombstones) yet fully determines the old→new
// map, so a durable record of the specs (internal/store's compact WAL
// record) lets crash recovery recompute the identical rewrite and
// verify it did.

import "fmt"

// TableStat summarizes one table's slot occupancy.
type TableStat struct {
	Table      string `json:"table"`
	Slots      int    `json:"slots"`
	Live       int    `json:"live"`
	Tombstones int    `json:"tombstones"`
}

// TableStats reports per-table slot occupancy in registration order.
func (d *Database) TableStats() []TableStat {
	out := make([]TableStat, 0, len(d.order))
	for _, name := range d.order {
		t := d.tables[name]
		live := t.LiveRows()
		out = append(out, TableStat{
			Table:      name,
			Slots:      len(t.Rows),
			Live:       live,
			Tombstones: len(t.Rows) - live,
		})
	}
	return out
}

// CompactSpec describes the compaction of one table: the slot count the
// spec was planned against and the ascending list of tombstoned slots to
// drop. Together they fully determine the monotone old→new slot map, so
// replaying a persisted spec reproduces the identical rewrite.
type CompactSpec struct {
	Table string `json:"table"`
	Slots int    `json:"slots"`
	Dead  []int  `json:"dead"`
}

// PlanCompaction returns the specs that would compact the named tables
// (nil = every table), omitting tables with no tombstones — compacting
// them would be an identity rewrite. An empty result means there is
// nothing to reclaim.
func (d *Database) PlanCompaction(tables []string) ([]CompactSpec, error) {
	if tables == nil {
		tables = d.order
	}
	specs := make([]CompactSpec, 0, len(tables))
	for _, name := range tables {
		t := d.tables[name]
		if t == nil {
			return nil, fmt.Errorf("relational: compact: unknown table %q", name)
		}
		var dead []int
		for i, row := range t.Rows {
			if row == nil {
				dead = append(dead, i)
			}
		}
		if len(dead) == 0 {
			continue
		}
		specs = append(specs, CompactSpec{Table: name, Slots: len(t.Rows), Dead: dead})
	}
	return specs, nil
}

// SlotMap records where a compaction moved every slot. Tables absent
// from the map were not rewritten (their slots are unchanged).
type SlotMap struct {
	byTable map[string][]int32
}

// Lookup returns the old→new slot vector for a table: vec[old] is the
// slot the row now occupies, or -1 if old was a tombstone the compaction
// dropped. A nil result means the table was not rewritten.
func (m *SlotMap) Lookup(table string) []int32 {
	if m == nil {
		return nil
	}
	return m.byTable[table]
}

// Tables returns the rewritten tables' names (order unspecified).
func (m *SlotMap) Tables() []string {
	out := make([]string, 0, len(m.byTable))
	for name := range m.byTable {
		out = append(out, name)
	}
	return out
}

// Compact publishes a successor snapshot (version+1) with each spec's
// table rewritten densely: live rows keep their order and their row
// slices (no cell copying), tombstones vanish, and untouched tables are
// shared outright. The receiver is not modified. The returned SlotMap
// has one vector per rewritten table.
//
// Validation is strict so a persisted spec doubles as a checksum: a
// spec must match the table's current slot count and its Dead list must
// be exactly the table's tombstone set, in ascending order. Replaying a
// compact record against a state that diverged from the writer's is
// therefore refused, never silently misapplied. An empty spec list is
// an error — callers decide "nothing to do" via PlanCompaction first.
func (d *Database) Compact(specs []CompactSpec) (*Database, *SlotMap, error) {
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("relational: compact: empty spec list")
	}
	seen := make(map[string]bool, len(specs))
	for _, spec := range specs {
		if seen[spec.Table] {
			return nil, nil, fmt.Errorf("relational: compact: duplicate spec for table %q", spec.Table)
		}
		seen[spec.Table] = true
	}
	out := &Database{
		tables:  make(map[string]*Table, len(d.tables)),
		order:   append([]string(nil), d.order...),
		version: d.version + 1,
	}
	for name, t := range d.tables {
		if !seen[name] {
			out.tables[name] = t // untouched table: shared outright
		}
	}
	maps := &SlotMap{byTable: make(map[string][]int32, len(specs))}
	for _, spec := range specs {
		t := d.tables[spec.Table]
		if t == nil {
			return nil, nil, fmt.Errorf("relational: compact: unknown table %q", spec.Table)
		}
		if spec.Slots != len(t.Rows) {
			return nil, nil, fmt.Errorf("relational: compact: spec for %q covers %d slots, table has %d",
				spec.Table, spec.Slots, len(t.Rows))
		}
		if len(spec.Dead) == 0 {
			return nil, nil, fmt.Errorf("relational: compact: spec for %q drops no slots (identity rewrite)", spec.Table)
		}
		for j, s := range spec.Dead {
			if s < 0 || s >= len(t.Rows) {
				return nil, nil, fmt.Errorf("relational: compact: spec for %q names slot %d outside the table (%d slots)",
					spec.Table, s, len(t.Rows))
			}
			if j > 0 && spec.Dead[j-1] >= s {
				return nil, nil, fmt.Errorf("relational: compact: spec for %q has an unsorted dead list", spec.Table)
			}
		}
		vec := make([]int32, len(t.Rows))
		nt := NewTable(t.Schema)
		nt.Rows = make([][]Value, 0, len(t.Rows)-len(spec.Dead))
		di := 0
		for i, row := range t.Rows {
			if di < len(spec.Dead) && spec.Dead[di] == i {
				if row != nil {
					return nil, nil, fmt.Errorf("relational: compact: spec for %q drops live slot %d", spec.Table, i)
				}
				vec[i] = -1
				di++
				continue
			}
			if row == nil {
				return nil, nil, fmt.Errorf("relational: compact: spec for %q keeps tombstoned slot %d", spec.Table, i)
			}
			vec[i] = int32(len(nt.Rows))
			nt.Rows = append(nt.Rows, row)
		}
		out.tables[spec.Table] = nt
		maps.byTable[spec.Table] = vec
	}
	return out, maps, nil
}
