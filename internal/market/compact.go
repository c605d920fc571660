package market

// Online tombstone compaction. Deletes tombstone slots forever
// (relational/update.go), so a delete-heavy history grows the physical
// slot arrays — and every slot-coordinate structure above them —
// without bound. Compact reclaims the tombstones behind exactly the
// atomic-snapshot-swap discipline Update uses: the rewrite happens off
// to the side (dense database via relational.Database.Compact, support
// set re-homed via support.Set.Compact) and is
// published with one atomic state swap. Compiled plans are dropped at the
// epoch and recompiled on first use against the compacted snapshot.
// Quotes never block; in-flight quotes that loaded the previous state
// finish against it (and its plans) and carry its version. Compactions serialize with updates and calibrations on
// calMu. Durability is the store layer's job (store.Manager.Compact
// write-ahead-logs the specs before calling this).

import (
	"errors"
	"fmt"

	"querypricing/internal/relational"
)

// ErrNothingToCompact is returned when no chosen table has tombstones.
var ErrNothingToCompact = errors.New("market: nothing to compact")

// CompactStats reports what one compaction epoch did.
type CompactStats struct {
	// Version is the database version the compaction produced.
	Version uint64 `json:"version"`
	// TablesCompacted counts tables rewritten densely.
	TablesCompacted int `json:"tables_compacted"`
	// SlotsReclaimed counts tombstoned slots dropped across all rewritten
	// tables; RowsRewritten counts live rows re-homed to new slots.
	SlotsReclaimed int `json:"slots_reclaimed"`
	RowsRewritten  int `json:"rows_rewritten"`
	// NeighborsRemapped / DeltasDropped: support neighbors whose delta
	// coordinates moved, and deltas re-homed to the dead sentinel.
	NeighborsRemapped int `json:"neighbors_remapped"`
	DeltasDropped     int `json:"deltas_dropped"`
	// PlansDropped counts cached compiled plans the epoch dropped; each
	// recompiles on its next use.
	PlansDropped int `json:"plans_dropped"`
}

// TableStats reports per-table slot occupancy (live rows, tombstones) of
// the current data snapshot — the signal compaction trigger policies and
// metrics exporters read.
func (b *Broker) TableStats() []relational.TableStat {
	return b.state.Load().db.TableStats()
}

// Compactions returns the number of compaction epochs this broker has
// applied over its lifetime (restored across restarts via the snapshot).
func (b *Broker) Compactions() uint64 { return b.compactions.Load() }

// Compact applies a planned compaction (relational.PlanCompaction) and
// publishes the compacted snapshot with one atomic swap: the database
// rewritten densely, the support set's neighbors, shard partition and
// footprint indexes re-homed, and its plan cache started empty. The
// calibrated pricing is retained — its item weights attach to support
// neighbors, whose identities a compaction never changes.
//
// The specs are validated strictly against the current snapshot
// (relational.Database.Compact): a spec planned against a state that has
// since advanced is refused, never misapplied. Callers that need
// plan-then-apply atomicity serialize externally (store.Manager does).
func (b *Broker) Compact(specs []relational.CompactSpec) (CompactStats, error) {
	b.calMu.Lock()
	defer b.calMu.Unlock()
	return b.compactLocked(specs)
}

// CompactTables plans and applies a compaction epoch over the named
// tables (nil = every table) in one step, holding calMu across both so
// no update can slip between planning and applying. It is the entry
// point for brokers running without a durability manager;
// store.Manager.Compact does its own plan-then-log-then-apply under the
// WAL mutex instead, so the logged specs match the rewrite exactly.
func (b *Broker) CompactTables(tables []string) (CompactStats, error) {
	b.calMu.Lock()
	defer b.calMu.Unlock()
	specs, err := b.state.Load().db.PlanCompaction(tables)
	if err != nil {
		return CompactStats{}, fmt.Errorf("market: compact: %w", err)
	}
	return b.compactLocked(specs)
}

func (b *Broker) compactLocked(specs []relational.CompactSpec) (CompactStats, error) {
	if len(specs) == 0 {
		return CompactStats{}, ErrNothingToCompact
	}
	st := b.state.Load()
	newDB, maps, err := st.db.Compact(specs)
	if err != nil {
		return CompactStats{}, fmt.Errorf("market: compact: %w", err)
	}
	newSet, cst := st.set.Compact(newDB, maps)
	out := CompactStats{
		Version:           newDB.Version(),
		TablesCompacted:   len(specs),
		NeighborsRemapped: cst.NeighborsRemapped,
		DeltasDropped:     cst.DeltasDropped,
		PlansDropped:      cst.PlansDropped,
	}
	for _, spec := range specs {
		out.SlotsReclaimed += len(spec.Dead)
		out.RowsRewritten += spec.Slots - len(spec.Dead)
	}
	b.state.Store(&marketState{version: newDB.Version(), db: newDB, set: newSet})
	b.compactions.Add(1)
	return out, nil
}

// restoreCompactions seeds the lifetime compaction counter from a
// persisted snapshot (market.Restore).
func (b *Broker) restoreCompactions(n uint64) { b.compactions.Store(n) }
