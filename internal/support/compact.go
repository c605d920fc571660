package support

// Tombstone compaction. A compaction (relational.Database.Compact)
// renumbers a table's slots, and — unlike an update, which never moves a
// delta's coordinates — that re-homes the support set: each neighbor's
// deltas are slot-addressed, the shard partition hashes those slots
// (shardOfNeighbor), and every shard's footprint postings and cell-update
// records list neighbors the partition placed (the records carry the
// rows themselves). Compact therefore rebuilds the partition, postings
// and records from the remapped deltas (the explicit contrast with Advance,
// which shares both). Compiled plans are not carried across: the
// successor starts with an empty plan cache, exactly as a newly built set
// does, and recompiles each plan on first use. A compaction never changes
// a conflict set, so a plan is only ever a cache the set can rebuild.
//
// A delta whose slot the compaction dropped (its row was tombstoned)
// keeps table and column but gets Row = -1: the same vacuous behavior it
// had against the tombstone — overlay views skip it, delta probes treat
// it as touching no live row — so conflict sets stay byte-identical.

import (
	"querypricing/internal/relational"
)

// CompactStats reports what a Set.Compact carried and rebuilt.
type CompactStats struct {
	// NeighborsRemapped counts neighbors with at least one delta whose
	// slot the compaction moved (or dropped).
	NeighborsRemapped int
	// DeltasDropped counts deltas re-homed to the dead sentinel (their
	// slot was a tombstone the compaction reclaimed).
	DeltasDropped int
	// PlansCarried is always 0: a compaction carries no plans across. The
	// field stays because the benchmark harness reads it.
	PlansCarried int
	// PlansDropped counts the plans the predecessor's cache held; the
	// successor recompiles them on demand.
	PlansDropped int
}

// RemapNeighbors returns the neighbors with every delta's row coordinate
// carried through the compaction's slot map, plus per-neighbor/delta
// counts. Deltas on untouched tables are unchanged (their containing
// neighbors are shared outright when nothing in them moved); deltas on a
// dropped slot get Row = -1, the dead sentinel every consumer already
// treats as vacuous. Exported because store replay re-homes a recovered
// snapshot's neighbors with exactly this transformation.
func RemapNeighbors(neighbors []Neighbor, maps *relational.SlotMap) ([]Neighbor, int, int) {
	out := make([]Neighbor, len(neighbors))
	copy(out, neighbors)
	remapped, dropped := 0, 0
	for ni := range neighbors {
		moved := false
		for _, d := range neighbors[ni].Deltas {
			vec := maps.Lookup(d.Table)
			if vec == nil {
				continue
			}
			if d.Row < 0 || d.Row >= len(vec) || int(vec[d.Row]) != d.Row {
				moved = true
				break
			}
		}
		if !moved {
			continue
		}
		remapped++
		nds := append([]Delta(nil), neighbors[ni].Deltas...)
		for di := range nds {
			vec := maps.Lookup(nds[di].Table)
			if vec == nil {
				continue
			}
			switch {
			case nds[di].Row < 0 || nds[di].Row >= len(vec):
				// Already dead, or out of range for the compacted state:
				// keep it vacuous.
				if nds[di].Row >= 0 {
					nds[di].Row = -1
					dropped++
				}
			case vec[nds[di].Row] < 0:
				nds[di].Row = -1
				dropped++
			default:
				nds[di].Row = int(vec[nds[di].Row])
			}
		}
		out[ni] = Neighbor{Deltas: nds}
	}
	return out, remapped, dropped
}

// Compact returns the support set re-rooted at newDB — the snapshot a
// compaction with slot map maps produced from the set's current database
// — with every neighbor's delta coordinates re-homed, the shard
// partition, postings and cell records rebuilt from them, and an empty plan
// cache. The receiver is never modified and keeps serving the
// uncompacted snapshot with its plans; conflict sets on
// the compacted set are byte-identical to those of a fresh Set built over
// newDB with the remapped neighbors, at every shard count.
func (s *Set) Compact(newDB *relational.Database, maps *relational.SlotMap) (*Set, CompactStats) {
	neighbors, remapped, dropped := RemapNeighbors(s.Neighbors, maps)
	ns := &Set{
		DB:        newDB,
		Neighbors: neighbors,
		Shards:    s.Shards,
	}
	// Partition, postings and cell records must be rebuilt — the slots
	// they are built on just moved. ensureShards builds all three from the
	// remapped neighbors, and creates the fresh plan cache.
	ns.ensureShards()
	return ns, CompactStats{
		NeighborsRemapped: remapped,
		DeltasDropped:     dropped,
		PlansDropped:      s.PlanCacheLen(),
	}
}
