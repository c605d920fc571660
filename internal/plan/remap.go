package plan

// Compaction plan maintenance. A tombstone compaction
// (relational.Database.Compact) rewrites a table's slots densely while
// preserving live-row order, so for a compiled plan almost everything is
// invariant: scan contents are unchanged (scans already skip
// tombstones), join-index postings address scan positions (not slots),
// and every fingerprint term, DISTINCT multiplicity and group state is a
// pure function of row values. The only slot-addressed artifacts are
// each alias's baseTableRows pointer and its posOfBaseRow vector — Remap
// re-homes exactly those through the compaction's SlotMap and shares the
// rest structurally, mirroring Rebase's copy-on-write discipline.

import "querypricing/internal/relational"

// Remap carries a plan compiled against the predecessor of newDB onto
// newDB, where newDB was produced by a compaction whose slot moves are
// recorded in maps. On success the returned plan is equivalent to
// Compile(newDB, q); on failure (false) the caller must recompile. The
// receiver is never modified.
//
// Failure is defensive, not expected: a bare alias on a compacted table
// (compile and rebase both demote aliases on tombstoned tables, and only
// tombstoned tables are compacted), a stale vector length, or a scan row
// mapped to a dropped slot all mean the plan does not match the
// compaction's input state.
func (p *Plan) Remap(newDB *relational.Database, maps *relational.SlotMap) (*Plan, bool) {
	np := *p // value-addressed state (fingerprints, groups, programs) shared
	np.dbVersion = newDB.Version()
	var aliases []*compiledAlias
	for ai, ca := range p.aliases {
		nt := newDB.Table(ca.table)
		if nt == nil {
			return nil, false
		}
		vec := maps.Lookup(ca.table)
		if vec == nil {
			// Untouched table: the successor shares the *Table, so every
			// slot coordinate still means what it meant.
			if len(ca.baseTableRows) != len(nt.Rows) {
				return nil, false
			}
			continue
		}
		if ca.bare {
			return nil, false // bare scans never survive a tombstone
		}
		if len(ca.baseTableRows) != len(vec) || len(ca.posOfBaseRow) != len(vec) {
			return nil, false
		}
		nca := *ca
		nca.baseTableRows = nt.Rows
		nca.posOfBaseRow = make([]int32, len(nt.Rows))
		for old, pv := range ca.posOfBaseRow {
			if pv == 0 {
				continue // not in the scan: filtered out or tombstoned
			}
			ns := vec[old]
			if ns < 0 {
				return nil, false // an in-scan row cannot be a dropped slot
			}
			nca.posOfBaseRow[ns] = pv // scan position is invariant
		}
		if aliases == nil {
			aliases = make([]*compiledAlias, len(p.aliases))
			copy(aliases, p.aliases)
		}
		aliases[ai] = &nca
	}
	if aliases != nil {
		np.aliases = aliases
	}
	return &np, true
}

// Remap carries a cache's plans across a compaction: every cached plan
// is first folded up to this generation's snapshot (Drain — compaction
// consumes the predecessor wholesale, so no deferred batch may straddle
// it), then remapped onto newDB and seeded into a fresh cache lineage
// rooted there, with its own index pool, preserving recency order. Plans
// that fail to remap are dropped and recompile on demand. It returns the
// fresh cache plus the carried/dropped counts. The receiver keeps serving
// its own snapshot.
//
// A fresh lineage — rather than Advance's shared-store generation — is
// deliberate: the shared pending log speaks slot coordinates, which a
// compaction renumbers, so no batch logged before the compaction may
// ever be coalesced across it.
func (c *Cache) Remap(newDB *relational.Database, maps *relational.SlotMap) (*Cache, int, int) {
	c.Drain(0)
	s := c.store
	type entry struct {
		key string
		p   *Plan
	}
	var entries []entry // tail→head: least recently used first
	s.mu.Lock()
	for i := s.lru.tail; i >= 0; i = s.lru.nodes[i].prev {
		nd := &s.lru.nodes[i]
		if nd.p.Version() == c.version {
			entries = append(entries, entry{nd.key, nd.p})
		}
	}
	s.mu.Unlock()

	fresh := NewCache(newDB, s.max)
	fs := fresh.store
	carried, dropped := 0, 0
	for _, e := range entries {
		np, ok := e.p.Remap(newDB, maps)
		if !ok {
			dropped++
			continue
		}
		// Oldest first + pushFront reproduces the source recency order; no
		// other goroutine can see the fresh store yet.
		fs.entries[e.key] = fs.lru.pushFront(e.key, np)
		fs.count++
		carried++
	}
	return fresh, carried, dropped
}
