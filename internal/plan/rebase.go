package plan

// Live-update plan maintenance. When the base database advances to a new
// snapshot (relational.Database.Apply), every compiled plan is either
// delta-maintained onto the successor — scans, join indexes, fingerprint
// terms, DISTINCT multiplicities and per-group aggregate state patched
// from the change list with the same telescoping delta enumeration probes
// use — or invalidated for lazy recompilation. The old plan is never
// mutated: concurrent probes against the previous snapshot keep working,
// and the rebased plan shares every untouched artifact structurally.
//
// A change escapes the cheap-patch cases (Rebase returns false) when:
//
//   - the plan cannot probe at all (LIMIT output, disconnected join graph):
//     there is no delta machinery to maintain its state with;
//   - a change removes the last occurrence of a group's reported MIN/MAX
//     encoding while accepted values remain: the new extremum is unknown
//     without the full value multiset;
//   - a change list references rows outside the plan's scans, or assigns
//     an insert a slot other than the one Apply would (defensive; Apply
//     validates these before they reach Rebase).
//
// Everything else — predicate visibility flips included (the affected
// alias's scan and indexes are rebuilt from the new table, still far
// cheaper than re-running the query) — is patched in time proportional to
// the change list and the artifacts it actually touches.

import (
	"sort"

	"querypricing/internal/relational"
)

// Rebase carries a plan compiled against the predecessor of newDB onto
// newDB, given the changes that produced it — cell updates, row inserts
// and row deletes (order-insensitive up to last-wins per cell and
// append-order slot assignment for inserts, exactly Apply's semantics).
// On success it returns a
// new plan equivalent to Compile(newDB, q) — same decisions, same base
// fingerprint — sharing every artifact the changes did not touch; shared
// supplies patched bare-scan indexes (a nil or mismatched pool rebuilds
// them privately). On failure (false) the caller must recompile; the
// receiver is never modified either way.
func (p *Plan) Rebase(newDB *relational.Database, changes []CellChange, shared *IndexPool) (*Plan, bool) {
	if p.noProbe || p.mode == modeFullOnly {
		return nil, false
	}
	rel, ok := p.relevantChanges(changes)
	if !ok {
		return nil, false
	}
	np := *p // immutable pieces (query, footprint, programs, outputs) shared
	np.dbVersion = newDB.Version()
	if len(rel) == 0 {
		return &np, true
	}

	// State first: replay the telescoping delta enumeration of the OLD
	// plan to patch fingerprint terms and mode-specific base state. Rebase
	// is the cold path, so it uses private (allocating) patch scratch.
	var ps patchSet
	var ra rowArena
	p.buildPatches(rel, &ps, &ra)
	switch p.mode {
	case modeProjection:
		p.rebaseProjection(&np, &ps)
	case modeDistinct:
		if !p.rebaseDistinct(&np, &ps) {
			return nil, false
		}
	case modeAggregate:
		if !p.rebaseAggregate(&np, &ps) {
			return nil, false
		}
	}

	// Then the physical artifacts: per-alias scans and join indexes.
	aliases, ok := p.rebaseAliases(newDB, rel, shared)
	if !ok {
		return nil, false
	}
	np.aliases = aliases
	return &np, true
}

// relevantChanges consolidates the change list down to the plan's tables
// with last-wins semantics per cell, rejecting (false) out-of-range
// coordinates. Inserts are normalized to the slot Apply assigns them —
// the table's base slot count plus the inserts already seen for it in
// this window (deletes never free slots) — so every change downstream of
// this call has a concrete row id; a pre-assigned slot that disagrees
// rejects the window. Rows born in the window widen the valid range for
// the cells and deletes that follow them.
func (p *Plan) relevantChanges(changes []CellChange) ([]CellChange, bool) {
	type cell struct {
		table    string
		row, col int
	}
	var idx map[cell]int     // lazily built: most plans see no relevant change
	var grown map[string]int // per-table slot count including window inserts
	var out []CellChange
	for _, c := range changes {
		aliases := p.aliasesOf(c.Table)
		if len(aliases) == 0 {
			continue // table not in the query: invisible to this plan
		}
		ca := p.aliases[aliases[0]]
		// The common cell-only window never grows a table, so the slot
		// limit stays the compiled length — keep that path map-free.
		limit := len(ca.baseTableRows)
		if grown != nil {
			if n, ok := grown[c.Table]; ok {
				limit = n
			}
		}
		switch c.Op {
		case relational.OpRowInsert:
			if c.Row >= 0 && c.Row != limit {
				return nil, false // slot assignment disagrees with Apply's
			}
			if len(c.Vals) != len(ca.schema.Cols) {
				return nil, false
			}
			c.Row = limit
			if grown == nil {
				grown = make(map[string]int)
			}
			grown[c.Table] = limit + 1
			out = append(out, c)
		case relational.OpRowDelete:
			if c.Row < 0 || c.Row >= limit {
				return nil, false
			}
			out = append(out, c)
		case relational.OpCellUpdate:
			if c.Row < 0 || c.Row >= limit || c.Col < 0 || c.Col >= len(ca.schema.Cols) {
				return nil, false
			}
			k := cell{c.Table, c.Row, c.Col}
			if i, seen := idx[k]; seen {
				out[i].New = c.New // later change to the same cell wins
				continue
			}
			if idx == nil {
				idx = make(map[cell]int)
			}
			idx[k] = len(out)
			out = append(out, c)
		default:
			return nil, false // unknown op: recompile rather than guess
		}
	}
	return out, true
}

// rebaseProjection adjusts the projection fingerprint terms by the signed
// projected-row hash delta.
func (p *Plan) rebaseProjection(np *Plan, ps *patchSet) {
	var buf []byte
	p.forEachDelta(ps, func(tuple [][]relational.Value, sign int) {
		h := p.projHash(tuple, &buf)
		if sign > 0 {
			np.fpSum += h
			np.fpXor ^= h
			np.fpRows++
		} else {
			np.fpSum -= h
			np.fpXor ^= h
			np.fpRows--
		}
	})
	np.baseFP = relational.CombineFingerprint(np.hdrHash, np.fpSum, np.fpXor, np.fpRows)
}

// rebaseDistinct clones the multiplicity map, applies the signed delta,
// and adjusts the fingerprint terms for every multiplicity that crosses
// zero (the only transitions visible in a DISTINCT result).
func (p *Plan) rebaseDistinct(np *Plan, ps *patchSet) bool {
	net := make(map[uint64]int)
	var buf []byte
	p.forEachDelta(ps, func(tuple [][]relational.Value, sign int) {
		net[p.projHash(tuple, &buf)] += sign
	})
	counts := make(map[uint64]int, len(p.distinctCounts))
	for h, n := range p.distinctCounts {
		counts[h] = n
	}
	for h, d := range net {
		if d == 0 {
			continue
		}
		n0 := counts[h]
		n1 := n0 + d
		if n1 < 0 {
			return false // over-removal: state cannot be trusted
		}
		if n1 == 0 {
			delete(counts, h)
		} else {
			counts[h] = n1
		}
		switch {
		case n0 == 0 && n1 > 0:
			np.fpSum += h
			np.fpXor ^= h
			np.fpRows++
		case n0 > 0 && n1 == 0:
			np.fpSum -= h
			np.fpXor ^= h
			np.fpRows--
		}
	}
	np.distinctCounts = counts
	np.baseFP = relational.CombineFingerprint(np.hdrHash, np.fpSum, np.fpXor, np.fpRows)
	return true
}

// rebaseAggregate clones the group map, patches every touched group's
// state (extrema with multiplicities, value multisets, counts), and
// adjusts the fingerprint terms by each touched group's old and new output
// row hash.
func (p *Plan) rebaseAggregate(np *Plan, ps *patchSet) bool {
	deltas := make(map[string]*groupDelta)
	var keyBuf []byte
	p.forEachDelta(ps, func(tuple [][]relational.Value, sign int) {
		keyBuf = p.groupKey(tuple, keyBuf[:0])
		gd := deltas[string(keyBuf)]
		if gd == nil {
			gd = &groupDelta{
				removed: make([][]relational.Value, len(p.aggCols)),
				added:   make([][]relational.Value, len(p.aggCols)),
			}
			deltas[string(keyBuf)] = gd
		}
		gd.rows += sign
		for ai, at := range p.aggCols {
			if at.col < 0 {
				continue
			}
			v := tuple[at.alias][at.col]
			if v.IsNull() {
				continue
			}
			if sign > 0 {
				gd.added[ai] = append(gd.added[ai], v)
			} else {
				gd.removed[ai] = append(gd.removed[ai], v)
			}
		}
	})
	if len(deltas) == 0 {
		return true // changed rows never joined: state is untouched
	}
	groups := make(map[string]*groupState, len(p.groups))
	for k, gs := range p.groups {
		groups[k] = gs
	}
	grouped := len(p.q.GroupBy) > 0
	var buf []byte
	for key, gd := range deltas {
		old := p.groups[key]
		oldRows := 0
		if old != nil {
			oldRows = old.rows
			var h uint64
			h, buf = p.groupRowHash(key, old, buf)
			np.fpSum -= h
			np.fpXor ^= h
			np.fpRows--
		}
		newRows := oldRows + gd.rows
		if newRows < 0 {
			return false
		}
		if grouped && newRows == 0 {
			delete(groups, key) // the result row disappears
			continue
		}
		ngs := &groupState{rows: newRows, aggs: make([]aggBase, len(p.q.Aggs))}
		for ai := range p.q.Aggs {
			var ob *aggBase
			if old != nil {
				ob = &old.aggs[ai]
			}
			nb, ok := rebaseAgg(p.q.Aggs[ai], p.aggCols[ai].col < 0, ob, gd.removed[ai], gd.added[ai])
			if !ok {
				return false
			}
			ngs.aggs[ai] = nb
		}
		groups[key] = ngs
		var h uint64
		h, buf = p.groupRowHash(key, ngs, buf)
		np.fpSum += h
		np.fpXor ^= h
		np.fpRows++
	}
	np.groups = groups
	np.baseFP = relational.CombineFingerprint(np.hdrHash, np.fpSum, np.fpXor, np.fpRows)
	return true
}

// rebaseAgg produces the new base state of one aggregate in one group from
// its signed value delta. COUNT(*) carries no per-aggregate state. For
// SUM/AVG/COUNT(DISTINCT) the stored multiset absorbs the overlay with the
// same canonical (encoding-sorted, Kahan) accumulation Compile uses, so the
// rebased sum is bit-identical to a fresh compilation's. For MIN/MAX the
// canonical extremum and its multiplicity are maintained; exhausting the
// reported encoding while values remain is the one undecidable case
// (false: recompile).
func rebaseAgg(a relational.Agg, star bool, ob *aggBase, removed, added []relational.Value) (aggBase, bool) {
	if star {
		return aggBase{}, true // COUNT(*): the group's row count is the state
	}
	if ob == nil {
		// Group born by this update: its whole state comes from the added
		// values (net removals from a nonexistent group are impossible).
		if rem, _ := netDiff(removed, added, nil); len(rem) > 0 {
			return aggBase{}, false
		}
		ob = &aggBase{}
	}
	if len(removed) == 0 && len(added) == 0 {
		return *ob, true // untouched: share maps and slices structurally
	}
	nb := *ob
	nb.cnt = ob.cnt + len(added) - len(removed)
	if nb.cnt < 0 {
		return aggBase{}, false
	}
	if multisetAgg(a) {
		overlay, keys := buildOverlay(removed, added, nil)
		return mergeMultiset(a, ob, nb.cnt, overlay, keys)
	}
	rem, add := netDiff(removed, added, nil)
	if nb.cnt == 0 {
		// Every accepted value is gone: the output reverts to NULL.
		nb.min, nb.minN, nb.max, nb.maxN = relational.Null(), 0, relational.Null(), 0
		return nb, true
	}
	var ok bool
	if nb.min, nb.minN, ok = rebaseExtremum(nb.min, nb.minN, rem, add, -1); !ok {
		return aggBase{}, false
	}
	if nb.max, nb.maxN, ok = rebaseExtremum(nb.max, nb.maxN, rem, add, +1); !ok {
		return aggBase{}, false
	}
	return nb, true
}

// rebaseExtremum maintains one canonical extremum (dir < 0 = MIN) and its
// encoding multiplicity across a netted value delta. It fails exactly when
// every occurrence of the reported encoding is removed: the successor
// extremum is unknown without the full multiset.
func rebaseExtremum(ext relational.Value, extN int, rem, add []relational.Value, dir int) (relational.Value, int, bool) {
	for _, v := range rem {
		if !ext.IsNull() && v.Compare(ext) == 0 && relational.SameKey(v, ext) {
			extN--
		}
	}
	if !ext.IsNull() && extN <= 0 {
		return ext, extN, false
	}
	for _, v := range add {
		if ext.IsNull() {
			ext, extN = v, 1
			continue
		}
		c := v.Compare(ext)
		switch {
		case dir < 0 && c < 0 || dir > 0 && c > 0:
			ext, extN = v, 1
		case c == 0 && relational.SameKey(v, ext):
			extN++
		case c == 0 && relational.EncodingLess(v, ext):
			ext, extN = v, 1 // new canonical representative of the tie class
		}
	}
	return ext, extN, true
}

// mergeMultiset rebuilds a multiset aggregate's state by merging the base
// multiset with the overlay in ascending encoding order, Kahan-summing as
// Compile's finalization does — the rebased sum is therefore bit-identical
// to a fresh compilation over the patched data. The extrema fields are
// carried over untouched: no consumer reads them for multiset aggregates.
func mergeMultiset(a relational.Agg, ob *aggBase, cnt int, overlay map[string]*ovDelta, keys []string) (aggBase, bool) {
	nb := aggBase{min: ob.min, minN: ob.minN, max: ob.max, maxN: ob.maxN, cnt: cnt}
	nb.vals = make(map[string]valCount, len(ob.vals)+len(keys))
	nb.sortedKeys = make([]string, 0, len(ob.sortedKeys)+len(keys))
	var sum, comp float64
	bad := false
	addKey := func(k string, n int, f float64) {
		if n < 0 {
			bad = true
			return
		}
		if n == 0 {
			return
		}
		nb.vals[k] = valCount{n: n, f: f}
		nb.sortedKeys = append(nb.sortedKeys, k)
		reps := n
		if a.Distinct {
			reps = 1 // Eval's DISTINCT filter accepts each value once
		}
		for i := 0; i < reps; i++ {
			sum, comp = relational.AddKahan(sum, comp, f)
		}
	}
	bi, oi := 0, 0
	for bi < len(ob.sortedKeys) || oi < len(keys) {
		switch {
		case oi >= len(keys) || (bi < len(ob.sortedKeys) && ob.sortedKeys[bi] < keys[oi]):
			k := ob.sortedKeys[bi]
			vc := ob.vals[k]
			addKey(k, vc.n, vc.f)
			bi++
		case bi >= len(ob.sortedKeys) || keys[oi] < ob.sortedKeys[bi]:
			k := keys[oi]
			e := overlay[k]
			addKey(k, e.delta, e.f)
			oi++
		default: // same key on both sides
			k := ob.sortedKeys[bi]
			vc := ob.vals[k]
			addKey(k, vc.n+overlay[k].delta, vc.f)
			bi++
			oi++
		}
	}
	if bad {
		return aggBase{}, false
	}
	nb.distinct = len(nb.vals)
	nb.sum = sum
	return nb, true
}

// rebaseAliases rebuilds the per-alias scans and indexes for the new
// snapshot, sharing every alias the (used-column) changes do not touch.
// Rows whose predicate visibility flips force a full rescan of that alias
// from the new table; rows that stay in a scan are re-pointed at their new
// version with the affected join-index postings patched in place (on
// copies — the old plan keeps its artifacts).
func (p *Plan) rebaseAliases(newDB *relational.Database, rel []CellChange, shared *IndexPool) ([]*compiledAlias, bool) {
	type rowKey struct {
		table string
		row   int
	}
	byRow := make(map[rowKey][]CellChange, len(rel))
	var order []rowKey
	var inserts map[string]int // lazily built: cell-only windows never resize
	for _, c := range rel {
		k := rowKey{c.Table, c.Row} // rel is normalized: inserts carry slots
		if _, seen := byRow[k]; !seen {
			order = append(order, k)
		}
		byRow[k] = append(byRow[k], c)
		if c.Op == relational.OpRowInsert {
			if inserts == nil {
				inserts = make(map[string]int)
			}
			inserts[c.Table]++
		}
	}
	out := make([]*compiledAlias, len(p.aliases))
	copy(out, p.aliases)
	for ai, ca := range p.aliases {
		nt := newDB.Table(ca.table)
		want := len(ca.baseTableRows)
		if inserts != nil {
			want += inserts[ca.table]
		}
		if nt == nil || len(nt.Rows) != want {
			return nil, false // the window's inserts must account for the resize
		}
		touched := false
		flip := false
		demote := false // bare alias saw a delete: tombstones end bareness
		var swaps []rowSwap
		var appends []int // slots of visible born rows, ascending
		for _, rk := range order {
			if rk.table != ca.table {
				continue
			}
			group := byRow[rk]
			born, dead := groupShape(group)
			if born != nil && dead {
				continue // born and died inside the window: invisible
			}
			switch {
			case born != nil:
				touched = true
				if ca.bare {
					continue // wholesale re-point below picks up the append
				}
				if ca.passes(nt.Rows[rk.row]) {
					appends = append(appends, rk.row)
				}
			case dead:
				touched = true
				if ca.bare {
					demote = true
					continue
				}
				if _, inScan := ca.scanPos(rk.row); inScan {
					flip = true // survivor positions shift: rebuild the scan
				}
			default:
				if !relevantToAlias(ca, rk.table, rk.row, group) {
					continue // only unused columns changed: indistinguishable
				}
				touched = true
				if ca.bare {
					continue // always visible; handled wholesale below
				}
				if rk.row >= len(ca.baseTableRows) || ca.baseTableRows[rk.row] == nil {
					// Defensive: a cell-only group beyond the base slots or
					// on a dead slot (relevantChanges rejects both shapes).
					continue
				}
				pos, inScan := ca.scanPos(rk.row)
				newPass := ca.passes(nt.Rows[rk.row])
				switch {
				case inScan != newPass:
					flip = true
				case inScan:
					swaps = append(swaps, rowSwap{pos: pos, row: rk.row, oldRow: ca.rows[pos]})
				}
			}
			if flip || demote {
				break // a full rebuild subsumes swaps and appends
			}
		}
		if !touched {
			continue // share the alias untouched
		}
		switch {
		case flip || demote:
			out[ai] = rebuildFilteredAlias(ca, nt)
		case ca.bare:
			out[ai] = rebaseBareAlias(ca, nt, newDB, shared)
		default:
			out[ai] = patchFilteredAlias(ca, nt, swaps, appends)
		}
	}
	return out, true
}

// rebaseBareAlias re-points a predicate-free scan at the new table and
// pulls its join indexes from the advanced shared pool (or rebuilds them
// privately when no matching pool is supplied).
func rebaseBareAlias(ca *compiledAlias, nt *relational.Table, newDB *relational.Database, shared *IndexPool) *compiledAlias {
	nca := *ca
	nca.baseTableRows = nt.Rows
	nca.rows = nt.Rows
	nca.indexes = make(map[int]map[uint64][]int32, len(ca.indexes))
	for col := range ca.indexes {
		if shared != nil && shared.db == newDB {
			nca.indexes[col] = shared.get(ca.table, col, nt.Rows)
		} else {
			nca.indexes[col] = hashRows(nt.Rows, col)
		}
	}
	return &nca
}

// rebuildFilteredAlias rescans the new table from scratch: the fallback
// when a change flips a row across the alias's predicate boundary or
// deletes an in-scan row (scan positions shift, so patching is not worth
// the bookkeeping), and the demotion path for a bare alias whose table
// picked up its first tombstone. passes rejects nil rows, so tombstoned
// slots drop out of the rebuilt scan naturally.
func rebuildFilteredAlias(ca *compiledAlias, nt *relational.Table) *compiledAlias {
	nca := *ca
	nca.bare = false
	nca.baseTableRows = nt.Rows
	nca.rows = nil
	nca.posOfBaseRow = make([]int32, len(nt.Rows))
	for ri, row := range nt.Rows {
		if nca.passes(row) {
			nca.posOfBaseRow[ri] = int32(len(nca.rows)) + 1
			nca.rows = append(nca.rows, row)
		}
	}
	nca.indexes = make(map[int]map[uint64][]int32, len(ca.indexes))
	for col := range ca.indexes {
		nca.indexes[col] = hashRows(nca.rows, col)
	}
	return &nca
}

// rowSwap records one in-scan row whose content changed without crossing
// the alias's predicate boundary: scan position, base row index, and the
// predecessor row object (for old index keys).
type rowSwap struct {
	pos    int32
	row    int
	oldRow []relational.Value
}

// patchFilteredAlias handles the position-stable case: changed in-scan
// rows are re-pointed at their new versions (fresh outer slice, positions
// unchanged) and each join index whose column actually changed gets its
// postings moved from the old key to the new one. Visible born rows
// (appends, ascending slot order) join at the end of the scan — after
// every surviving position, exactly where a fresh compile would place
// them — with their index postings inserted and the position map grown.
func patchFilteredAlias(ca *compiledAlias, nt *relational.Table, swaps []rowSwap, appends []int) *compiledAlias {
	nca := *ca
	nca.baseTableRows = nt.Rows
	nca.rows = make([][]relational.Value, len(ca.rows), len(ca.rows)+len(appends))
	copy(nca.rows, ca.rows)
	nca.indexes = make(map[int]map[uint64][]int32, len(ca.indexes))
	for col, idx := range ca.indexes {
		nca.indexes[col] = idx // shared until a swap or append touches it
	}
	cloned := make(map[int]bool, len(ca.indexes))
	for _, sw := range swaps {
		newRow := nt.Rows[sw.row]
		nca.rows[sw.pos] = newRow
		for col := range ca.indexes {
			ov, nv := sw.oldRow[col], newRow[col]
			if ov.IsNull() && nv.IsNull() || relational.SameKey(ov, nv) {
				continue // key unchanged: postings stay valid
			}
			if !cloned[col] {
				nca.indexes[col] = cloneIndex(nca.indexes[col])
				cloned[col] = true
			}
			idx := nca.indexes[col]
			if !ov.IsNull() {
				removePosting(idx, keyHash(ov), sw.pos)
			}
			if !nv.IsNull() {
				insertPosting(idx, keyHash(nv), sw.pos)
			}
		}
	}
	if len(appends) > 0 || len(nca.posOfBaseRow) != len(nt.Rows) {
		// Grow even when no append joins the scan: Remap's currency check
		// pins len(posOfBaseRow) == slot count, so a predicate-failing
		// insert must still widen the map (new slots stay 0, not in scan).
		nca.posOfBaseRow = make([]int32, len(nt.Rows))
		copy(nca.posOfBaseRow, ca.posOfBaseRow) // beyond-base slots start at 0 (not in scan)
		for _, ri := range appends {
			row := nt.Rows[ri]
			pos := int32(len(nca.rows))
			nca.rows = append(nca.rows, row)
			nca.posOfBaseRow[ri] = pos + 1
			for col := range ca.indexes {
				v := row[col]
				if v.IsNull() {
					continue // NULL keys are never indexed
				}
				if !cloned[col] {
					nca.indexes[col] = cloneIndex(nca.indexes[col])
					cloned[col] = true
				}
				insertPosting(nca.indexes[col], keyHash(v), pos)
			}
		}
	}
	return &nca
}

// cloneIndex shallow-copies a join index map; posting slices stay shared
// until removePosting/insertPosting replace them.
func cloneIndex(idx map[uint64][]int32) map[uint64][]int32 {
	out := make(map[uint64][]int32, len(idx))
	for k, v := range idx {
		out[k] = v
	}
	return out
}

// removePosting deletes one position from a key hash's posting list on a
// fresh slice (the original may be shared with the predecessor plan),
// dropping the hash when the list empties. Positions are unique within an
// index, so a list shared by colliding keys loses exactly this row.
func removePosting(idx map[uint64][]int32, key uint64, pos int32) {
	lst := idx[key]
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= pos })
	if i >= len(lst) || lst[i] != pos {
		return // defensive: position not indexed
	}
	if len(lst) == 1 {
		delete(idx, key)
		return
	}
	out := make([]int32, 0, len(lst)-1)
	out = append(out, lst[:i]...)
	out = append(out, lst[i+1:]...)
	idx[key] = out
}

// insertPosting adds one position to a key hash's posting list, preserving
// ascending order, on a fresh slice.
func insertPosting(idx map[uint64][]int32, key uint64, pos int32) {
	lst := idx[key]
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= pos })
	if i < len(lst) && lst[i] == pos {
		return // defensive: already indexed
	}
	out := make([]int32, 0, len(lst)+1)
	out = append(out, lst[:i]...)
	out = append(out, pos)
	out = append(out, lst[i:]...)
	idx[key] = out
}
