package plan

import (
	"math"
	"slices"

	"querypricing/internal/relational"
)

// LocallyPruned implements pruning rule 2 on the compiled plan: it reports
// true when every changed row is invisible to every alias scan both before
// and after the change (so the query's input relations are untouched), and
// false as soon as any change to a footprint column reaches a row that some
// alias scans — or could scan after the change. Aliases without pushed-down
// predicates see every row, so any footprint-column change to their table
// defeats the rule. Inserts defeat it when the born row's final version is
// visible to some alias; deletes when any alias scanned the dying row.
func (p *Plan) LocallyPruned(changes []CellChange) bool {
	changes = p.normalizeInsertSlots(changes)
	type rowKey struct {
		table string
		row   int
	}
	checked := make(map[rowKey]bool, len(changes))
	for _, c := range changes {
		tableAliases := p.aliasesOf(c.Table)
		if len(tableAliases) == 0 {
			continue // table not in the query
		}
		if c.Op == relational.OpRowInsert {
			for _, ai := range tableAliases {
				ca := p.aliases[ai]
				if len(c.Vals) == len(ca.schema.Cols) &&
					visibleAfter(ca, c.Table, c.Row, c.Vals, changes) {
					return false // the born row joins some alias's scan
				}
			}
			continue
		}
		ca0 := p.aliases[tableAliases[0]]
		if c.Op == relational.OpCellUpdate {
			fpc := p.fpCols[c.Table]
			if c.Col < 0 || c.Col >= len(fpc) || !fpc[c.Col] {
				continue // rule 1 handles this delta alone
			}
		}
		rk := rowKey{c.Table, c.Row}
		if checked[rk] {
			continue
		}
		checked[rk] = true
		if c.Row < 0 || c.Row >= len(ca0.baseTableRows) || ca0.baseTableRows[c.Row] == nil {
			continue // out of range, or a slot already dead in the base
		}
		if groupHasDelete(changes, c.Table, c.Row) {
			for _, ai := range tableAliases {
				if _, inScan := p.aliases[ai].scanPos(c.Row); inScan {
					return false // the dying row was in some alias's scan
				}
			}
			continue
		}
		for _, ai := range tableAliases {
			ca := p.aliases[ai]
			if ca.bare {
				return false // bare scan: the row is always visible
			}
			if _, inScan := ca.scanPos(c.Row); inScan {
				return false // visible before the change
			}
			// Each alias reads its own base row: a rebase shares an alias
			// untouched when only columns it never reads changed, so its
			// rows may be stale in another alias's predicate columns.
			if visibleAfter(ca, c.Table, c.Row, ca.baseTableRows[c.Row], changes) {
				return false // visible after the change
			}
		}
	}
	return true
}

// normalizeInsertSlots rewrites every insert's Row to the slot Apply will
// assign it — len(base rows) + k per table, exactly NormalizeChanges'
// assignment — ignoring whatever slot the caller claimed, because Apply
// ignores it too. Without this, a stale pre-assigned slot could collide
// with a live row's (table, row) change group and corrupt the probe's
// model of the batch. Inserts into tables outside the plan get unique
// synthetic negative slots (only group-key distinctness matters there).
// Batches without inserts are returned as-is, allocation-free.
func (p *Plan) normalizeInsertSlots(changes []CellChange) []CellChange {
	var out []CellChange
	var next map[string]int
	for i := range changes {
		if changes[i].Op != relational.OpRowInsert {
			continue
		}
		var slot int
		if aliases := p.aliasesOf(changes[i].Table); len(aliases) > 0 {
			if next == nil {
				next = make(map[string]int, 1)
			}
			n, ok := next[changes[i].Table]
			if !ok {
				n = len(p.aliases[aliases[0]].baseTableRows)
			}
			slot = n
			next[changes[i].Table] = n + 1
		} else {
			slot = -(i + 2) // table not in the plan: any distinct key works
		}
		if changes[i].Row == slot {
			continue
		}
		if out == nil {
			out = append([]CellChange(nil), changes...)
		}
		out[i].Row = slot
	}
	if out == nil {
		return changes
	}
	return out
}

// groupHasDelete reports whether any change in the list deletes (table,
// row) — i.e. the (table, row) group's final state is dead.
func groupHasDelete(changes []CellChange, table string, row int) bool {
	for i := range changes {
		c := &changes[i]
		if c.Op == relational.OpRowDelete && c.Table == table && c.Row == row {
			return true
		}
	}
	return false
}

// runner enumerates joined tuples through the cached indexes. For delta
// terms, aliases before deltaAlias see the neighbor's (new) scan version
// and aliases after it see the base (old) version — the standard
// telescoping decomposition of a multi-relation delta join. Emissions go
// to the closure emit when set, and to the arena accumulator acc
// otherwise (the allocation-free hot path).
type runner struct {
	p          *Plan
	patches    *patchSet
	deltaAlias int // -1 = base enumeration, all old versions
	tuple      [][]relational.Value
	emit       func(sign int)
	acc        *probeAcc
}

// emitTuple dispatches one enumerated tuple to the runner's sink.
func (r *runner) emitTuple(sign int) {
	if r.emit != nil {
		r.emit(sign)
		return
	}
	r.acc.note(r.tuple, sign)
}

func (r *runner) step(prog []probeStep, si, sign int) {
	if si == len(prog) {
		r.emitTuple(sign)
		return
	}
	st := prog[si]
	v := r.tuple[st.fromAlias][st.fromCol]
	if v.IsNull() {
		return // NULL join keys never match, as in Eval
	}
	ca := r.p.aliases[st.target]
	newVersion := st.target < r.deltaAlias
	var patch *aliasPatch
	if newVersion && r.patches != nil {
		patch = r.patches.byAlias[st.target]
	}
	for _, pos := range ca.indexes[st.probeCol][keyHash(v)] {
		if patch != nil && patch.isRemoved(pos) {
			continue
		}
		row := ca.rows[pos]
		if !relational.SameKey(row[st.probeCol], v) || !extrasPass(row, st.extras, r.tuple) {
			continue
		}
		r.tuple[st.target] = row
		r.step(prog, si+1, sign)
	}
	if patch != nil {
		for _, arow := range patch.added {
			if !relational.SameKey(arow[st.probeCol], v) {
				continue
			}
			if !extrasPass(arow, st.extras, r.tuple) {
				continue
			}
			r.tuple[st.target] = arow
			r.step(prog, si+1, sign)
		}
	}
	r.tuple[st.target] = nil
}

func extrasPass(candidate []relational.Value, extras []extraEq, tuple [][]relational.Value) bool {
	for _, e := range extras {
		if e.coercing {
			if !candidate[e.targetCol].Equal(tuple[e.fromAlias][e.fromCol]) {
				return false
			}
		} else if !relational.SameKey(candidate[e.targetCol], tuple[e.fromAlias][e.fromCol]) {
			return false
		}
	}
	return true
}

// runDelta runs the signed delta enumeration: one telescoping term per
// touched alias, each starting from that alias's removed (sign -1) and
// added (sign +1) rows. The runner's sink (closure or accumulator) must be
// configured by the caller.
func (r *runner) runDelta(ps *patchSet) {
	r.patches = ps
	n := len(r.p.aliases)
	if cap(r.tuple) < n {
		r.tuple = make([][]relational.Value, n)
	}
	r.tuple = r.tuple[:n]
	for i := range r.tuple {
		r.tuple[i] = nil
	}
	for i, patch := range ps.byAlias {
		if patch.empty() {
			continue
		}
		r.deltaAlias = i
		prog := r.p.programs[i]
		for _, pos := range patch.removedPos {
			r.tuple[i] = r.p.aliases[i].rows[pos]
			r.step(prog, 0, -1)
		}
		for _, arow := range patch.added {
			r.tuple[i] = arow
			r.step(prog, 0, +1)
		}
		r.tuple[i] = nil
	}
}

// forEachDelta is the closure-sink form of the delta enumeration, used by
// the cold paths (compile-time base state, Rebase maintenance).
func (p *Plan) forEachDelta(ps *patchSet, emit func(tuple [][]relational.Value, sign int)) {
	r := &runner{p: p, deltaAlias: -1}
	r.emit = func(sign int) { emit(r.tuple, sign) }
	r.runDelta(ps)
}

// ProbeResult is a probe outcome plus how it was reached.
type ProbeResult struct {
	Outcome Outcome
	// InputUntouched is true when the verdict came from the changed rows
	// being invisible to every alias scan before and after the change —
	// the per-pair statistic reported as local-predicate pruning.
	InputUntouched bool
}

// Probe decides whether applying the changes to the base database alters
// the query's answer, using only the cached plan artifacts. It returns
// NeedFullEval when the delta rules cannot decide exactly; the caller then
// evaluates the query against the patched database and compares against
// BaseFingerprint.
func (p *Plan) Probe(changes []CellChange) Outcome {
	return p.ProbeDelta(changes).Outcome
}

// inputTouched reports whether any alias scan sees any changed row before
// or after the change — the complement of the probe's InputUntouched
// verdict. It applies the same visibility rules as patchGroup (through
// the shared relevantToAlias/visibleAfter helpers) but runs without
// materializing patches (no copies, no allocation): on the online quote
// path the vast majority of rule-1 candidates are decided right here, so
// this check is the per-candidate cost floor at large |S|.
func (p *Plan) inputTouched(changes []CellChange) bool {
	for i := range changes {
		c := &changes[i]
		tableAliases := p.aliasesOf(c.Table)
		if len(tableAliases) == 0 {
			continue
		}
		if c.Op == relational.OpRowInsert {
			// A born row touches the input iff its final version is
			// visible to some alias (bare scans see every live row).
			for _, ai := range tableAliases {
				ca := p.aliases[ai]
				if len(c.Vals) == len(ca.schema.Cols) &&
					visibleAfter(ca, c.Table, c.Row, c.Vals, changes) {
					return true
				}
			}
			continue
		}
		// Only the first non-insert change of each (table, row) group runs
		// the checks, on behalf of the whole group.
		firstOfGroup := true
		for j := 0; j < i; j++ {
			if changes[j].Op != relational.OpRowInsert &&
				changes[j].Table == c.Table && changes[j].Row == c.Row {
				firstOfGroup = false
				break
			}
		}
		if !firstOfGroup {
			continue
		}
		if c.Op == relational.OpCellUpdate && !rowChangedAgain(changes, i) {
			// A one-cell-update group: ProbeCell's visibility rule.
			if p.cellTouched(tableAliases, c.Row, c.Col, c.New) {
				return true
			}
			continue
		}
		ca0 := p.aliases[tableAliases[0]]
		if c.Row < 0 || c.Row >= len(ca0.baseTableRows) || ca0.baseTableRows[c.Row] == nil {
			continue // out of range, or a slot already dead in the base
		}
		if groupHasDelete(changes, c.Table, c.Row) {
			for _, ai := range tableAliases {
				if _, inScan := p.aliases[ai].scanPos(c.Row); inScan {
					return true // the dying row was in some alias's scan
				}
			}
			continue
		}
		for _, ai := range tableAliases {
			ca := p.aliases[ai]
			if !relevantToAlias(ca, c.Table, c.Row, changes) {
				continue // old and new row versions are indistinguishable
			}
			if _, inScan := ca.scanPos(c.Row); inScan {
				return true // visible before the change (bare scans always)
			}
			// Each alias reads its own base row: a rebase shares an alias
			// untouched when only columns it never reads changed, so its
			// rows may be stale in another alias's predicate columns.
			if visibleAfter(ca, c.Table, c.Row, ca.baseTableRows[c.Row], changes) {
				return true // visible after the change
			}
		}
	}
	return false
}

// rowChangedAgain reports whether a non-insert change after changes[i]
// shares its (table, row) group.
func rowChangedAgain(changes []CellChange, i int) bool {
	c := &changes[i]
	for j := i + 1; j < len(changes); j++ {
		if changes[j].Op != relational.OpRowInsert &&
			changes[j].Table == c.Table && changes[j].Row == c.Row {
			return true
		}
	}
	return false
}

// cellTouched is the single definition of single-cell visibility: it
// reports whether updating cell (row, col) of the table scanned by the
// given aliases to v — the only change to that row — touches any alias
// scan. An alias that never reads col cannot tell the row versions apart;
// a row in the scan is touched; a row outside it is touched only when it
// passes every predicate after the change. Predicates on col are tested
// against v first, and the base row is read only when they pass: a row
// outside the scan whose changed column carries no predicate still fails
// the predicate that kept it out. Rows out of range or tombstoned are in
// no scan (bare scans never hold tombstones) and fail passesWithCell, so
// they touch nothing.
func (p *Plan) cellTouched(tableAliases []int, row, col int, v relational.Value) bool {
	for _, ai := range tableAliases {
		ca := p.aliases[ai]
		if col < 0 || col >= len(ca.usedCols) || !ca.usedCols[col] {
			continue // old and new row versions are indistinguishable
		}
		if _, inScan := ca.scanPos(row); inScan {
			return true // visible before the change (bare scans always)
		}
		if ca.passesWithCell(row, col, v) {
			return true // visible after the change
		}
	}
	return false
}

// passesWithCell reports whether a row outside the alias's scan passes
// its predicates once cell col holds v. Only a predicate on col can have
// kept the row out and now let it in, so the other columns' predicates
// read the base row only after col's predicates accept v.
func (ca *compiledAlias) passesWithCell(row, col int, v relational.Value) bool {
	onCol := false
	for pi := range ca.preds {
		if pa := &ca.preds[pi]; pa.col == col {
			if !pa.pred.Matches(v) {
				return false
			}
			onCol = true
		}
	}
	if !onCol || row < 0 || row >= len(ca.baseTableRows) {
		return false
	}
	baseRow := ca.baseTableRows[row]
	if baseRow == nil {
		return false // tombstoned slot: invisible either way
	}
	for pi := range ca.preds {
		if pa := &ca.preds[pi]; pa.col != col && !pa.pred.Matches(baseRow[pa.col]) {
			return false
		}
	}
	return true
}

// ProbeCell is ProbeDeltaArena for a neighbor that is exactly one cell
// update — table[row][col] becomes v — taking the change's fields rather
// than a change list, so a caller holding them in a compact record never
// touches the neighbor's own delta slice. Pruning rule 2 is cellTouched;
// only a change that touches some scan is built into a one-change batch
// in the arena a, which must be non-nil, and handed to the probe body.
func (p *Plan) ProbeCell(table string, row, col int, v relational.Value, a *Arena) ProbeResult {
	if !p.cellTouched(p.aliasesOf(table), row, col, v) {
		return ProbeResult{Outcome: Unchanged, InputUntouched: true}
	}
	a.cell[0] = CellChange{Table: table, Row: row, Col: col, New: v}
	pr := p.probeTouched(a.cell[:], a)
	a.cell[0] = CellChange{} // an idle arena pins no value
	return pr
}

// ProbeDelta is Probe with attribution, for callers that report pruning
// statistics. It borrows an arena from the package pool; workers that own
// an Arena should call ProbeDeltaArena directly.
func (p *Plan) ProbeDelta(changes []CellChange) ProbeResult {
	a := arenaPool.Get().(*Arena)
	pr := p.ProbeDeltaArena(changes, a)
	arenaPool.Put(a)
	return pr
}

// ProbeDeltaArena is ProbeDelta running on a caller-owned arena: all probe
// scratch (patches, patched rows, enumeration state, accumulators) is
// drawn from — and reclaimed by — the arena, so a warm probe allocates
// nothing. A nil arena borrows one from the package pool.
func (p *Plan) ProbeDeltaArena(changes []CellChange, a *Arena) ProbeResult {
	if a == nil {
		return p.ProbeDelta(changes)
	}
	changes = p.normalizeInsertSlots(changes)
	if !p.inputTouched(changes) {
		// The query's input relations are byte-identical.
		return ProbeResult{Outcome: Unchanged, InputUntouched: true}
	}
	return p.probeTouched(changes, a)
}

// probeTouched is the probe body for a normalized batch that touches the
// query's input: patches, delta enumeration and the mode's decision.
func (p *Plan) probeTouched(changes []CellChange, a *Arena) ProbeResult {
	if p.noProbe || p.mode == modeFullOnly {
		return ProbeResult{Outcome: NeedFullEval} // patches would go unread
	}
	a.rows.reset()
	p.buildPatches(changes, &a.patches, &a.rows)
	acc := &a.acc
	acc.reset(p)
	r := &a.run
	r.p, r.acc, r.emit = p, acc, nil
	r.runDelta(&a.patches)
	var out Outcome
	switch p.mode {
	case modeProjection:
		out = decideProjection(acc)
	case modeDistinct:
		out = p.decideDistinct(acc)
	default:
		out = p.decideAggregate(acc, &a.ov)
	}
	// Drop the plan references on exit so an idle pooled arena never pins
	// the last-probed plan (and its snapshot's artifacts) alive.
	r.p, r.patches, r.acc, acc.p = nil, nil, nil, nil
	return ProbeResult{Outcome: out}
}

// decideProjection compares the added and removed projected-row multisets
// accumulated during enumeration.
func decideProjection(acc *probeAcc) Outcome {
	if acc.addCnt != acc.remCnt || acc.addSum != acc.remSum || acc.addXor != acc.remXor {
		return Changed
	}
	return Unchanged
}

// decideDistinct checks whether any projected row's multiplicity crosses
// zero — the only transitions that alter the DISTINCT result set.
func (p *Plan) decideDistinct(acc *probeAcc) Outcome {
	for h, d := range acc.net {
		if d == 0 {
			continue
		}
		base := p.distinctCounts[h]
		if (base > 0) != (base+d > 0) {
			return Changed
		}
	}
	return Unchanged
}

// groupDelta accumulates a neighbor's effect on one group.
type groupDelta struct {
	rows    int                  // signed joined-row delta
	removed [][]relational.Value // per agg: non-NULL values removed
	added   [][]relational.Value // per agg: non-NULL values added
}

// decideAggregate applies the exact decision tree for aggregate queries:
// group appearance/disappearance and COUNT deltas are integer-exact;
// MIN/MAX are decided exactly from the stored canonical extrema and their
// encoding multiplicities (decideExtremum); SUM, AVG and COUNT(DISTINCT)
// are decided exactly by replaying the delta against the group's stored
// value multiset (decideMultiset). No aggregate shape falls back to a full
// re-evaluation anymore — NeedFullEval survives only as a defensive
// verdict on impossible states.
func (p *Plan) decideAggregate(acc *probeAcc, ov *overlayScratch) Outcome {
	changed, unknown := false, false
	grouped := len(p.q.GroupBy) > 0
	for key, gd := range acc.deltas {
		base := p.groups[key]
		baseRows := 0
		if base != nil {
			baseRows = base.rows
		}
		newRows := baseRows + gd.rows
		if grouped && ((baseRows == 0) != (newRows == 0)) {
			changed = true // a result row appears or disappears
			continue
		}
		if newRows == 0 && baseRows == 0 {
			continue
		}
		for ai := range p.aggCols {
			switch p.decideAgg(ai, base, gd, ov) {
			case Changed:
				changed = true
			case NeedFullEval:
				unknown = true
			}
			if changed {
				break
			}
		}
		if changed {
			break
		}
	}
	if changed {
		return Changed
	}
	if unknown {
		return NeedFullEval
	}
	return Unchanged
}

// decideAgg resolves one aggregate of one touched group. SUM, AVG and
// COUNT(DISTINCT) are decided exactly on the group's stored value
// multiset (evaluation accumulates them in canonical order, so the output
// is a pure function of the multiset). For the rest, the raw signed lists
// may contain phantom pairs — a telescoping term can subtract a hybrid
// tuple another term adds back — so they are netted against each other
// first; the net-removed values are then guaranteed to occur in the base
// group and the net-added values to be genuinely new occurrences.
func (p *Plan) decideAgg(ai int, base *groupState, gd *groupDelta, ov *overlayScratch) Outcome {
	a := p.q.Aggs[ai]
	if p.aggCols[ai].col < 0 { // COUNT(*)
		if gd.rows != 0 {
			return Changed
		}
		return Unchanged
	}
	if len(gd.removed[ai]) == 0 && len(gd.added[ai]) == 0 {
		// No touched tuple carried a non-NULL value of this aggregate, so
		// the accepted value stream is untouched — exact for every op.
		return Unchanged
	}
	if multisetAgg(a) {
		if base == nil {
			return NeedFullEval // unreachable: touched groups carry base state
		}
		return decideMultiset(a, &base.aggs[ai], gd.removed[ai], gd.added[ai], ov)
	}
	rem, add := netDiff(gd.removed[ai], gd.added[ai], ov)
	if len(rem) == 0 && len(add) == 0 {
		// The group's value multiset is untouched: integer counts and
		// order-insensitive extrema are exactly preserved.
		return Unchanged
	}
	switch a.Op {
	case relational.AggCount:
		if len(add) != len(rem) {
			return Changed
		}
		return Unchanged
	case relational.AggMin:
		return decideExtremum(base, ai, rem, add, -1)
	default: // MAX
		return decideExtremum(base, ai, rem, add, +1)
	}
}

// sameFloat reports whether two float64 outputs have identical canonical
// encodings (bit equality after normalizing -0, exactly AppendEncode's
// notion of equality for Float values).
func sameFloat(a, b float64) bool {
	if a == 0 {
		a = 0
	}
	if b == 0 {
		b = 0
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// buildOverlay folds signed value lists into a per-encoding net-delta
// overlay with its keys in ascending encoding order. Phantom add/remove
// pairs from the telescoping enumeration cancel here, so callers need no
// separate netting pass. Shared by the probe decisions and by Rebase's
// state maintenance; a non-nil scratch recycles the map, key list and
// entry store across calls.
func buildOverlay(removed, added []relational.Value, ov *overlayScratch) (map[string]*ovDelta, []string) {
	if ov == nil {
		ov = &overlayScratch{}
	}
	ov.resetOverlay()
	apply := func(v relational.Value, sign int) {
		ov.encBuf = v.AppendEncode(ov.encBuf[:0])
		e := ov.overlay[string(ov.encBuf)]
		if e == nil {
			e = ov.entry()
			e.f = v.AsFloat()
			ov.overlay[string(ov.encBuf)] = e
			ov.overlayKeys = append(ov.overlayKeys, string(ov.encBuf))
		}
		e.delta += sign
	}
	for _, v := range added {
		apply(v, +1)
	}
	for _, v := range removed {
		apply(v, -1)
	}
	slices.Sort(ov.overlayKeys)
	return ov.overlay, ov.overlayKeys
}

// decideMultiset resolves a SUM, AVG or COUNT(DISTINCT) aggregate exactly:
// the neighbor's signed value delta is applied to the group's stored
// multiset and the new output recomputed with the same canonical
// (encoding-sorted, Kahan) accumulation Eval uses, so the comparison
// against the base output is bit-exact.
func decideMultiset(a relational.Agg, ab *aggBase, removed, added []relational.Value, ov *overlayScratch) Outcome {
	overlay, keys := buildOverlay(removed, added, ov)

	// Walk the overlay to derive the new occurrence and distinct counts.
	newCnt, newDistinct := ab.cnt, ab.distinct
	for _, k := range keys {
		e := overlay[k]
		n0 := ab.vals[k].n
		n1 := n0 + e.delta
		if n1 < 0 {
			return NeedFullEval // defensive: deltas should never over-remove
		}
		newCnt += e.delta
		if n0 == 0 && n1 > 0 {
			newDistinct++
		} else if n0 > 0 && n1 == 0 {
			newDistinct--
		}
	}

	if a.Op == relational.AggCount { // COUNT(DISTINCT col)
		if newDistinct != ab.distinct {
			return Changed
		}
		return Unchanged
	}

	// SUM / AVG: the output is NULL exactly when no values were accepted.
	cOld, cNew := ab.cnt, newCnt
	if a.Distinct {
		cOld, cNew = ab.distinct, newDistinct
	}
	if cOld == 0 && cNew == 0 {
		return Unchanged
	}
	if (cOld == 0) != (cNew == 0) {
		return Changed
	}

	newSum := mergedCanonicalSum(ab, overlay, keys, a.Distinct)
	oldOut, newOut := ab.sum, newSum
	if a.Op == relational.AggAvg {
		oldOut /= float64(cOld)
		newOut /= float64(cNew)
	}
	if sameFloat(oldOut, newOut) {
		return Unchanged
	}
	return Changed
}

// ovDelta is one overlay entry of a multiset decision: the net occurrence
// delta of a canonical encoding plus its float64 conversion.
type ovDelta struct {
	delta int
	f     float64
}

// mergedCanonicalSum accumulates the patched multiset (base merged with
// the overlay) in ascending encoding order with Kahan summation — the
// byte-identical twin of relational.CanonicalSum over the patched value
// list.
func mergedCanonicalSum(ab *aggBase, overlay map[string]*ovDelta, overlayKeys []string, distinct bool) float64 {
	var sum, comp float64
	addKey := func(n int, f float64) {
		if n <= 0 {
			return
		}
		reps := n
		if distinct {
			reps = 1
		}
		for i := 0; i < reps; i++ {
			sum, comp = relational.AddKahan(sum, comp, f)
		}
	}
	bi, oi := 0, 0
	for bi < len(ab.sortedKeys) || oi < len(overlayKeys) {
		switch {
		case oi >= len(overlayKeys) || (bi < len(ab.sortedKeys) && ab.sortedKeys[bi] < overlayKeys[oi]):
			k := ab.sortedKeys[bi]
			vc := ab.vals[k]
			addKey(vc.n, vc.f)
			bi++
		case bi >= len(ab.sortedKeys) || overlayKeys[oi] < ab.sortedKeys[bi]:
			k := overlayKeys[oi]
			e := overlay[k]
			addKey(e.delta, e.f)
			oi++
		default: // same key on both sides
			k := ab.sortedKeys[bi]
			vc := ab.vals[k]
			addKey(vc.n+overlay[k].delta, vc.f)
			bi++
			oi++
		}
	}
	return sum
}

// netDiff cancels matching occurrences (by canonical encoding) between the
// removed and added value lists, returning the true multiset difference in
// each direction. A non-nil scratch recycles the counting map and result
// slices; the returned slices are valid until its next use.
func netDiff(rem, add []relational.Value, ov *overlayScratch) (nr, na []relational.Value) {
	if len(rem) == 0 || len(add) == 0 {
		return rem, add
	}
	if ov == nil {
		ov = &overlayScratch{}
	}
	ov.resetSurplus()
	for _, v := range add {
		ov.encBuf = v.AppendEncode(ov.encBuf[:0])
		ov.surplus[string(ov.encBuf)]++
	}
	for _, v := range rem {
		ov.encBuf = v.AppendEncode(ov.encBuf[:0])
		if ov.surplus[string(ov.encBuf)] > 0 {
			ov.surplus[string(ov.encBuf)]--
		} else {
			ov.nrBuf = append(ov.nrBuf, v)
		}
	}
	for _, v := range add {
		ov.encBuf = v.AppendEncode(ov.encBuf[:0])
		if ov.surplus[string(ov.encBuf)] > 0 {
			ov.surplus[string(ov.encBuf)]--
			ov.naBuf = append(ov.naBuf, v)
		}
	}
	return ov.nrBuf, ov.naBuf
}

// decideExtremum handles MIN (dir < 0) and MAX (dir > 0) exactly. The plan
// stores the canonical extremum (Eval's deterministic tie-break: the
// smallest encoding among Compare-equal candidates) together with the
// multiplicity of its exact encoding, so every case is decided:
//
//   - an added value strictly beyond the extremum — or Compare-equal with
//     a smaller encoding, making it the new canonical representative —
//     changes the reported value;
//   - removals that exhaust every occurrence of the reported encoding
//     change the answer (whatever replaces it encodes differently);
//   - everything else (tie births with larger encodings, tie deaths with
//     surviving copies, interior values) leaves the output untouched.
//
// The rem/add lists are netted (netDiff), so the same encoding never
// appears on both sides.
func decideExtremum(base *groupState, ai int, rem, add []relational.Value, dir int) Outcome {
	var ext relational.Value
	extN := 0
	if base != nil {
		ab := &base.aggs[ai]
		if dir < 0 {
			ext, extN = ab.min, ab.minN
		} else {
			ext, extN = ab.max, ab.maxN
		}
	}
	for _, v := range add {
		if ext.IsNull() {
			return Changed // NULL extremum gains its first value
		}
		c := v.Compare(ext)
		if dir < 0 && c < 0 || dir > 0 && c > 0 {
			return Changed
		}
		if c == 0 && !relational.SameKey(v, ext) && relational.EncodingLess(v, ext) {
			return Changed // new canonical representative of the tie class
		}
	}
	remExt := 0
	for _, v := range rem {
		if !ext.IsNull() && v.Compare(ext) == 0 && relational.SameKey(v, ext) {
			remExt++
		}
	}
	if remExt >= extN && remExt > 0 {
		// Every occurrence of the reported encoding is gone; the new
		// extremum — a tie mate with a larger encoding, a strictly interior
		// value, or NULL — necessarily encodes differently.
		return Changed
	}
	return Unchanged
}
