// Package plan is the compiled-query layer behind conflict-set
// computation. A Plan compiles a SelectQuery once against a base database
// into reusable artifacts — per-alias filtered scans, hash-join indexes on
// every join column, the base result fingerprint, and (for DISTINCT and
// aggregate queries) the base multiplicity/group state — and then answers
// the only question support pricing ever asks, "does this neighbor change
// the query's answer?", by probing those cached indexes with just the
// neighbor's changed rows instead of re-running the query.
//
// Delta-probe evaluation enumerates the signed delta of the joined-row
// multiset: for each alias touched by the neighbor, the removed (old) and
// inserted (new) versions of the changed rows are joined outward through
// the cached indexes, so per-neighbor cost is proportional to |delta| times
// the rows it actually joins with, not to |DB|. The decision rules are
// exact for plain projections, DISTINCT projections, and every aggregate:
// COUNT and COUNT(*) are integer-exact; MIN/MAX store the canonical
// extremum (the evaluator breaks Compare-equal ties toward the smallest
// canonical encoding) plus its encoding multiplicity, so tie deaths and
// births decide exactly; and — because the evaluator accumulates SUM/AVG
// in canonical order (relational.CanonicalSum), making them pure functions
// of each group's value multiset — SUM, AVG and COUNT(DISTINCT) are
// decided by replaying the delta against the stored multiset. Plans fall
// back to full re-evaluation (Outcome NeedFullEval) only for LIMIT queries
// (order-sensitive output) and disconnected join graphs.
//
// The base database may evolve: relational.Database.Apply publishes each
// update batch as a new snapshot, and Rebase carries a compiled plan onto
// the successor — patching scans, join indexes, fingerprint terms and
// per-group aggregate state from the change list with the same telescoping
// delta machinery probes use — or reports that the plan must be recompiled
// when a change escapes the cheap-patch cases (see docs/UPDATES.md).
//
// Plans are immutable after Compile and safe for concurrent use. Like the
// fingerprint comparison they replace, the multiset comparisons tolerate
// 64-bit hash collisions (negligible at support-set scale), and the join
// semantics mirror relational.SelectQuery.Eval exactly: hash probes compare
// canonical value encodings, residual join conditions use coercing Equal.
package plan

import (
	"fmt"
	"slices"

	"querypricing/internal/relational"
)

// CellChange is a single-cell difference from the base database. It is an
// alias of relational.CellChange — the one delta currency shared by support
// neighbors (support.Delta), delta probes, and live base-database updates
// (relational.Database.Apply) — so deltas flow through the stack without
// conversion.
type CellChange = relational.CellChange

// Outcome is the verdict of a delta probe.
type Outcome uint8

const (
	// Unchanged means the neighbor provably leaves the query's answer
	// byte-identical to the base answer.
	Unchanged Outcome = iota
	// Changed means the neighbor provably alters the query's answer.
	Changed
	// NeedFullEval means the delta rules cannot decide; the caller must
	// re-evaluate the query against the patched database and compare
	// fingerprints.
	NeedFullEval
)

// String names the outcome for logs and test failures.
func (o Outcome) String() string {
	switch o {
	case Unchanged:
		return "unchanged"
	case Changed:
		return "changed"
	case NeedFullEval:
		return "need-full-eval"
	}
	return fmt.Sprintf("Outcome(%d)", uint8(o))
}

// evalMode classifies how far the delta rules can carry a query.
type evalMode uint8

const (
	modeProjection evalMode = iota // plain projection: fully incremental
	modeDistinct                   // DISTINCT projection: multiplicity map
	modeAggregate                  // GROUP BY aggregates: decision tree
	modeFullOnly                   // LIMIT: order-sensitive, probe only for emptiness
)

// colAt addresses a column of the joined tuple: alias position and column
// index within that alias's schema.
type colAt struct {
	alias int
	col   int
}

// tableAliasEntry groups the alias positions scanning one base table.
// Plans keep these in a short slice rather than a map: a query joins a
// handful of tables, so the per-candidate probe path resolves a change's
// table with a couple of string compares instead of a map hash.
type tableAliasEntry struct {
	table   string
	aliases []int
}

// predAt is a pushed-down predicate with its column index resolved.
type predAt struct {
	col  int
	pred relational.Predicate
}

// compiledAlias is one table occurrence: its filtered scan and join indexes.
type compiledAlias struct {
	alias  string
	table  string
	schema *relational.Schema
	preds  []predAt
	bare   bool // no pushed-down predicates: the scan is the whole table

	baseTableRows [][]relational.Value       // the base table's full row slice (shared)
	rows          [][]relational.Value       // scan: base rows passing preds, in table order
	posOfBaseRow  []int32                    // base row index -> scan position+1 (0 or past the end = filtered out; nil when bare)
	indexes       map[int]map[uint64][]int32 // column -> key hash -> ascending scan positions

	usedCols []bool // column indexes this alias reads (preds, joins, output)
}

// scanPos returns the scan position of a base row, if the row passes the
// alias's predicates. Bare scans are the table itself, position == index
// (a bare scan never contains tombstoned slots: compile demotes aliases on
// tombstoned tables to filtered scans, and a delete demotes them at
// rebase, so every in-range bare position is a live row).
func (ca *compiledAlias) scanPos(ri int) (int32, bool) {
	if ca.bare {
		if ri < 0 || ri >= len(ca.rows) {
			return 0, false
		}
		return int32(ri), true
	}
	if ri < 0 || ri >= len(ca.posOfBaseRow) {
		return 0, false
	}
	v := ca.posOfBaseRow[ri]
	return v - 1, v != 0
}

// probeStep binds one more alias during delta enumeration.
type probeStep struct {
	target    int // alias position to bind
	probeCol  int // column of target carrying the hash index
	fromAlias int // already-bound alias supplying the probe value
	fromCol   int
	extras    []extraEq
}

// extraEq is a join condition checked tuple-against-candidate rather than
// through an index probe. Its comparison honors the condition's compiled
// role: coercing Equal for residuals (Eval's secondary conditions), exact
// canonical-encoding equality for hash conditions that a program happens
// to traverse as a non-probe edge.
type extraEq struct {
	targetCol int
	fromAlias int
	fromCol   int
	coercing  bool
}

// groupState is the per-group base information an aggregate plan stores.
type groupState struct {
	rows int // joined rows in the group
	aggs []aggBase
}

// valCount is one entry of a group's value multiset: how many times a
// canonical encoding occurs among the group's accepted aggregate inputs,
// plus its float64 conversion (equal encodings convert equally).
type valCount struct {
	n int
	f float64
}

// aggBase is the base state of one aggregate within one group. MIN/MAX
// decisions need the canonical extrema plus their multiplicities (how many
// occurrences carry the reported extremum's exact encoding), so tie deaths
// and births decide exactly; SUM, AVG and COUNT(DISTINCT) store the full
// value multiset so a delta can be applied to it and the new output
// recomputed in the same canonical accumulation order Eval uses — making
// their decisions exact instead of a full-re-evaluation fallback.
type aggBase struct {
	min, max   relational.Value
	minN, maxN int // occurrences of the extremum's exact encoding

	vals       map[string]valCount // canonical encoding -> occurrences (multiset aggs only)
	sortedKeys []string            // keys of vals in ascending encoding order
	sum        float64             // canonical base sum (SUM/AVG)
	cnt        int                 // accepted (non-NULL) value occurrences, all aggs
	distinct   int                 // base distinct accepted values
}

// noteExtrema folds one accepted value into the aggregate's canonical
// extrema: strictly beyond values replace the extremum, Compare-equal
// values with the identical encoding bump its multiplicity, and
// Compare-equal values with a smaller encoding become the new canonical
// representative (the tie-break Eval applies too).
func (ab *aggBase) noteExtrema(v relational.Value) {
	if ab.min.IsNull() {
		ab.min, ab.minN = v, 1
	} else if c := v.Compare(ab.min); c < 0 || (c == 0 && relational.EncodingLess(v, ab.min)) {
		ab.min, ab.minN = v, 1
	} else if c == 0 && relational.SameKey(v, ab.min) {
		ab.minN++
	}
	if ab.max.IsNull() {
		ab.max, ab.maxN = v, 1
	} else if c := v.Compare(ab.max); c > 0 || (c == 0 && relational.EncodingLess(v, ab.max)) {
		ab.max, ab.maxN = v, 1
	} else if c == 0 && relational.SameKey(v, ab.max) {
		ab.maxN++
	}
}

// multisetAgg reports whether the aggregate's delta decision runs on the
// stored value multiset: SUM and AVG (whose float accumulation is made
// order-insensitive by canonical summation) and COUNT(DISTINCT) (which
// needs per-value multiplicities).
func multisetAgg(a relational.Agg) bool {
	switch a.Op {
	case relational.AggSum, relational.AggAvg:
		return true
	case relational.AggCount:
		return a.Distinct
	}
	return false
}

// Plan is a query compiled against a base database. Every plan is stamped
// with the version of the database it compiled against (Version); on a
// base-database update, Rebase either delta-maintains the plan onto the
// successor snapshot or reports that it must be recompiled.
type Plan struct {
	q      *relational.SelectQuery
	fp     *relational.Footprint
	fpCols map[string][]bool // footprint as per-table column bitmaps (rule 1)
	baseFP uint64

	dbVersion uint64 // relational.Database.Version() at compile time

	// Fingerprint-maintenance state: baseFP decomposed into the header
	// hash and the per-row hash aggregates CombineFingerprint mixes, so a
	// Rebase can adjust them from the signed delta instead of re-running
	// the query. Every plan that can probe carries it; LIMIT and noProbe
	// plans leave it zero and are never rebased.
	hdrHash      uint64
	fpSum, fpXor uint64
	fpRows       int

	mode    evalMode
	aliases []*compiledAlias
	byTable []tableAliasEntry // per base table, the alias positions scanning it

	programs [][]probeStep // per start alias; nil when probing is impossible
	noProbe  bool

	projCols []colAt // projection output (modeProjection/modeDistinct)

	distinctCounts map[uint64]int // projected-row hash -> base multiplicity

	groupCols []colAt
	aggCols   []colAt // col == -1 for COUNT(*)
	groups    map[string]*groupState
}

// Version returns the version of the base database this plan was compiled
// (or rebased) against.
func (p *Plan) Version() uint64 { return p.dbVersion }

// Compile builds the plan against the base database. Every plan that can
// probe derives its base fingerprint from one enumeration of the base join
// over the freshly built scans and indexes: projection rows, DISTINCT
// multiplicities, or the per-group aggregate state (extrema, value
// multisets) the delta decisions replay against, each hashed as Eval's
// result encodes it (the fingerprint is order-insensitive, and SUM/AVG
// accumulate canonically — relational.CanonicalSum — so every aggregate
// output is a pure function of its group's value multiset). Only LIMIT
// plans and plans over a disconnected join graph evaluate the query with
// Eval. The plan keeps its own copy of q, so editing q afterwards never
// reaches it. The returned plan is read-only and safe for concurrent
// probes.
func Compile(db *relational.Database, q *relational.SelectQuery) (*Plan, error) {
	return compile(db, q, nil)
}

func compile(db *relational.Database, q *relational.SelectQuery, shared *IndexPool) (*Plan, error) {
	if len(q.Tables) == 0 {
		return nil, fmt.Errorf("plan: query %q has no tables", q.Name)
	}
	q = q.Clone()
	fp, err := q.Footprint(db)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		q:         q,
		fp:        fp,
		dbVersion: db.Version(),
	}
	switch {
	case len(q.Aggs) > 0:
		p.mode = modeAggregate
	case q.Limit > 0:
		p.mode = modeFullOnly
	case q.Distinct:
		p.mode = modeDistinct
	default:
		p.mode = modeProjection
	}

	if err := p.compileAliases(db, shared); err != nil {
		return nil, err
	}
	if err := p.compileOutputs(); err != nil {
		return nil, err
	}
	conds, err := p.normalizeJoins()
	if err != nil {
		return nil, err
	}
	if err := p.validateLeftDeep(conds); err != nil {
		return nil, err
	}
	p.buildIndexes(conds, db, shared)
	p.buildPrograms(conds)
	p.markUsedColumns(conds)
	p.buildFootprintBitmaps()

	if p.noProbe || p.mode == modeFullOnly {
		base, err := q.Eval(db)
		if err != nil {
			return nil, err
		}
		p.baseFP = base.Fingerprint()
		return p, nil
	}
	p.buildBaseState()
	return p, nil
}

// validateLeftDeep mirrors Eval's join-order requirement: every alias after
// the first must join to some earlier alias, even when the join graph is
// connected in another order.
func (p *Plan) validateLeftDeep(conds []joinAt) error {
	for i := 1; i < len(p.aliases); i++ {
		ok := false
		for _, jc := range conds {
			if jc.a == i && jc.b < i || jc.b == i && jc.a < i {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("plan: query %q: table %q has no join condition to the preceding tables (cross joins unsupported)", p.q.Name, p.aliases[i].alias)
		}
	}
	return nil
}

// buildFootprintBitmaps lowers the footprint into per-table column bitmaps
// so rule-1 checks are a map lookup and a slice index per delta.
func (p *Plan) buildFootprintBitmaps() {
	p.fpCols = make(map[string][]bool, len(p.byTable))
	for _, e := range p.byTable {
		schema := p.aliases[e.aliases[0]].schema
		cols := make([]bool, len(schema.Cols))
		for ci, c := range schema.Cols {
			cols[ci] = p.fp.Touches(e.table, c.Name)
		}
		p.fpCols[e.table] = cols
	}
}

// FootprintCols returns the footprint of one base table as a bitmap over
// its column indexes (shared; callers must not modify it) and whether the
// query reads the table at all. Row inserts and deletes touch the query
// whenever it reads their table; a cell update only when its column's bit
// is set.
func (p *Plan) FootprintCols(table string) ([]bool, bool) {
	cols, ok := p.fpCols[table]
	return cols, ok
}

// TouchesChanges implements pruning rule 1: it reports whether any change
// hits a column in the query's footprint. Row inserts and deletes change
// scan membership, so they touch whenever their table appears in the query
// at all — no column test applies.
func (p *Plan) TouchesChanges(changes []CellChange) bool {
	for _, c := range changes {
		cols, inQuery := p.fpCols[c.Table]
		if c.Op != relational.OpCellUpdate {
			if inQuery {
				return true
			}
			continue
		}
		if c.Col >= 0 && c.Col < len(cols) && cols[c.Col] {
			return true
		}
	}
	return false
}

// Query returns the compiled query.
func (p *Plan) Query() *relational.SelectQuery { return p.q }

// BaseFingerprint returns the fingerprint of the query's answer on the base
// database, for comparison against full re-evaluations.
func (p *Plan) BaseFingerprint() uint64 { return p.baseFP }

func (p *Plan) aliasName(i int) string {
	if i < len(p.q.Aliases) && p.q.Aliases[i] != "" {
		return p.q.Aliases[i]
	}
	return p.q.Tables[i]
}

func (p *Plan) compileAliases(db *relational.Database, shared *IndexPool) error {
	perAlias := make(map[string][]relational.Predicate)
	for _, pr := range p.q.Where {
		perAlias[pr.Col.Table] = append(perAlias[pr.Col.Table], pr)
	}
	for i := range p.q.Tables {
		t := db.Table(p.q.Tables[i])
		if t == nil {
			return fmt.Errorf("plan: query %q references unknown table %q", p.q.Name, p.q.Tables[i])
		}
		al := p.aliasName(i)
		for _, prev := range p.aliases {
			if prev.alias == al {
				return fmt.Errorf("plan: duplicate alias %q in query %q", al, p.q.Name)
			}
		}
		ca := &compiledAlias{
			alias:         al,
			table:         p.q.Tables[i],
			schema:        t.Schema,
			baseTableRows: t.Rows,
			indexes:       make(map[int]map[uint64][]int32),
			usedCols:      make([]bool, len(t.Schema.Cols)),
		}
		for _, pr := range perAlias[al] {
			ci := t.Schema.ColIndex(pr.Col.Col)
			if ci < 0 {
				return fmt.Errorf("plan: query %q: unknown column %q of %q", p.q.Name, pr.Col.Col, al)
			}
			ca.preds = append(ca.preds, predAt{col: ci, pred: pr})
		}
		if len(ca.preds) == 0 && !hasTombstones(t.Rows) {
			// Bare scan: share the table's row slice outright; positions
			// are row indices, so no position map is needed. Tables with
			// tombstoned (deleted) slots cannot be scanned bare — dead
			// slots must be invisible — so they compile as filtered scans
			// with liveness as the implicit predicate.
			ca.bare = true
			ca.rows = t.Rows
		} else if shared != nil && shared.db == db {
			// Workloads repeat pushed-down predicates across queries, so
			// the filtered scan is shared through the pool: one predicate
			// pass per distinct (table, predicate set) per snapshot, and
			// every adopting plan references the same read-only slices.
			ca.rows, ca.posOfBaseRow = shared.getScan(ca.table, predsKey(ca.preds), func() ([][]relational.Value, []int32) {
				return buildFilteredScanIndexed(t.Rows, ca, shared)
			})
		} else {
			ca.rows, ca.posOfBaseRow = buildFilteredScan(t.Rows, ca)
		}
		p.aliases = append(p.aliases, ca)
		p.addTableAlias(p.q.Tables[i], i)
	}
	return nil
}

func (p *Plan) addTableAlias(table string, ai int) {
	for j := range p.byTable {
		if p.byTable[j].table == table {
			p.byTable[j].aliases = append(p.byTable[j].aliases, ai)
			return
		}
	}
	p.byTable = append(p.byTable, tableAliasEntry{table: table, aliases: []int{ai}})
}

// aliasesOf returns the alias positions scanning a base table (nil when
// the table is not in the query).
func (p *Plan) aliasesOf(table string) []int {
	for i := range p.byTable {
		if p.byTable[i].table == table {
			return p.byTable[i].aliases
		}
	}
	return nil
}

// buildFilteredScan evaluates the alias's predicates over the table once:
// one pass collects the matching positions into pooled scratch, then the
// rows slice and position table are built exactly sized, since both
// persist (in the plan or the shared pool) and should carry no
// append-doubling garbage from construction.
func buildFilteredScan(tableRows [][]relational.Value, ca *compiledAlias) ([][]relational.Value, []int32) {
	ar := getCompileArena()
	match := ar.counts[:0]
	for ri, row := range tableRows {
		if ca.passes(row) {
			match = append(match, int32(ri))
		}
	}
	pos := make([]int32, len(tableRows))
	rows := make([][]relational.Value, len(match))
	for p, ri := range match {
		pos[ri] = int32(p) + 1
		rows[p] = tableRows[ri]
	}
	ar.counts = match
	ar.recycle()
	return rows, pos
}

// buildFilteredScanIndexed is buildFilteredScan accelerated through the
// shared pool: one pushed-down predicate is resolved against a pooled
// (table, column) structure — built once, shared by every compile on that
// column — and only the candidate window is checked against the remaining
// predicates. String equalities use the bare-scan hash index, whose
// posting list may also hold colliding keys, so that window re-checks its
// own predicate too. Ranges and numeric equalities use the pooled sorted
// order, whose Value.Compare ordering is the same relation every range
// operator is defined by, for every kind: that window is exact. Predicates
// no pooled structure captures fall back to the full predicate scan.
func buildFilteredScanIndexed(tableRows [][]relational.Value, ca *compiledAlias, shared *IndexPool) ([][]relational.Value, []int32) {
	for pi, pa := range ca.preds {
		var cand []int32
		inRowOrder, exact := false, true
		switch pr := pa.pred; {
		case pr.Op == relational.OpEq && pr.Val.K == relational.KindString:
			idx := shared.get(ca.table, pa.col, tableRows)
			cand = idx[keyHash(pr.Val)] // postings are ascending
			inRowOrder, exact = true, false
		case pr.Op == relational.OpEq, pr.Op == relational.OpLt, pr.Op == relational.OpLe,
			pr.Op == relational.OpGt, pr.Op == relational.OpGe, pr.Op == relational.OpBetween:
			order := shared.getSorted(ca.table, pa.col, tableRows)
			lo, hi := 0, len(order)
			switch pr.Op {
			case relational.OpEq:
				lo, hi = searchGE(order, tableRows, pa.col, pr.Val), searchGT(order, tableRows, pa.col, pr.Val)
			case relational.OpLt:
				hi = searchGE(order, tableRows, pa.col, pr.Val)
			case relational.OpLe:
				hi = searchGT(order, tableRows, pa.col, pr.Val)
			case relational.OpGt:
				lo = searchGT(order, tableRows, pa.col, pr.Val)
			case relational.OpGe:
				lo = searchGE(order, tableRows, pa.col, pr.Val)
			case relational.OpBetween:
				lo, hi = searchGE(order, tableRows, pa.col, pr.Val), searchGT(order, tableRows, pa.col, pr.Val2)
			}
			if hi < lo {
				hi = lo
			}
			cand = order[lo:hi] // ascending by value, not by row
		default:
			continue
		}
		ar := getCompileArena()
		if !inRowOrder {
			// Scans are in table order: re-sort the candidate window by
			// row index in pooled scratch before filtering.
			ar.aux = append(ar.aux[:0], cand...)
			slices.Sort(ar.aux)
			cand = ar.aux
		}
		match := ar.counts[:0]
		for _, ri := range cand {
			row := tableRows[ri]
			ok := true
			for pj, pb := range ca.preds {
				if (pj != pi || !exact) && !pb.pred.Matches(row[pb.col]) {
					ok = false
					break
				}
			}
			if ok {
				match = append(match, ri)
			}
		}
		pos := make([]int32, len(tableRows))
		rows := make([][]relational.Value, len(match))
		for p, ri := range match {
			pos[ri] = int32(p) + 1
			rows[p] = tableRows[ri]
		}
		ar.counts = match
		ar.recycle()
		return rows, pos
	}
	return buildFilteredScan(tableRows, ca)
}

// predsKey canonically encodes an alias's pushed-down predicates for the
// shared-scan pool: resolved column, operator, and the self-delimiting
// canonical encodings of every operand, in push-down order.
func predsKey(preds []predAt) string {
	var b []byte
	for _, pa := range preds {
		b = append(b, byte(pa.col>>8), byte(pa.col), byte(pa.pred.Op))
		b = pa.pred.Val.AppendEncode(b)
		b = pa.pred.Val2.AppendEncode(b)
		n := len(pa.pred.Set)
		b = append(b, byte(n>>8), byte(n))
		for _, v := range pa.pred.Set {
			b = v.AppendEncode(b)
		}
	}
	return string(b)
}

// hasTombstones reports whether any slot of a table's row slice is dead.
func hasTombstones(rows [][]relational.Value) bool {
	for _, row := range rows {
		if row == nil {
			return true
		}
	}
	return false
}

// passes reports predicate visibility; a tombstoned (nil) row is invisible
// to every scan regardless of predicates.
func (ca *compiledAlias) passes(row []relational.Value) bool {
	if row == nil {
		return false
	}
	for _, pa := range ca.preds {
		if !pa.pred.Matches(row[pa.col]) {
			return false
		}
	}
	return true
}

// resolve maps an alias.column reference onto the joined tuple.
func (p *Plan) resolve(ref relational.ColRef) (colAt, error) {
	for i := range p.aliases {
		if p.aliases[i].alias == ref.Table {
			ci := p.aliases[i].schema.ColIndex(ref.Col)
			if ci < 0 {
				return colAt{}, fmt.Errorf("plan: query %q: unknown column %q of %q", p.q.Name, ref.Col, ref.Table)
			}
			return colAt{alias: i, col: ci}, nil
		}
	}
	return colAt{}, fmt.Errorf("plan: query %q: unknown alias %q", p.q.Name, ref.Table)
}

func (p *Plan) compileOutputs() error {
	if p.mode == modeAggregate {
		for _, g := range p.q.GroupBy {
			at, err := p.resolve(g)
			if err != nil {
				return err
			}
			p.groupCols = append(p.groupCols, at)
		}
		for _, a := range p.q.Aggs {
			if a.Col.Col == "" {
				p.aggCols = append(p.aggCols, colAt{alias: -1, col: -1}) // COUNT(*)
				continue
			}
			at, err := p.resolve(a.Col)
			if err != nil {
				return err
			}
			p.aggCols = append(p.aggCols, at)
		}
		return nil
	}
	if len(p.q.Select) == 0 {
		// SELECT *: all columns of all aliases in declaration order.
		for i, ca := range p.aliases {
			for ci := range ca.schema.Cols {
				p.projCols = append(p.projCols, colAt{alias: i, col: ci})
			}
		}
		return nil
	}
	for _, ref := range p.q.Select {
		at, err := p.resolve(ref)
		if err != nil {
			return err
		}
		p.projCols = append(p.projCols, at)
	}
	return nil
}

// joinAt is a join condition with both sides resolved. Its comparison
// semantics are fixed at compile time from Eval's left-deep role: the
// first condition binding an alias to the preceding tables is a hash-join
// condition (canonical-encoding equality, NULL never matches), every
// further condition on that alias is a residual checked with coercing
// Equal (where NULL == NULL and Int(3) == Float(3)). Probing must honor
// the same role regardless of which direction a program traverses the
// condition, or cross-kind keys and NULLs decide differently than Eval.
type joinAt struct {
	a, ca    int
	b, cb    int
	coercing bool // residual condition: compare with Equal, never probe
}

func (p *Plan) normalizeJoins() ([]joinAt, error) {
	var out []joinAt
	for _, jc := range p.q.Joins {
		l, err := p.resolve(jc.Left)
		if err != nil {
			return nil, err
		}
		r, err := p.resolve(jc.Right)
		if err != nil {
			return nil, err
		}
		if l.alias == r.alias {
			continue // self-condition: Eval never consumes it
		}
		out = append(out, joinAt{a: l.alias, ca: l.col, b: r.alias, cb: r.col})
	}
	// Assign roles exactly as Eval does: for each alias in declaration
	// order, the first condition (in q.Joins order) linking it to an
	// earlier alias is the hash condition, the rest are residuals.
	for i := 1; i < len(p.aliases); i++ {
		first := true
		for ci := range out {
			jc := &out[ci]
			hi, lo := jc.a, jc.b
			if hi < lo {
				hi, lo = lo, hi
			}
			if hi != i || lo >= i {
				continue // not the condition that binds alias i
			}
			if first {
				first = false // hash condition: coercing stays false
				continue
			}
			jc.coercing = true
		}
	}
	return out, nil
}

// buildIndexes hashes every join column of every alias over its scan.
// With a pool for db, every scan came from the pool (compileAliases) and
// so does its index: per (table, column) for a bare scan, per (table,
// predicates, column) for a filtered one.
func (p *Plan) buildIndexes(conds []joinAt, db *relational.Database, shared *IndexPool) {
	pooled := shared != nil && shared.db == db
	add := func(alias, col int) {
		ca := p.aliases[alias]
		if _, ok := ca.indexes[col]; ok {
			return
		}
		switch {
		case pooled && ca.bare:
			ca.indexes[col] = shared.get(ca.table, col, ca.rows)
		case pooled:
			ca.indexes[col] = shared.getScanIndex(ca.table, predsKey(ca.preds), col, ca.rows)
		default:
			ca.indexes[col] = hashRows(ca.rows, col)
		}
	}
	for _, jc := range conds {
		if jc.coercing {
			continue // residuals are never probed through an index
		}
		add(jc.a, jc.ca)
		add(jc.b, jc.cb)
	}
}

// buildPrograms derives, for every possible start alias, the order in which
// the remaining aliases are bound by index probes. Every join condition is
// checked exactly once: as the probe of the step that binds its later side,
// or as a residual extra.
func (p *Plan) buildPrograms(conds []joinAt) {
	k := len(p.aliases)
	p.programs = make([][]probeStep, k)
	for s := 0; s < k; s++ {
		bound := make([]bool, k)
		bound[s] = true
		var steps []probeStep
		for n := 1; n < k; n++ {
			step, ok := nextStep(conds, bound)
			if !ok {
				p.noProbe = true // disconnected join graph: probe impossible
				p.programs = nil
				return
			}
			bound[step.target] = true
			steps = append(steps, step)
		}
		p.programs[s] = steps
	}
}

// nextStep picks the lowest-numbered unbound alias reachable from the
// bound set through a hash (non-coercing) condition — those conditions
// form a spanning tree over the aliases, so one always exists — and
// gathers every other condition linking it there as a role-tagged extra.
func nextStep(conds []joinAt, bound []bool) (probeStep, bool) {
	for t := range bound {
		if bound[t] {
			continue
		}
		st := probeStep{target: t}
		found := false
		for _, jc := range conds {
			ta, tc, oa, oc := jc.a, jc.ca, jc.b, jc.cb
			if ta != t {
				ta, tc, oa, oc = jc.b, jc.cb, jc.a, jc.ca
			}
			if ta != t || !bound[oa] {
				continue
			}
			if !found && !jc.coercing {
				// The probe condition; extras gathered before or after it
				// must survive, so only these fields are set.
				st.probeCol, st.fromAlias, st.fromCol = tc, oa, oc
				found = true
				continue
			}
			st.extras = append(st.extras, extraEq{targetCol: tc, fromAlias: oa, fromCol: oc, coercing: jc.coercing})
		}
		if found {
			return st, true
		}
	}
	return probeStep{}, false
}

// markUsedColumns records, per alias, the columns the query reads; a cell
// change to an unused column leaves the alias's contribution untouched.
func (p *Plan) markUsedColumns(conds []joinAt) {
	for _, ca := range p.aliases {
		for _, pa := range ca.preds {
			ca.usedCols[pa.col] = true
		}
	}
	for _, jc := range conds {
		p.aliases[jc.a].usedCols[jc.ca] = true
		p.aliases[jc.b].usedCols[jc.cb] = true
	}
	mark := func(at colAt) {
		if at.alias >= 0 && at.col >= 0 {
			p.aliases[at.alias].usedCols[at.col] = true
		}
	}
	for _, at := range p.projCols {
		mark(at)
	}
	for _, at := range p.groupCols {
		mark(at)
	}
	for _, at := range p.aggCols {
		mark(at)
	}
}

// buildBaseState enumerates the base join once, recording what each mode
// needs — the projected rows (projection), the multiplicity map
// (DISTINCT) or the per-group aggregate state — and derives from it the
// fingerprint terms and the base fingerprint: one hash per output row,
// encoded exactly as Eval's result encodes it.
func (p *Plan) buildBaseState() {
	switch p.mode {
	case modeDistinct:
		p.distinctCounts = make(map[uint64]int)
	case modeAggregate:
		p.groups = make(map[string]*groupState)
	}
	r := &runner{p: p, deltaAlias: -1, tuple: make([][]relational.Value, len(p.aliases))}
	var buf, encBuf []byte
	var sum, xor uint64
	rows := 0
	r.emit = func(sign int) {
		switch p.mode {
		case modeProjection:
			h := p.projHash(r.tuple, &buf)
			sum += h
			xor ^= h
			rows++
		case modeDistinct:
			p.distinctCounts[p.projHash(r.tuple, &buf)]++
		case modeAggregate:
			buf = p.groupKey(r.tuple, buf[:0])
			gs := p.groups[string(buf)]
			if gs == nil {
				gs = &groupState{aggs: make([]aggBase, len(p.q.Aggs))}
				p.groups[string(buf)] = gs
			}
			gs.rows++
			for ai, at := range p.aggCols {
				if at.col < 0 {
					continue
				}
				v := r.tuple[at.alias][at.col]
				if v.IsNull() {
					continue
				}
				ab := &gs.aggs[ai]
				ab.cnt++
				ab.noteExtrema(v)
				if multisetAgg(p.q.Aggs[ai]) {
					if ab.vals == nil {
						ab.vals = make(map[string]valCount)
					}
					encBuf = v.AppendEncode(encBuf[:0])
					vc := ab.vals[string(encBuf)]
					if vc.n == 0 {
						vc.f = v.AsFloat()
					}
					vc.n++
					ab.vals[string(encBuf)] = vc
				}
			}
		}
	}
	// Start from the smallest scan: every program checks each join
	// condition exactly once, so any start alias enumerates the same tuple
	// multiset, and every accumulator above ignores order (hash sums and
	// xors, multiplicity counts, group counts, value multisets, canonical
	// extrema with the encoding tie-break).
	start := 0
	for ai, ca := range p.aliases {
		if len(ca.rows) < len(p.aliases[start].rows) {
			start = ai
		}
	}
	prog := p.programs[start]
	for _, row := range p.aliases[start].rows {
		r.tuple[start] = row
		r.step(prog, 0, +1)
	}
	switch p.mode {
	case modeDistinct:
		// The DISTINCT result is the support of the multiplicity map; its
		// fingerprint combines each distinct row hash once.
		for h := range p.distinctCounts {
			sum += h
			xor ^= h
			rows++
		}
	case modeAggregate:
		// Scalar aggregation over zero rows still has one output row.
		if len(p.q.GroupBy) == 0 && len(p.groups) == 0 {
			p.groups[""] = &groupState{aggs: make([]aggBase, len(p.q.Aggs))}
		}
		// Finalize the multiset aggregates: sorted key order, counts, and
		// the canonical base sum, all precomputed so probes only merge the
		// (small) delta overlay against them.
		for _, gs := range p.groups {
			for ai := range gs.aggs {
				if !multisetAgg(p.q.Aggs[ai]) {
					continue
				}
				ab := &gs.aggs[ai]
				ab.sortedKeys = make([]string, 0, len(ab.vals))
				for k := range ab.vals {
					ab.sortedKeys = append(ab.sortedKeys, k)
				}
				slices.Sort(ab.sortedKeys)
				ab.distinct = len(ab.vals)
				var comp float64
				for _, k := range ab.sortedKeys {
					vc := ab.vals[k]
					reps := vc.n
					if p.q.Aggs[ai].Distinct {
						reps = 1 // Eval's DISTINCT filter accepts each value once
					}
					for i := 0; i < reps; i++ {
						ab.sum, comp = relational.AddKahan(ab.sum, comp, vc.f)
					}
				}
			}
		}
		// One output row per group.
		for key, gs := range p.groups {
			var h uint64
			h, buf = p.groupRowHash(key, gs, buf)
			sum += h
			xor ^= h
			rows++
		}
	}
	p.hdrHash = p.headerHash()
	p.fpSum, p.fpXor, p.fpRows = sum, xor, rows
	p.baseFP = relational.CombineFingerprint(p.hdrHash, sum, xor, rows)
}

// groupRowHash hashes the output row of one aggregate group exactly as
// Eval's result encodes it: the group-by key encodings (the map key bytes)
// followed by each aggregate's finalized output value. The scratch buffer
// is returned for reuse.
func (p *Plan) groupRowHash(key string, gs *groupState, buf []byte) (uint64, []byte) {
	b := append(buf[:0], key...)
	for ai := range p.q.Aggs {
		b = appendAggOutput(b, p.q.Aggs[ai], p.aggCols[ai].col < 0, gs.rows, &gs.aggs[ai])
	}
	return relational.HashBytes(b), b
}

// appendAggOutput appends the canonical encoding of one aggregate's output
// value, mirroring Eval's finalization: COUNT yields Int, SUM/AVG yield
// Float (NULL over zero accepted values), MIN/MAX yield the stored
// canonical extremum (NULL when no value was accepted).
func appendAggOutput(b []byte, a relational.Agg, star bool, rows int, ab *aggBase) []byte {
	switch a.Op {
	case relational.AggCount:
		n := ab.cnt
		switch {
		case star:
			n = rows
		case a.Distinct:
			n = ab.distinct
		}
		return relational.Int(int64(n)).AppendEncode(b)
	case relational.AggSum, relational.AggAvg:
		n := ab.cnt
		if a.Distinct {
			n = ab.distinct
		}
		if n == 0 {
			return relational.Null().AppendEncode(b)
		}
		out := ab.sum
		if a.Op == relational.AggAvg {
			out /= float64(n)
		}
		return relational.Float(out).AppendEncode(b)
	case relational.AggMin:
		return ab.min.AppendEncode(b)
	default: // AggMax
		return ab.max.AppendEncode(b)
	}
}

// headerHash reproduces the column names an Eval result would carry for
// the plan's output — the group-by refs then each aggregate's column name
// for aggregates, ref.String() for explicit SELECT lists, alias.column
// over every alias for SELECT * — and hashes them with the shared helper,
// so the value is byte-identical to the Eval result's.
func (p *Plan) headerHash() uint64 {
	var names []string
	switch {
	case p.mode == modeAggregate:
		for _, ref := range p.q.GroupBy {
			names = append(names, ref.String())
		}
		for _, a := range p.q.Aggs {
			names = append(names, a.ColumnName())
		}
	case len(p.q.Select) == 0:
		for _, ca := range p.aliases {
			for _, c := range ca.schema.Cols {
				names = append(names, ca.alias+"."+c.Name)
			}
		}
	default:
		for _, ref := range p.q.Select {
			names = append(names, ref.String())
		}
	}
	return relational.HeaderHash(names)
}

// projHash hashes the projected row of a tuple (FNV-1a over the canonical
// value encoding, matching Result.Fingerprint's per-row hash).
func (p *Plan) projHash(tuple [][]relational.Value, buf *[]byte) uint64 {
	b := (*buf)[:0]
	for _, at := range p.projCols {
		b = tuple[at.alias][at.col].AppendEncode(b)
	}
	*buf = b
	return relational.HashBytes(b)
}

func (p *Plan) groupKey(tuple [][]relational.Value, b []byte) []byte {
	for _, at := range p.groupCols {
		b = tuple[at.alias][at.col].AppendEncode(b)
	}
	return b
}

// keyHashMask narrows the join-index key hashes. It is all ones; collision
// tests clear bits of it so distinct keys share a posting list and only
// the SameKey confirmation tells them apart.
var keyHashMask = ^uint64(0)

// keyHash is the key of a join-index posting list: the value's canonical
// encoding hash (relational.Value.KeyHash). A list may hold rows of
// several colliding keys, so every lookup confirms each posting with
// relational.SameKey.
func keyHash(v relational.Value) uint64 { return v.KeyHash() & keyHashMask }

// aliasPatch is a neighbor's effect on one alias's scan.
type aliasPatch struct {
	removedPos []int32
	added      [][]relational.Value
	// removedSet mirrors removedPos for large patches only (built by
	// buildPatches past removedSetThreshold): neighbor probes remove one
	// or two rows and scan linearly, but a coalesced multi-batch Rebase
	// can remove hundreds, and the enumeration checks membership per
	// probed posting.
	removedSet map[int32]struct{}
}

// removedSetThreshold is the removedPos length past which buildPatches
// adds the membership map.
const removedSetThreshold = 16

func (ap *aliasPatch) empty() bool {
	return ap == nil || (len(ap.removedPos) == 0 && len(ap.added) == 0)
}

// isRemoved reports whether a scan position is removed by the patch. The
// removed list is almost always a single position (one changed row), so a
// linear scan wins; large (rebase-sized) patches carry the map.
func (ap *aliasPatch) isRemoved(pos int32) bool {
	if ap.removedSet != nil {
		_, ok := ap.removedSet[pos]
		return ok
	}
	for _, rp := range ap.removedPos {
		if rp == pos {
			return true
		}
	}
	return false
}

// buildPatches turns cell changes into per-alias scan deltas, filling the
// caller's patch set and carving patched rows from the row arena (both
// typically live in a worker's plan.Arena, so the hot path allocates
// nothing). Rows whose changes touch only columns the alias never reads
// are skipped: their old and new versions are indistinguishable to the
// query. Changes touching a single row — the overwhelmingly common
// neighbor shape — take a grouping-free fast path.
func (p *Plan) buildPatches(changes []CellChange, ps *patchSet, ra *rowArena) {
	ps.reset(len(p.aliases))
	sameRow := true
	for i := 0; i < len(changes); i++ {
		// Un-normalized inserts (Row < 0) have no shared identity, so two
		// of them must never collapse into one group.
		if changes[i].Op == relational.OpRowInsert && changes[i].Row < 0 && len(changes) > 1 {
			sameRow = false
			break
		}
		if changes[i].Table != changes[0].Table || changes[i].Row != changes[0].Row {
			sameRow = false
			break
		}
	}
	if sameRow {
		if len(changes) > 0 {
			p.patchGroup(ps, ra, changes[0].Table, changes[0].Row, changes)
		}
		return
	}
	// Group changes by (table, row) so multi-delta rows patch once.
	type rowKey struct {
		table string
		row   int
	}
	byRow := make(map[rowKey][]CellChange, len(changes))
	var order []rowKey
	for i, c := range changes {
		k := rowKey{c.Table, c.Row}
		if c.Op == relational.OpRowInsert && c.Row < 0 {
			// Synthetic key: each un-normalized insert is its own group
			// (indices start at -2 so they can't collide with Row -1).
			k = rowKey{c.Table, -(i + 2)}
		}
		if _, seen := byRow[k]; !seen {
			order = append(order, k)
		}
		byRow[k] = append(byRow[k], c)
	}
	for _, rk := range order {
		p.patchGroup(ps, ra, rk.table, rk.row, byRow[rk])
	}
	for _, ap := range ps.byAlias {
		if ap != nil && len(ap.removedPos) > removedSetThreshold {
			ap.removedSet = make(map[int32]struct{}, len(ap.removedPos))
			for _, pos := range ap.removedPos {
				ap.removedSet[pos] = struct{}{}
			}
		}
	}
}

// relevantToAlias reports whether any change to (table, row) touches a
// column the alias reads; if none does, the row's old and new versions
// are indistinguishable to the query. Changes to other (table, row)
// cells in the list are ignored, so callers may pass an unfiltered
// change list.
func relevantToAlias(ca *compiledAlias, table string, row int, changes []CellChange) bool {
	for i := range changes {
		c := &changes[i]
		if c.Op != relational.OpCellUpdate {
			continue // inserts/deletes change membership, not cells
		}
		if c.Table == table && c.Row == row &&
			c.Col >= 0 && c.Col < len(ca.usedCols) && ca.usedCols[c.Col] {
			return true
		}
	}
	return false
}

// visibleAfter reports whether the patched version of (table, row) passes
// the alias's predicates, evaluating each predicate against the group's
// last change to that column (or the base value) without materializing
// the patched row. It is the definition of post-change visibility for
// patch construction, for the input-untouched pre-pass over change groups
// and for LocallyPruned; a one-cell-update group's pre-pass is
// cellTouched, which
// FuzzSingleCellInputTouched holds to the same predicates.
func visibleAfter(ca *compiledAlias, table string, row int, baseRow []relational.Value, changes []CellChange) bool {
	for pi := range ca.preds {
		pa := &ca.preds[pi]
		v := baseRow[pa.col]
		for j := len(changes) - 1; j >= 0; j-- {
			c := &changes[j]
			if c.Op == relational.OpCellUpdate &&
				c.Table == table && c.Row == row && c.Col == pa.col {
				v = c.New
				break
			}
		}
		if !pa.pred.Matches(v) {
			return false
		}
	}
	return true
}

// groupShape summarizes the DML content of one (table, row) change group:
// born is the inserted row's values when the group contains an insert (the
// row did not exist before the window), dead reports a delete (the row
// does not exist after it). A group that is both born and dead is vacuous
// on both sides of the window.
func groupShape(group []CellChange) (born []relational.Value, dead bool) {
	for i := range group {
		switch group[i].Op {
		case relational.OpRowInsert:
			born = group[i].Vals
		case relational.OpRowDelete:
			dead = true
		}
	}
	return born, dead
}

// overlayCells writes the group's cell updates (last-wins) onto a
// materialized row. Non-cell ops and other rows' changes are ignored.
func overlayCells(patched []relational.Value, table string, row int, group []CellChange) {
	for i := range group {
		c := &group[i]
		if c.Op == relational.OpCellUpdate && c.Table == table && c.Row == row &&
			c.Col >= 0 && c.Col < len(patched) {
			patched[c.Col] = c.New
		}
	}
}

// patchGroup applies one (table, row) change group to every alias over
// that table, appending to the per-alias patches. Patched rows are carved
// from the row arena. Groups may mix an insert or a delete with cell
// updates (coalesced multi-batch windows do): a born row is a pure
// addition if its final version is visible, a dead row a pure removal if
// the alias scanned it, and a born-and-dead row is invisible on both
// sides.
func (p *Plan) patchGroup(ps *patchSet, ra *rowArena, table string, row int, group []CellChange) {
	born, dead := groupShape(group)
	if born != nil && dead {
		return
	}
	for _, ai := range p.aliasesOf(table) {
		ca := p.aliases[ai]
		if born != nil {
			if len(born) != len(ca.schema.Cols) {
				continue // malformed insert: not visible to any scan
			}
			if !visibleAfter(ca, table, row, born, group) {
				continue
			}
			patched := ra.row(len(born))
			copy(patched, born)
			overlayCells(patched, table, row, group)
			ps.at(ai).added = append(ps.at(ai).added, patched)
			continue
		}
		if row < 0 || row >= len(ca.baseTableRows) || ca.baseTableRows[row] == nil {
			continue // out-of-range or already-dead slot: nothing to patch
		}
		if dead {
			if pos, inScan := ca.scanPos(row); inScan {
				ps.at(ai).removedPos = append(ps.at(ai).removedPos, pos)
			}
			continue
		}
		if !relevantToAlias(ca, table, row, group) {
			continue
		}
		pos, inScan := ca.scanPos(row)
		baseRow := ca.baseTableRows[row]
		newPass := visibleAfter(ca, table, row, baseRow, group)
		if !inScan && !newPass {
			continue
		}
		ap := ps.at(ai)
		if inScan {
			ap.removedPos = append(ap.removedPos, pos)
		}
		if newPass {
			patched := ra.row(len(baseRow))
			copy(patched, baseRow)
			overlayCells(patched, table, row, group)
			ap.added = append(ap.added, patched)
		}
	}
}
