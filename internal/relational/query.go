package relational

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// ColRef names a column of a table (or table alias) inside a query.
type ColRef struct {
	Table string // table name or alias
	Col   string
}

// String renders the reference as "table.col", the column name an Eval
// result carries for it.
func (c ColRef) String() string { return c.Table + "." + c.Col }

// PredOp is a predicate comparison operator.
type PredOp uint8

const (
	// OpEq is column = constant.
	OpEq PredOp = iota
	// OpNe is column <> constant.
	OpNe
	// OpLt is column < constant.
	OpLt
	// OpLe is column <= constant.
	OpLe
	// OpGt is column > constant.
	OpGt
	// OpGe is column >= constant.
	OpGe
	// OpBetween is constant <= column <= constant2.
	OpBetween
	// OpLikePrefix is column LIKE 'prefix%'.
	OpLikePrefix
	// OpIn is column IN (set).
	OpIn
)

// Predicate is a single column-versus-constant condition; queries AND them.
type Predicate struct {
	Col  ColRef
	Op   PredOp
	Val  Value
	Val2 Value   // upper bound for OpBetween
	Set  []Value // members for OpIn
}

// Matches evaluates the predicate on a cell value. NULL never matches.
func (p Predicate) Matches(v Value) bool {
	if v.IsNull() {
		return false
	}
	switch p.Op {
	case OpEq:
		return v.Equal(p.Val)
	case OpNe:
		return !v.Equal(p.Val)
	case OpLt:
		return v.Compare(p.Val) < 0
	case OpLe:
		return v.Compare(p.Val) <= 0
	case OpGt:
		return v.Compare(p.Val) > 0
	case OpGe:
		return v.Compare(p.Val) >= 0
	case OpBetween:
		return v.Compare(p.Val) >= 0 && v.Compare(p.Val2) <= 0
	case OpLikePrefix:
		return v.K == KindString && strings.HasPrefix(v.S, p.Val.S)
	case OpIn:
		for _, s := range p.Set {
			if v.Equal(s) {
				return true
			}
		}
		return false
	}
	return false
}

func (p Predicate) render() string {
	switch p.Op {
	case OpEq:
		return fmt.Sprintf("%s = %s", p.Col, p.Val)
	case OpNe:
		return fmt.Sprintf("%s <> %s", p.Col, p.Val)
	case OpLt:
		return fmt.Sprintf("%s < %s", p.Col, p.Val)
	case OpLe:
		return fmt.Sprintf("%s <= %s", p.Col, p.Val)
	case OpGt:
		return fmt.Sprintf("%s > %s", p.Col, p.Val)
	case OpGe:
		return fmt.Sprintf("%s >= %s", p.Col, p.Val)
	case OpBetween:
		return fmt.Sprintf("%s BETWEEN %s AND %s", p.Col, p.Val, p.Val2)
	case OpLikePrefix:
		return fmt.Sprintf("%s LIKE '%s%%'", p.Col, p.Val.S)
	case OpIn:
		parts := make([]string, len(p.Set))
		for i, s := range p.Set {
			parts[i] = s.String()
		}
		return fmt.Sprintf("%s IN (%s)", p.Col, strings.Join(parts, ", "))
	}
	return "?"
}

// JoinCond is an equality join condition between two table aliases.
type JoinCond struct {
	Left  ColRef
	Right ColRef
}

// AggOp is an aggregate operator.
type AggOp uint8

const (
	// AggCount is COUNT(col) (or COUNT(*) when Col.Col is empty).
	AggCount AggOp = iota
	// AggSum is SUM(col).
	AggSum
	// AggAvg is AVG(col).
	AggAvg
	// AggMin is MIN(col).
	AggMin
	// AggMax is MAX(col).
	AggMax
)

// Agg is one aggregate in the SELECT list.
type Agg struct {
	Op       AggOp
	Col      ColRef // Col.Col == "" means COUNT(*)
	Distinct bool
}

// ColumnName is the aggregate's output column name in an Eval result (and
// its rendering in SelectQuery.String), e.g. "count(distinct T.V)".
func (a Agg) ColumnName() string {
	name := [...]string{"count", "sum", "avg", "min", "max"}[a.Op]
	arg := "*"
	if a.Col.Col != "" {
		arg = a.Col.String()
	}
	if a.Distinct {
		arg = "distinct " + arg
	}
	return fmt.Sprintf("%s(%s)", name, arg)
}

// SelectQuery is a deterministic query: selections, projections, left-deep
// multi-way equi-joins, optional GROUP BY with aggregates, DISTINCT, LIMIT.
// Tables lists base tables in join order; each may carry an alias (defaults
// to the table name). All referenced ColRef.Table values are aliases.
type SelectQuery struct {
	Name     string // label for logs and pricing
	Tables   []string
	Aliases  []string // optional, same length as Tables when set
	Joins    []JoinCond
	Where    []Predicate
	GroupBy  []ColRef
	Aggs     []Agg
	Select   []ColRef // plain projection columns ("" table means only table); empty with no Aggs = SELECT *
	Distinct bool
	Limit    int // 0 = no limit
}

// Clone returns a deep copy of the query: editing the copy's slices (or a
// predicate's IN set) never reaches the original, and vice versa.
func (q *SelectQuery) Clone() *SelectQuery {
	c := *q
	c.Tables = slices.Clone(q.Tables)
	c.Aliases = slices.Clone(q.Aliases)
	c.Joins = slices.Clone(q.Joins)
	c.Where = slices.Clone(q.Where)
	for i := range c.Where {
		c.Where[i].Set = slices.Clone(c.Where[i].Set)
	}
	c.GroupBy = slices.Clone(q.GroupBy)
	c.Aggs = slices.Clone(q.Aggs)
	c.Select = slices.Clone(q.Select)
	return &c
}

// Result is a materialized query output.
type Result struct {
	Cols []string
	Rows [][]Value
}

// FNV-1a parameters for HeaderHash: header hashing runs once per
// compile, so it keeps the simple byte-at-a-time form.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashMix is the 128-bit-multiply mixing step of HashBytes (the wyhash
// family construction): full avalanche per word at one multiply.
func hashMix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// HashBytes returns a 64-bit hash of b — the per-row hash inside
// Fingerprint, exported so the plan layer can maintain fingerprints
// incrementally from projected-row encodings. Row hashing dominates
// conflict-set computation, so it consumes eight bytes per step with
// multiply mixing rather than byte-at-a-time FNV. The function is a pure
// function of the bytes (stable within and across processes), but the
// concrete values are an internal detail: fingerprints are only ever
// compared against fingerprints computed by the same code.
func HashBytes(b []byte) uint64 {
	const (
		k0 = 0x9e3779b97f4a7c15
		k1 = 0xff51afd7ed558ccd
		k2 = 0xc4ceb9fe1a85ec53
	)
	h := k0 ^ hashMix(uint64(len(b))+1, k1)
	for ; len(b) >= 8; b = b[8:] {
		h = hashMix(h^binary.LittleEndian.Uint64(b), k2)
	}
	if len(b) > 0 {
		var tail uint64
		for i := 0; i < len(b); i++ {
			tail |= uint64(b[i]) << (8 * uint(i))
		}
		h = hashMix(h^tail, k1)
	}
	return h
}

// HeaderHash hashes a result's column names exactly as Fingerprint does.
func HeaderHash(cols []string) uint64 {
	hdr := uint64(fnvOffset64)
	for _, c := range cols {
		for i := 0; i < len(c); i++ {
			hdr = (hdr ^ uint64(c[i])) * fnvPrime64
		}
		hdr *= fnvPrime64 // the 0 separator: hdr ^ 0 is hdr
	}
	return hdr
}

// CombineFingerprint mixes a header hash with per-row hash aggregates (the
// sum and xor of HashBytes over every row's encoding, and the row count)
// into the final fingerprint. Fingerprint is defined in terms of it, so
// any party that can produce the same aggregates reproduces the same
// fingerprint bit-for-bit.
func CombineFingerprint(hdr, sum, xor uint64, rows int) uint64 {
	return hdr ^ sum ^ (xor * 0x9e3779b97f4a7c15) ^ uint64(rows)<<1
}

// Fingerprint returns an order-insensitive 64-bit hash of the result
// (column names + multiset of rows). Two results compare equal for pricing
// purposes iff their fingerprints match; collisions are negligible at the
// support sizes used here. The per-row hash is HashBytes over the
// canonical row encoding, inlined so the hot loop allocates nothing
// beyond one reused encode buffer.
func (r *Result) Fingerprint() uint64 {
	var sum, xor uint64
	buf := make([]byte, 0, 64)
	for _, row := range r.Rows {
		buf = buf[:0]
		for _, v := range row {
			buf = v.AppendEncode(buf)
		}
		hv := HashBytes(buf)
		sum += hv
		xor ^= hv
	}
	return CombineFingerprint(HeaderHash(r.Cols), sum, xor, len(r.Rows))
}

// Footprint is the set of (table, column) pairs a query depends on, used by
// the support/conflict-set machinery to prune neighbors that cannot change
// the query's answer.
type Footprint struct {
	// Columns maps table name -> set of column names the query reads.
	Columns map[string]map[string]bool
}

// Touches reports whether a change to table.col can affect the query.
func (f *Footprint) Touches(table, col string) bool {
	cols, ok := f.Columns[table]
	if !ok {
		return false
	}
	return cols[col]
}

func (q *SelectQuery) alias(i int) string {
	if i < len(q.Aliases) && q.Aliases[i] != "" {
		return q.Aliases[i]
	}
	return q.Tables[i]
}

func (q *SelectQuery) aliasTable(alias string) (string, bool) {
	for i := range q.Tables {
		if q.alias(i) == alias {
			return q.Tables[i], true
		}
	}
	return "", false
}

// Footprint computes the column footprint of the query against a database
// (needed to expand SELECT * to concrete columns).
func (q *SelectQuery) Footprint(db *Database) (*Footprint, error) {
	f := &Footprint{Columns: make(map[string]map[string]bool)}
	add := func(ref ColRef) error {
		table, ok := q.aliasTable(ref.Table)
		if !ok {
			return fmt.Errorf("relational: query %q references unknown alias %q", q.Name, ref.Table)
		}
		if f.Columns[table] == nil {
			f.Columns[table] = make(map[string]bool)
		}
		f.Columns[table][ref.Col] = true
		return nil
	}
	for _, j := range q.Joins {
		if err := add(j.Left); err != nil {
			return nil, err
		}
		if err := add(j.Right); err != nil {
			return nil, err
		}
	}
	for _, p := range q.Where {
		if err := add(p.Col); err != nil {
			return nil, err
		}
	}
	for _, g := range q.GroupBy {
		if err := add(g); err != nil {
			return nil, err
		}
	}
	for _, a := range q.Aggs {
		if a.Col.Col == "" {
			// COUNT(*) depends on row membership: predicates and join
			// columns already added cover it; a delta on an unreferenced
			// column cannot change the count.
			continue
		}
		if err := add(a.Col); err != nil {
			return nil, err
		}
	}
	if len(q.Select) == 0 && len(q.Aggs) == 0 {
		// SELECT *: every column of every table.
		for i := range q.Tables {
			t := db.Table(q.Tables[i])
			if t == nil {
				return nil, fmt.Errorf("relational: query %q references unknown table %q", q.Name, q.Tables[i])
			}
			for _, c := range t.Schema.Cols {
				if err := add(ColRef{q.alias(i), c.Name}); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, s := range q.Select {
		if err := add(s); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// colIndexes maps alias.column references to offsets in the joined row.
type binding struct {
	offsets map[string]int // alias -> offset of its first column
	schemas map[string]*Schema
}

func (b *binding) index(ref ColRef) (int, error) {
	off, ok := b.offsets[ref.Table]
	if !ok {
		return 0, fmt.Errorf("relational: unknown alias %q", ref.Table)
	}
	ci := b.schemas[ref.Table].ColIndex(ref.Col)
	if ci < 0 {
		return 0, fmt.Errorf("relational: unknown column %q of %q", ref.Col, ref.Table)
	}
	return off + ci, nil
}

// Eval executes the query against the database.
func (q *SelectQuery) Eval(db *Database) (*Result, error) {
	if len(q.Tables) == 0 {
		return nil, fmt.Errorf("relational: query %q has no tables", q.Name)
	}
	// All join intermediates — filtered scans, the hash table, the combined
	// tuples — come from a pooled scratch; the Result aliases none of it.
	s := evalScratchPool.Get().(*evalScratch)
	defer s.release()
	// Partition predicates per alias for pushdown.
	perAlias := make(map[string][]Predicate)
	for _, p := range q.Where {
		perAlias[p.Col.Table] = append(perAlias[p.Col.Table], p)
	}

	bind := &binding{offsets: make(map[string]int), schemas: make(map[string]*Schema)}
	var joined [][]Value
	width := 0
	nextBuf := 1 // ping-pong: which of bufA/bufB the next join output uses
	for i := range q.Tables {
		t := db.Table(q.Tables[i])
		if t == nil {
			return nil, fmt.Errorf("relational: query %q references unknown table %q", q.Name, q.Tables[i])
		}
		al := q.alias(i)
		if _, dup := bind.offsets[al]; dup {
			return nil, fmt.Errorf("relational: duplicate alias %q in query %q", al, q.Name)
		}
		// Scan with pushed-down predicates.
		preds := perAlias[al]
		var idxPreds []struct {
			ci int
			p  Predicate
		}
		for _, p := range preds {
			ci := t.Schema.ColIndex(p.Col.Col)
			if ci < 0 {
				return nil, fmt.Errorf("relational: query %q: unknown column %q of %q", q.Name, p.Col.Col, al)
			}
			idxPreds = append(idxPreds, struct {
				ci int
				p  Predicate
			}{ci, p})
		}
		scanned := s.scan[:0]
		if i == 0 {
			scanned = s.bufA[:0] // the first scan IS the running join result
		}
		for _, row := range t.Rows {
			if row == nil {
				continue // tombstoned slot: deleted rows are invisible to scans
			}
			ok := true
			for _, ip := range idxPreds {
				if !ip.p.Matches(row[ip.ci]) {
					ok = false
					break
				}
			}
			if ok {
				scanned = append(scanned, row)
			}
		}

		if i == 0 {
			bind.offsets[al] = 0
			bind.schemas[al] = t.Schema
			width = len(t.Schema.Cols)
			joined = scanned
			s.bufA = scanned // retain any growth for the next Eval
			continue
		}
		s.scan = scanned

		// Find the join conditions connecting this table to the prefix.
		var conds []JoinCond
		for _, jc := range q.Joins {
			l, r := jc.Left, jc.Right
			if r.Table == al {
				l, r = r, l // normalize: left side is the new alias
			}
			if l.Table != al {
				continue
			}
			if _, seen := bind.offsets[r.Table]; !seen {
				continue
			}
			conds = append(conds, JoinCond{Left: l, Right: r})
		}
		if len(conds) == 0 {
			return nil, fmt.Errorf("relational: query %q: table %q has no join condition to the preceding tables (cross joins unsupported)", q.Name, al)
		}

		// Hash join on the first condition; filter the rest.
		newOffset := width
		bind.offsets[al] = newOffset
		bind.schemas[al] = t.Schema
		width += len(t.Schema.Cols)

		probeIdx, err := bind.index(conds[0].Right)
		if err != nil {
			return nil, err
		}
		buildCi := t.Schema.ColIndex(conds[0].Left.Col)
		if buildCi < 0 {
			return nil, fmt.Errorf("relational: query %q: unknown join column %q of %q", q.Name, conds[0].Left.Col, al)
		}
		// Hash build in two passes over the scratch: count rows per key
		// hash, carve every posting list from one exactly-sized slab, then
		// fill. A bucket holds every row whose key hashes alike, in scan
		// order, and the probe confirms each with SameKey — so a collision
		// costs a comparison, and join enumeration order (and therefore
		// projection output and LIMIT semantics) is that of an exact-key
		// build.
		clear(s.hash)
		s.buckets = s.buckets[:0]
		slot := s.slot[:0]
		nonNull := 0
		for _, row := range scanned {
			v := row[buildCi]
			if v.IsNull() {
				slot = append(slot, -1)
				continue
			}
			nonNull++
			h := v.KeyHash() & joinKeyMask
			bi, ok := s.hash[h]
			if ok {
				s.buckets[bi].n++
			} else {
				bi = int32(len(s.buckets))
				s.hash[h] = bi
				s.buckets = append(s.buckets, joinBucket{n: 1})
			}
			slot = append(slot, bi)
		}
		s.slot = slot
		if cap(s.posts) < nonNull {
			s.posts = make([][]Value, nonNull)
		}
		posts := s.posts[:nonNull]
		off := 0
		for bi := range s.buckets {
			n := int(s.buckets[bi].n)
			s.buckets[bi].rows = posts[off : off : off+n]
			off += n
		}
		for ri, row := range scanned {
			if bi := slot[ri]; bi >= 0 {
				s.buckets[bi].rows = append(s.buckets[bi].rows, row)
			}
		}
		type extraCond struct{ newCi, oldIdx int }
		var extras []extraCond
		for _, jc := range conds[1:] {
			ci := t.Schema.ColIndex(jc.Left.Col)
			oi, err := bind.index(jc.Right)
			if err != nil {
				return nil, err
			}
			if ci < 0 {
				return nil, fmt.Errorf("relational: query %q: unknown join column %q of %q", q.Name, jc.Left.Col, al)
			}
			extras = append(extras, extraCond{ci, oi})
		}

		next := s.bufB[:0]
		if nextBuf == 0 {
			next = s.bufA[:0]
		}
		for _, lrow := range joined {
			v := lrow[probeIdx]
			if v.IsNull() {
				continue
			}
			bi, ok := s.hash[v.KeyHash()&joinKeyMask]
			if !ok {
				continue
			}
			for _, rrow := range s.buckets[bi].rows {
				if !SameKey(rrow[buildCi], v) {
					continue // a colliding key, not a match
				}
				ok := true
				for _, ec := range extras {
					if !rrow[ec.newCi].Equal(lrow[ec.oldIdx]) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				combined := s.vals.alloc(width)
				n := copy(combined, lrow)
				copy(combined[n:], rrow)
				next = append(next, combined)
			}
		}
		if nextBuf == 0 {
			s.bufA = next
		} else {
			s.bufB = next
		}
		nextBuf ^= 1
		joined = next
	}

	if len(q.Aggs) > 0 {
		return q.evalAggregates(joined, bind)
	}
	return q.evalProjection(joined, bind, db)
}

// evalProjection handles plain SELECT (with optional DISTINCT and LIMIT).
func (q *SelectQuery) evalProjection(rows [][]Value, bind *binding, db *Database) (*Result, error) {
	var cols []string
	var idxs []int
	if len(q.Select) == 0 {
		// SELECT *: all columns of all tables in declaration order.
		for i := range q.Tables {
			al := q.alias(i)
			sc := bind.schemas[al]
			for ci, c := range sc.Cols {
				cols = append(cols, al+"."+c.Name)
				idxs = append(idxs, bind.offsets[al]+ci)
			}
		}
	} else {
		for _, ref := range q.Select {
			ix, err := bind.index(ref)
			if err != nil {
				return nil, fmt.Errorf("relational: query %q: %w", q.Name, err)
			}
			cols = append(cols, ref.String())
			idxs = append(idxs, ix)
		}
	}

	out := &Result{Cols: cols}
	var seen map[string]bool
	if q.Distinct {
		seen = make(map[string]bool)
	}
	var keyBuf []byte
	for _, row := range rows {
		proj := make([]Value, len(idxs))
		for k, ix := range idxs {
			proj[k] = row[ix]
		}
		if q.Distinct {
			keyBuf = keyBuf[:0]
			for _, v := range proj {
				keyBuf = v.AppendEncode(keyBuf)
			}
			if seen[string(keyBuf)] {
				continue
			}
			seen[string(keyBuf)] = true
		}
		out.Rows = append(out.Rows, proj)
		if q.Limit > 0 && len(out.Rows) >= q.Limit {
			break
		}
	}
	return out, nil
}

// AddKahan performs one step of Kahan (compensated) summation: it adds x
// to the running sum, carrying the low-order error in comp. Both the
// relational evaluator and the plan layer's incremental aggregate
// decisions accumulate SUM/AVG through this exact function, so any two
// parties that feed it the same value sequence produce bit-identical
// sums.
func AddKahan(sum, comp, x float64) (float64, float64) {
	y := x - comp
	t := sum + y
	comp = (t - sum) - y
	return t, comp
}

// CanonicalSum returns the sum of the values' float64 conversions
// accumulated in canonical order: the values are sorted by their
// canonical encodings (AppendEncode) and added with Kahan summation. The
// result therefore depends only on the multiset of values, never on the
// order they were encountered in — the property that lets delta probes
// decide SUM/AVG groups exactly instead of falling back to a full
// re-evaluation.
func CanonicalSum(vals []Value) float64 {
	if len(vals) == 0 {
		return 0
	}
	// Encode every value into one arena (ties = identical encodings =
	// identical floats, so sort instability cannot change the sum).
	offs := make([]int32, len(vals)+1)
	var arena []byte
	for i, v := range vals {
		arena = v.AppendEncode(arena)
		offs[i+1] = int32(len(arena))
	}
	idx := make([]int32, len(vals))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		return bytes.Compare(arena[offs[ia]:offs[ia+1]], arena[offs[ib]:offs[ib+1]]) < 0
	})
	var sum, comp float64
	for _, i := range idx {
		sum, comp = AddKahan(sum, comp, vals[i].AsFloat())
	}
	return sum
}

// extremumLess reports whether v replaces cur as the reported MIN:
// strictly smaller by Compare, or Compare-equal with a strictly smaller
// canonical encoding (the deterministic tie-break).
func extremumLess(v, cur Value) bool {
	c := v.Compare(cur)
	return c < 0 || (c == 0 && EncodingLess(v, cur))
}

// extremumGreater is extremumLess's MAX twin: strictly greater by Compare,
// or Compare-equal with a strictly smaller canonical encoding (ties break
// toward the same canonical representative in both directions).
func extremumGreater(v, cur Value) bool {
	c := v.Compare(cur)
	return c > 0 || (c == 0 && EncodingLess(v, cur))
}

type aggState struct {
	groupKey []Value
	count    int64
	vals     []Value // accepted SUM/AVG inputs, summed canonically at output
	min, max Value
	distinct map[string]bool
}

// evalAggregates handles GROUP BY + aggregate queries. One aggregate state
// per (group, agg). Output rows are sorted by group key for determinism.
func (q *SelectQuery) evalAggregates(rows [][]Value, bind *binding) (*Result, error) {
	groupIdx := make([]int, len(q.GroupBy))
	for k, g := range q.GroupBy {
		ix, err := bind.index(g)
		if err != nil {
			return nil, fmt.Errorf("relational: query %q: %w", q.Name, err)
		}
		groupIdx[k] = ix
	}
	aggIdx := make([]int, len(q.Aggs))
	for k, a := range q.Aggs {
		if a.Col.Col == "" {
			aggIdx[k] = -1 // COUNT(*)
			continue
		}
		ix, err := bind.index(a.Col)
		if err != nil {
			return nil, fmt.Errorf("relational: query %q: %w", q.Name, err)
		}
		aggIdx[k] = ix
	}

	groups := make(map[string][]*aggState)
	var orderKeys []string
	var keyBuf []byte
	for _, row := range rows {
		keyBuf = keyBuf[:0]
		for _, gi := range groupIdx {
			keyBuf = row[gi].AppendEncode(keyBuf)
		}
		key := string(keyBuf)
		states, ok := groups[key]
		if !ok {
			states = make([]*aggState, len(q.Aggs))
			gk := make([]Value, len(groupIdx))
			for k, gi := range groupIdx {
				gk[k] = row[gi]
			}
			for k := range states {
				states[k] = &aggState{groupKey: gk}
				if q.Aggs[k].Distinct {
					states[k].distinct = make(map[string]bool)
				}
			}
			groups[key] = states
			orderKeys = append(orderKeys, key)
		}
		for k, a := range q.Aggs {
			st := states[k]
			var v Value
			if aggIdx[k] >= 0 {
				v = row[aggIdx[k]]
				if v.IsNull() {
					continue // SQL aggregates skip NULLs
				}
			}
			if a.Distinct && aggIdx[k] >= 0 {
				dk := string(v.AppendEncode(nil))
				if st.distinct[dk] {
					continue
				}
				st.distinct[dk] = true
			}
			st.count++
			if aggIdx[k] >= 0 {
				if a.Op == AggSum || a.Op == AggAvg {
					st.vals = append(st.vals, v)
				}
				// Canonical extrema: among Compare-equal candidates (Int(3)
				// vs Float(3)) the smallest canonical encoding is reported,
				// so MIN/MAX are pure functions of the group's value
				// multiset, never of encounter order — the property that
				// lets delta probes decide tie deaths and births exactly.
				if st.min.IsNull() || extremumLess(v, st.min) {
					st.min = v
				}
				if st.max.IsNull() || extremumGreater(v, st.max) {
					st.max = v
				}
			}
		}
	}

	// Scalar aggregation with no groups still yields one row.
	if len(q.GroupBy) == 0 && len(groups) == 0 {
		states := make([]*aggState, len(q.Aggs))
		for k := range states {
			states[k] = &aggState{}
		}
		groups[""] = states
		orderKeys = append(orderKeys, "")
	}

	var cols []string
	for _, g := range q.GroupBy {
		cols = append(cols, g.String())
	}
	for _, a := range q.Aggs {
		cols = append(cols, a.ColumnName())
	}
	out := &Result{Cols: cols}
	sort.Strings(orderKeys)
	for _, key := range orderKeys {
		states := groups[key]
		row := make([]Value, 0, len(cols))
		row = append(row, states[0].groupKey...)
		for k, a := range q.Aggs {
			st := states[k]
			switch a.Op {
			case AggCount:
				row = append(row, Int(st.count))
			case AggSum:
				if st.count == 0 {
					row = append(row, Null())
				} else {
					row = append(row, Float(CanonicalSum(st.vals)))
				}
			case AggAvg:
				if st.count == 0 {
					row = append(row, Null())
				} else {
					row = append(row, Float(CanonicalSum(st.vals)/float64(st.count)))
				}
			case AggMin:
				row = append(row, st.min)
			case AggMax:
				row = append(row, st.max)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// String renders the query in SQL-ish form for labels and debugging.
func (q *SelectQuery) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	var sel []string
	if q.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for _, g := range q.GroupBy {
		sel = append(sel, g.String())
	}
	for _, a := range q.Aggs {
		sel = append(sel, a.ColumnName())
	}
	if len(q.Aggs) == 0 {
		if len(q.Select) == 0 {
			sel = append(sel, "*")
		}
		for _, s := range q.Select {
			sel = append(sel, s.String())
		}
	}
	sb.WriteString(strings.Join(sel, ", "))
	sb.WriteString(" FROM ")
	var froms []string
	for i := range q.Tables {
		if q.alias(i) != q.Tables[i] {
			froms = append(froms, q.Tables[i]+" "+q.alias(i))
		} else {
			froms = append(froms, q.Tables[i])
		}
	}
	sb.WriteString(strings.Join(froms, ", "))
	var conds []string
	for _, j := range q.Joins {
		conds = append(conds, fmt.Sprintf("%s = %s", j.Left, j.Right))
	}
	for _, p := range q.Where {
		conds = append(conds, p.render())
	}
	if len(conds) > 0 {
		sb.WriteString(" WHERE ")
		sb.WriteString(strings.Join(conds, " AND "))
	}
	if len(q.GroupBy) > 0 {
		var gs []string
		for _, g := range q.GroupBy {
			gs = append(gs, g.String())
		}
		sb.WriteString(" GROUP BY ")
		sb.WriteString(strings.Join(gs, ", "))
	}
	if q.Limit > 0 {
		fmt.Fprintf(&sb, " LIMIT %d", q.Limit)
	}
	return sb.String()
}
