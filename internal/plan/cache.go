package plan

import (
	"slices"
	"sort"
	"sync"

	"querypricing/internal/relational"
)

// DefaultCacheSize bounds a Cache when the caller passes a non-positive
// size. A support set keeps one cache of this size, whatever its shard
// count. 4096 comfortably holds every workload of the paper's experiment
// matrix and the 1459 distinct queries of the serve-read benchmark while
// still bounding memory under adversarial online query streams.
const DefaultCacheSize = 4096

// MaxPendingBatches caps the pending change-batch log a lazily advanced
// Cache or IndexPool carries. When an Advance would push the log past the
// cap, the successor drains eagerly (every stale entry is folded up to the
// new snapshot) and starts from an empty log — so sustained write-heavy
// feeds pay one coalesced rebase per cap-full of batches instead of one
// per batch, and the log never grows without bound.
const MaxPendingBatches = 64

// ChangeBatch is one applied update batch in a pending log: the changes
// (cell updates, row inserts, row deletes) that carried the base database
// from version ToVersion-1 to ToVersion. Pool logs additionally capture
// pre-change values (Old, OldRows) at Advance time, so a pending log
// never pins predecessor database snapshots alive.
type ChangeBatch struct {
	// ToVersion is the database version the batch produced.
	ToVersion uint64
	// Changes is the batch's change list, in application order.
	Changes []relational.CellChange
	// Old holds, index-aligned with Changes, each cell update's value in
	// the predecessor snapshot. Only the IndexPool's lazy index patcher
	// reads it; cache logs leave it nil (Rebase needs no pre-change
	// values).
	Old []relational.Value
	// OldRows holds, index-aligned with Changes, each row delete's full
	// predecessor row (the patcher must unindex every column's old value).
	// nil when the batch deletes nothing; non-delete entries are nil.
	OldRows [][]relational.Value
}

// coalesceRange concatenates, in order, the changes of every pending batch
// in the half-open version window (fromVersion, toVersion]. Rebase and the
// index patcher both consolidate with last-wins-per-cell semantics, so the
// concatenation is exactly the composite change set carrying a plan from
// fromVersion to toVersion — N deferred batches fold into one rebase pass.
// The upper bound matters now that the log is shared across cache
// generations: it may already hold batches newer than the generation a
// stale plan is being folded toward.
func coalesceRange(pending []ChangeBatch, fromVersion, toVersion uint64) []relational.CellChange {
	n := 0
	for _, b := range pending {
		if b.ToVersion > fromVersion && b.ToVersion <= toVersion {
			n += len(b.Changes)
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]relational.CellChange, 0, n)
	for _, b := range pending {
		if b.ToVersion > fromVersion && b.ToVersion <= toVersion {
			out = append(out, b.Changes...)
		}
	}
	return out
}

// consolidateWindow collapses a composite change window to its net effect
// before any plan sees it: duplicate cell updates keep their first
// position with the last value — exactly the consolidation every plan's
// relevantChanges would otherwise redo. Only rows untouched by inserts or
// deletes are collapsed; DML rows keep their changes verbatim so the
// group semantics (births, deaths, in-window invisibility, table-resize
// accounting) stay with the rebase pass that owns them. A thousand-plan
// drain then pays per-plan work proportional to the net change set, not
// the raw window length. Returns the input unchanged when nothing
// collapses or the window holds a shape it cannot reason about.
func consolidateWindow(changes []relational.CellChange) []relational.CellChange {
	type rowKey struct {
		table string
		row   int
	}
	var dml map[rowKey]bool
	for _, c := range changes {
		switch c.Op {
		case relational.OpCellUpdate:
			continue
		case relational.OpRowInsert:
			if c.Row < 0 {
				return changes // slot not yet assigned: row is unaddressable
			}
		case relational.OpRowDelete:
		default:
			return changes // unknown op: let relevantChanges reject it
		}
		if dml == nil {
			dml = make(map[rowKey]bool)
		}
		dml[rowKey{c.Table, c.Row}] = true
	}
	type cellKey struct {
		table    string
		row, col int
	}
	idx := make(map[cellKey]int, len(changes))
	out := make([]relational.CellChange, 0, len(changes))
	for _, c := range changes {
		if c.Op != relational.OpCellUpdate || (dml != nil && dml[rowKey{c.Table, c.Row}]) {
			out = append(out, c)
			continue
		}
		k := cellKey{c.Table, c.Row, c.Col}
		if i, seen := idx[k]; seen {
			out[i].New = c.New // later change to the same cell wins
			continue
		}
		idx[k] = len(out)
		out = append(out, c)
	}
	if len(out) == len(changes) {
		return changes // nothing collapsed: keep the shared slice
	}
	return out
}

// IndexPool shares scan artifacts across plans — and across plan caches —
// compiled against the same base database, so no shared artifact is
// built twice:
//
//   - the join indexes of bare (predicate-free) scans, keyed by (table,
//     column): a bare scan is the table itself;
//   - filtered scans, keyed by (table, pushed-down predicates), and their
//     join indexes, keyed by (table, predicates, column);
//   - per-column sorted orders, which range predicates binary-search.
//
// Safe for concurrent use. Everything a pool publishes is immutable: plans
// adopt the shared slices and maps read-only, and a plan that must patch a
// shared index at rebase clones it first (patchFilteredAlias).
//
// Pools advance lazily across base-database updates: Advance appends the
// change batch to a pending log instead of patching anything, and a bare
// index is folded up to the pool's snapshot on its first post-update get —
// all deferred batches coalesced into one patch pass per (table, column).
// Filtered scans, their indexes and sorted orders are not carried: the
// successor rebuilds each on first use.
type IndexPool struct {
	mu      sync.Mutex
	db      *relational.Database // the snapshot this pool serves
	version uint64               // == db.Version()
	m       map[indexPoolKey]*poolEntry
	scans   map[scanPoolKey]scanEntry
	scanIdx map[scanIndexKey]map[uint64][]int32
	sorted  map[indexPoolKey][]int32
	pending []ChangeBatch // batches not yet folded into every entry
}

type indexPoolKey struct {
	table string
	col   int
}

// scanPoolKey identifies a filtered scan by table and the canonical
// encoding of its pushed-down predicates (resolved column, operator and
// operand encodings, in push-down order). Workloads repeat predicates
// across queries, so sharing the scan skips re-evaluating them per plan.
type scanPoolKey struct {
	table string
	preds string
}

// scanIndexKey identifies the join index of a pooled filtered scan on one
// column. Queries that share a filtered scan often join it on the same
// column: SSB's calibration workload, whose queries filter the fact table
// alike and join it to the same dimensions, looks up 2072 such indexes
// and builds 591.
type scanIndexKey struct {
	scan scanPoolKey
	col  int
}

// scanEntry is one published filtered scan: the rows passing the
// predicates, in table order, and the base-row -> position+1 table.
type scanEntry struct {
	rows [][]relational.Value
	pos  []int32
}

// poolEntry is one published bare-scan index together with the database
// version it reflects. Entries are immutable once published; a lazy patch
// replaces the entry, never mutates it, so pools for older snapshots that
// share the entry keep serving their version.
type poolEntry struct {
	idx     map[uint64][]int32
	version uint64
}

// NewIndexPool returns an empty pool for plans compiled against db.
func NewIndexPool(db *relational.Database) *IndexPool {
	return &IndexPool{
		db:      db,
		version: db.Version(),
		m:       make(map[indexPoolKey]*poolEntry),
		scans:   make(map[scanPoolKey]scanEntry),
		scanIdx: make(map[scanIndexKey]map[uint64][]int32),
		sorted:  make(map[indexPoolKey][]int32),
	}
}

// Advance returns a pool for the successor snapshot newDB (the receiver's
// database with changes applied). Nothing is patched up front: every
// published index is shared with the receiver and the batch is appended to
// the successor's pending log; an index touched by deferred batches is
// patched — one coalesced pass over all of them — the first time the
// successor's get needs it. The receiver keeps serving the predecessor
// snapshot unmodified. When the pending log would exceed MaxPendingBatches
// the successor folds every entry eagerly and starts from an empty log.
func (p *IndexPool) Advance(newDB *relational.Database, changes []relational.CellChange) *IndexPool {
	// Filtered scans, their indexes and sorted orders are not carried
	// across snapshots: a stale entry is useless (membership and row
	// contents may both have moved), and the successor's first compile per
	// predicate rescans — the same cost an unshared compile pays.
	np := NewIndexPool(newDB)
	// Capture each valid change's pre-change state now, from the
	// receiver's snapshot, so the pending log carries plain values instead
	// of keeping whole predecessor databases reachable: a cell update's
	// old value, a delete's full old row (one immutable row slice, not the
	// whole database), and for inserts the concrete slot Apply assigns
	// (base slot count plus inserts already seen for the table). Invalid
	// coordinates (which Apply rejects upstream anyway) are dropped here,
	// exactly as the patcher used to skip them.
	cs := make([]relational.CellChange, 0, len(changes))
	old := make([]relational.Value, 0, len(changes))
	var oldRows [][]relational.Value // lazily built: nil until a delete is kept
	var insertsSeen map[string]int
	for _, c := range changes {
		t := p.db.Table(c.Table)
		if t == nil {
			continue
		}
		switch c.Op {
		case relational.OpRowInsert:
			if insertsSeen == nil {
				insertsSeen = make(map[string]int)
			}
			slot := len(t.Rows) + insertsSeen[c.Table]
			insertsSeen[c.Table]++
			if c.Row >= 0 {
				slot = c.Row // already normalized upstream
			}
			c.Row = slot
			cs = append(cs, c)
			old = append(old, relational.Value{})
		case relational.OpRowDelete:
			if c.Row < 0 || c.Row >= len(t.Rows) || t.Rows[c.Row] == nil {
				continue
			}
			if oldRows == nil {
				oldRows = make([][]relational.Value, len(cs), cap(cs))
			}
			cs = append(cs, c)
			old = append(old, relational.Value{})
			oldRows = append(oldRows, t.Rows[c.Row])
			continue
		default:
			if c.Row < 0 || c.Row >= len(t.Rows) || t.Rows[c.Row] == nil || c.Col < 0 || c.Col >= len(t.Rows[c.Row]) {
				continue
			}
			cs = append(cs, c)
			old = append(old, t.Rows[c.Row][c.Col])
		}
		if oldRows != nil {
			oldRows = append(oldRows, nil) // keep index alignment with cs
		}
	}
	p.mu.Lock()
	minV := newDB.Version()
	for key, e := range p.m {
		np.m[key] = e // published entries are immutable: share
		if e.version < minV {
			minV = e.version
		}
	}
	pending := p.pending
	p.mu.Unlock()
	// Keep only the batches some shared entry still needs, plus the new one.
	for _, b := range pending {
		if b.ToVersion > minV {
			np.pending = append(np.pending, b)
		}
	}
	np.pending = append(np.pending, ChangeBatch{ToVersion: newDB.Version(), Changes: cs, Old: old, OldRows: oldRows})
	if len(np.pending) > MaxPendingBatches {
		for key, e := range np.m {
			if e.version != np.version {
				np.m[key] = np.patchEntry(key, e)
			}
		}
		np.pending = nil
	}
	return np
}

// patchEntry folds every pending batch newer than the entry's version into
// a fresh entry for the pool's snapshot, coalescing all batches that touch
// the entry's column into one remove/insert pass per row. The receiver's
// lock may or may not be held — the method touches only immutable batch
// data and the entry passed in, never p.m.
func (p *IndexPool) patchEntry(key indexPoolKey, e *poolEntry) *poolEntry {
	// Coalesce: per touched row, the value the entry currently indexes
	// when the window opens (absent for rows born inside it) and the final
	// value when it closes (absent for rows dead at its end). A NULL and
	// an absent value patch identically — neither carries a posting — so
	// one Value pair with presence flags covers all three ops.
	type rowState struct {
		old, new               relational.Value
		oldPresent, newPresent bool
	}
	var order []int
	states := make(map[int]*rowState)
	touch := func(row int) (*rowState, bool) {
		st, seen := states[row]
		if !seen {
			st = &rowState{}
			states[row] = st
			order = append(order, row)
		}
		return st, seen
	}
	for _, b := range p.pending {
		if b.ToVersion <= e.version {
			continue
		}
		for ci, c := range b.Changes {
			if c.Table != key.table {
				continue
			}
			switch c.Op {
			case relational.OpRowInsert:
				st, _ := touch(c.Row) // born in the window: no old side
				if key.col < len(c.Vals) {
					st.new, st.newPresent = c.Vals[key.col], true
				}
			case relational.OpRowDelete:
				st, seen := touch(c.Row)
				if !seen {
					// First touch: the entry indexes the predecessor row's
					// value at this column.
					if ci < len(b.OldRows) && b.OldRows[ci] != nil && key.col < len(b.OldRows[ci]) {
						st.old, st.oldPresent = b.OldRows[ci][key.col], true
					}
				}
				st.new, st.newPresent = relational.Value{}, false
			default:
				if c.Col != key.col {
					continue
				}
				st, seen := touch(c.Row)
				if !seen {
					st.old, st.oldPresent = b.Old[ci], true
				}
				st.new, st.newPresent = c.New, true
			}
		}
	}
	idx := e.idx
	cloned := false
	for _, row := range order {
		st := states[row]
		ov, nv := st.old, st.new
		if !st.oldPresent {
			ov = relational.Null() // absent rows carry no posting, like NULL
		}
		if !st.newPresent {
			nv = relational.Null()
		}
		if ov.IsNull() && nv.IsNull() || relational.SameKey(ov, nv) {
			continue // key encoding unchanged: postings stay valid
		}
		if !cloned {
			idx = cloneIndex(idx)
			cloned = true
		}
		if !ov.IsNull() {
			removePosting(idx, keyHash(ov), int32(row))
		}
		if !nv.IsNull() {
			insertPosting(idx, keyHash(nv), int32(row))
		}
	}
	return &poolEntry{idx: idx, version: p.version}
}

func (p *IndexPool) get(table string, col int, rows [][]relational.Value) map[uint64][]int32 {
	key := indexPoolKey{table, col}
	p.mu.Lock()
	if e, ok := p.m[key]; ok {
		if e.version != p.version {
			// First use since an update: fold the deferred batches in.
			e = p.patchEntry(key, e)
			p.m[key] = e
		}
		idx := e.idx
		p.mu.Unlock()
		return idx
	}
	p.mu.Unlock()
	idx := hashRows(rows, col)
	p.mu.Lock()
	if prior, ok := p.m[key]; ok && prior.version == p.version {
		idx = prior.idx // a concurrent builder won; share its copy
	} else {
		p.m[key] = &poolEntry{idx: idx, version: p.version}
	}
	p.mu.Unlock()
	return idx
}

// publishOnce returns m[key], building and publishing it on first use.
// The build runs outside the pool lock; when concurrent builders race, the
// first published value wins and every caller shares it.
func publishOnce[K comparable, V any](p *IndexPool, m map[K]V, key K, build func() V) V {
	p.mu.Lock()
	v, ok := m[key]
	p.mu.Unlock()
	if ok {
		return v
	}
	v = build()
	p.mu.Lock()
	if prior, ok := m[key]; ok {
		v = prior
	} else {
		m[key] = v
	}
	p.mu.Unlock()
	return v
}

// getScan returns the shared filtered scan for (table, predicate key) at
// the pool's snapshot, building it with build on first use, so every plan
// compiled against the snapshot shares one rows slice and one position
// table.
func (p *IndexPool) getScan(table, preds string, build func() ([][]relational.Value, []int32)) ([][]relational.Value, []int32) {
	e := publishOnce(p, p.scans, scanPoolKey{table, preds}, func() scanEntry {
		rows, pos := build()
		return scanEntry{rows, pos}
	})
	return e.rows, e.pos
}

// getScanIndex returns the shared join index on column col of the filtered
// scan getScan publishes for (table, preds), hashing rows — that scan — on
// first use.
func (p *IndexPool) getScanIndex(table, preds string, col int, rows [][]relational.Value) map[uint64][]int32 {
	return publishOnce(p, p.scanIdx, scanIndexKey{scanPoolKey{table, preds}, col}, func() map[uint64][]int32 {
		return hashRows(rows, col)
	})
}

// getSorted returns the shared sorted order of (table, column) at the
// pool's snapshot, building it on first use: the table's non-NULL row
// indices ascending by cell value, ties broken by row index so the
// published order is deterministic.
func (p *IndexPool) getSorted(table string, col int, rows [][]relational.Value) []int32 {
	return publishOnce(p, p.sorted, indexPoolKey{table, col}, func() []int32 {
		order := make([]int32, 0, len(rows))
		for ri, row := range rows {
			if row != nil && !row[col].IsNull() {
				order = append(order, int32(ri))
			}
		}
		slices.SortFunc(order, func(a, b int32) int {
			if c := rows[a][col].Compare(rows[b][col]); c != 0 {
				return c
			}
			return int(a - b)
		})
		return order
	})
}

// searchGE returns the first position in a sorted order whose cell is >= v
// under Value.Compare; searchGT the first strictly greater. Together they
// delimit every range predicate's candidate window.
func searchGE(order []int32, rows [][]relational.Value, col int, v relational.Value) int {
	return sort.Search(len(order), func(i int) bool {
		return rows[order[i]][col].Compare(v) >= 0
	})
}

func searchGT(order []int32, rows [][]relational.Value, col int, v relational.Value) int {
	return sort.Search(len(order), func(i int) bool {
		return rows[order[i]][col].Compare(v) > 0
	})
}

// hashRows indexes a scan on one column by key hash; NULL keys are
// excluded, mirroring Eval's hash join. The build is two-pass through a
// pooled compile arena: the counting pass gives each key hash an ordinal
// and records every row's, every posting list is carved from one
// exactly-sized block, and the published map is presized — so the only
// allocations that survive are the ones the plan actually keeps. Postings
// are filled in row order, so each list is ascending (the rows of
// colliding keys interleave in one list), and every carve is
// capacity-exact, so a later insertPosting reallocates instead of
// clobbering its neighbor.
func hashRows(rows [][]relational.Value, col int) map[uint64][]int32 {
	ar := getCompileArena()
	defer ar.recycle()
	keys, counts, ords := ar.keys, ar.counts[:0], ar.aux[:0]
	n := 0
	for _, row := range rows {
		if row == nil || row[col].IsNull() {
			ords = append(ords, -1) // tombstoned slot or NULL key
			continue
		}
		n++
		h := keyHash(row[col])
		bi, ok := keys[h]
		if ok {
			counts[bi]++
		} else {
			bi = int32(len(counts))
			keys[h] = bi
			counts = append(counts, 1)
		}
		ords = append(ords, bi)
	}
	ar.counts, ar.aux = counts, ords
	idx := make(map[uint64][]int32, len(counts))
	if n == 0 {
		return idx
	}
	block := make([]int32, n) // the one postings allocation the plan keeps
	spans := ar.spans[:0]
	off := 0
	for _, c := range counts {
		spans = append(spans, block[off:off:off+int(c)])
		off += int(c)
	}
	for pos, bi := range ords {
		if bi >= 0 {
			spans[bi] = append(spans[bi], int32(pos))
		}
	}
	for k, bi := range keys {
		idx[k] = spans[bi]
	}
	ar.spans = spans
	return idx
}

// Key returns the cache key of a query: its canonical SQL rendering.
// Structurally identical queries share one key (and so one plan).
func Key(q *relational.SelectQuery) string { return q.String() }

// Cache is a bounded LRU of compiled plans keyed by the query's canonical
// SQL rendering, with in-flight deduplication: concurrent misses on the
// same key share one compilation. It is safe for concurrent use.
//
// A Cache value is a lightweight generation handle: all entries live in a
// cacheStore shared by every generation of one Advance chain. Each entry
// is a versioned slot whose plan only ever moves forward in version, so
// Advance touches nothing but the shared change log and O(1) generation
// metadata — its cost is independent of how many plans are cached — while
// older generations keep serving their own snapshot (a slot already
// upgraded past a generation is answered by a private compilation instead
// of winding the shared slot back). A plan is rebased on its first
// post-update use — all deferred batches coalesced into one Rebase pass —
// and recompiled only if the composite change escapes the
// delta-maintenance rules.
type Cache struct {
	store   *cacheStore
	pool    *IndexPool           // externally shared pool, nil for a private one
	db      *relational.Database // the snapshot this generation serves
	version uint64               // == db.Version(); plans fold toward this
	shared  *IndexPool           // bare-scan join indexes used by this generation
}

// cacheStore is the state every generation of one cache lineage shares:
// the entry slots (LRU nodes holding versioned plans), the in-flight
// compilation table, and the pending change-batch log. One mutex guards
// it all; slot plans are read and published only under it.
//
// Log invariant: log holds, in order, the batches covering versions
// (logBase, latestVer], and every slot's plan version is >= logBase — so
// any slot can be folded to any generation in that window by coalescing
// the batches in between. Publishing enforces the invariant: a plan older
// than logBase is returned to its caller but never stored.
type cacheStore struct {
	mu       sync.Mutex
	max      int
	entries  map[string]int32 // key -> node index in lru
	lru      lruList
	count    int
	inflight map[string]*compileCall

	log       []ChangeBatch        // covers versions (logBase, latestVer]
	logBase   uint64               // every slot plan is at version >= logBase
	latestVer uint64               // newest advanced-to version
	latestDB  *relational.Database // newest advanced-to snapshot (nil: unbound)
	flushGen  uint64               // bumped on cross-lineage flush; fences stray publishes

	// Single-entry memo for coalesceRange: a Drain folds hundreds of plans
	// sleeping at the same version toward the same target, and the
	// composite change set is identical for all of them. The memoized slice
	// is immutable once published.
	memoFrom, memoTo uint64
	memoChanges      []relational.CellChange
}

// coalesceLocked returns the composite change set for the window
// (fromVersion, toVersion], memoizing the most recent window. Called with
// the store mutex held.
func (s *cacheStore) coalesceLocked(fromVersion, toVersion uint64) []relational.CellChange {
	if s.memoFrom == fromVersion && s.memoTo == toVersion && s.memoChanges != nil {
		return s.memoChanges
	}
	out := coalesceRange(s.log, fromVersion, toVersion)
	if out == nil {
		// Distinguish "empty window" from "no memo yet" without a flag.
		out = []relational.CellChange{}
	} else {
		out = consolidateWindow(out)
	}
	s.memoFrom, s.memoTo, s.memoChanges = fromVersion, toVersion, out
	return out
}

// lruList is an intrusive, slice-backed doubly-linked LRU holding the
// shared entry slots: one contiguous node slice referenced by every cache
// generation, so no part of the recency structure is ever cloned on an
// update.
type lruList struct {
	nodes      []lruNode
	head, tail int32 // head = most recently used; -1 = empty
	free       []int32
}

// lruNode is one shared entry slot: the cached plan (versioned — replaced
// only by a strictly newer plan, under the store mutex), its key, and
// intra-slice links.
type lruNode struct {
	key        string
	p          *Plan
	prev, next int32
}

// newLRU returns an empty list.
func newLRU() lruList { return lruList{head: -1, tail: -1} }

// pushFront inserts a new node at the front and returns its index.
func (l *lruList) pushFront(key string, p *Plan) int32 {
	var i int32
	if n := len(l.free); n > 0 {
		i = l.free[n-1]
		l.free = l.free[:n-1]
		l.nodes[i] = lruNode{key: key, p: p}
	} else {
		i = int32(len(l.nodes))
		l.nodes = append(l.nodes, lruNode{key: key, p: p})
	}
	l.nodes[i].prev = -1
	l.nodes[i].next = l.head
	if l.head >= 0 {
		l.nodes[l.head].prev = i
	}
	l.head = i
	if l.tail < 0 {
		l.tail = i
	}
	return i
}

// unlink detaches node i from the chain without recycling its slot.
func (l *lruList) unlink(i int32) {
	nd := &l.nodes[i]
	if nd.prev >= 0 {
		l.nodes[nd.prev].next = nd.next
	} else {
		l.head = nd.next
	}
	if nd.next >= 0 {
		l.nodes[nd.next].prev = nd.prev
	} else {
		l.tail = nd.prev
	}
}

// moveToFront marks node i most recently used.
func (l *lruList) moveToFront(i int32) {
	if l.head == i {
		return
	}
	l.unlink(i)
	l.nodes[i].prev = -1
	l.nodes[i].next = l.head
	if l.head >= 0 {
		l.nodes[l.head].prev = i
	}
	l.head = i
	if l.tail < 0 {
		l.tail = i
	}
}

// remove detaches node i and recycles its slot (dropping the plan and key
// references so the garbage collector can reclaim them).
func (l *lruList) remove(i int32) {
	l.unlink(i)
	l.nodes[i] = lruNode{prev: -1, next: -1}
	l.free = append(l.free, i)
}

type compileCall struct {
	done chan struct{}
	db   *relational.Database // the database this compilation targets
	p    *Plan
	err  error
}

// NewCache returns a cache bounded to max plans (DefaultCacheSize when max
// is non-positive) with a private bare-scan index pool.
func NewCache(max int) *Cache {
	return NewCacheWithPool(max, nil)
}

// NewCacheWithPool is NewCache with an externally shared bare-scan index
// pool: every cache handed the same pool reuses one index per bare (table,
// column) pair. A nil pool — or a pool built for a different database than
// the one a Get targets — falls back to a private pool.
func NewCacheWithPool(max int, pool *IndexPool) *Cache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	return &Cache{
		store: &cacheStore{
			max:      max,
			entries:  make(map[string]int32),
			lru:      newLRU(),
			inflight: make(map[string]*compileCall),
		},
		pool: pool,
	}
}

// bindLocked points the generation handle at db, binding (or flushing) the
// shared store as needed. Called with the store mutex held, on the first
// use of a fresh cache and whenever a caller hands a generation a database
// it was not built for.
func (c *Cache) bindLocked(db *relational.Database) {
	s := c.store
	if s.latestDB == nil {
		// First use of a fresh store: adopt db as the lineage root.
		s.latestDB = db
		s.latestVer = db.Version()
		s.logBase = db.Version()
	} else if s.latestDB != db {
		// A different database lineage. Versions across lineages are
		// incomparable, so every slot, the log, and any in-flight publish
		// are meaningless for it: flush the whole store and fence stragglers
		// with flushGen.
		s.flushGen++
		s.entries = make(map[string]int32)
		s.lru = newLRU()
		s.count = 0
		s.log = nil
		s.memoChanges = nil // version windows are lineage-relative
		s.latestDB = db
		s.latestVer = db.Version()
		s.logBase = db.Version()
	}
	c.db = db
	c.version = db.Version()
	if c.pool != nil && c.pool.db == db {
		c.shared = c.pool
	} else {
		c.shared = NewIndexPool(db)
	}
}

// Get returns the cached plan for the query, compiling (and caching) it on
// a miss. The second result reports whether a fresh compilation ran on this
// call — callers use it to count compilations, each of which enumerates
// the query's base answer once. The key is the query's canonical SQL
// (Key), rendered on every call.
//
// A hit whose plan predates this generation's snapshot (deferred updates)
// is upgraded in the shared slot before being returned: the pending
// batches between the plan's version and the generation's are coalesced
// into one Rebase — or, if the composite change escapes delta maintenance,
// one recompilation. Concurrent requests for the same stale key share one
// upgrade. A hit whose plan a successor generation already upgraded PAST
// this snapshot is answered by a private compilation: the shared slot is
// never wound back, and the old generation's answers stay byte-identical
// to its snapshot.
func (c *Cache) Get(db *relational.Database, q *relational.SelectQuery) (*Plan, bool, error) {
	key := Key(q)
	s := c.store
	s.mu.Lock()
	if c.db != db {
		c.bindLocked(db)
	}
	myVer := c.version
	var stale *Plan
	if i, ok := s.entries[key]; ok {
		p := s.lru.nodes[i].p
		switch {
		case p.Version() == myVer:
			s.lru.moveToFront(i)
			s.mu.Unlock()
			return p, false, nil
		case p.Version() < myVer:
			stale = p // deferred update: fold forward below
		}
		// p.Version() > myVer: a successor generation owns the slot now;
		// fall through to a private compile (the monotone publish guard
		// below keeps the slot on its newer plan).
	}
	if call, ok := s.inflight[key]; ok && call.db == db {
		s.mu.Unlock()
		<-call.done
		return call.p, false, call.err
	}
	call := &compileCall{done: make(chan struct{}), db: db}
	if _, ok := s.inflight[key]; !ok {
		// Register for dedup. A slot occupied by a compilation against a
		// different database is left alone: this call compiles
		// unregistered rather than hand its followers the wrong plan.
		s.inflight[key] = call
	}
	shared := c.shared
	fg := s.flushGen
	var changes []relational.CellChange
	if stale != nil {
		// Capture the composite change set under the lock: the shared log
		// is mutated by later Advances, but the batches themselves are
		// immutable and the invariant (stale version >= logBase) guarantees
		// the window (stale, myVer] is fully covered.
		changes = s.coalesceLocked(stale.Version(), myVer)
	}
	s.mu.Unlock()

	fresh := false
	if stale != nil {
		if np, ok := stale.Rebase(db, changes, shared); ok {
			call.p = np
		}
	}
	if call.p == nil {
		call.p, call.err = compile(db, q, shared)
		fresh = call.err == nil
	}

	s.mu.Lock()
	if s.inflight[key] == call {
		delete(s.inflight, key)
	}
	// Publish monotonically: never into a flushed store (flushGen fence),
	// never a plan older than the slot already holds, and never one the
	// shared log could no longer fold forward (version < logBase).
	if call.err == nil && s.flushGen == fg && c.db == db {
		v := call.p.Version()
		if i, ok := s.entries[key]; ok {
			if nd := &s.lru.nodes[i]; v > nd.p.Version() && v >= s.logBase {
				nd.p = call.p
			}
			s.lru.moveToFront(i)
		} else if v >= s.logBase {
			s.entries[key] = s.lru.pushFront(key, call.p)
			s.count++
			for s.count > s.max {
				oldest := s.lru.tail
				delete(s.entries, s.lru.nodes[oldest].key)
				s.lru.remove(oldest)
				s.count--
			}
		}
	}
	s.mu.Unlock()
	close(call.done)
	return call.p, fresh, call.err
}

// Len reports the number of cached plans (shared across all generations of
// the cache's Advance chain).
func (c *Cache) Len() int {
	s := c.store
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// StaleLen reports how many cached plans still predate this generation's
// snapshot (deferred rebases awaiting their first use or a Drain). Slots a
// successor generation already upgraded past this one are not counted:
// they are not foldable toward this snapshot, and this generation answers
// them with private compilations instead.
func (c *Cache) StaleLen() int {
	s := c.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.db == nil {
		return 0
	}
	return s.staleCountLocked(c.version)
}

// staleCountLocked counts slots whose plan predates version v.
func (s *cacheStore) staleCountLocked(v uint64) int {
	n := 0
	for i := s.lru.head; i >= 0; i = s.lru.nodes[i].next {
		if s.lru.nodes[i].p.Version() < v {
			n++
		}
	}
	return n
}

// PendingBatches reports the number of update batches in the shared
// pending log — the deferred work a Drain (or first use of every stale
// plan) would fold. Observability for marketd's /stats endpoint.
func (c *Cache) PendingBatches() int {
	s := c.store
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.log)
}

// AdvanceStats reports what one Cache.Advance did: how many entries were
// carried over with their maintenance deferred, and — on the
// MaxPendingBatches cap path only — how many plans the amortized eager
// drain rebased or recompiled right away.
type AdvanceStats struct {
	// Deferred counts entries still awaiting their coalesced fold-up
	// after this Advance (0 on the cap path).
	Deferred int
	// Rebased counts plans the cap-triggered eager drain delta-maintained.
	Rebased int
	// Recompiled counts plans the cap-triggered eager drain recompiled.
	Recompiled int
}

// Advance returns a cache generation for the successor snapshot newDB,
// deferring all plan maintenance: every entry slot stays shared (nothing
// is cloned — not the entry map, not the LRU) and the change batch is
// appended to the shared pending log, so the cost of an update is O(batch)
// plus O(1) generation metadata, independent of the number of cached
// plans. Each plan is folded forward — all deferred batches coalesced into
// one pass — on its first use through the new generation, or recompiled
// when the composite change escapes delta maintenance; Drain forces the
// fold-up eagerly. The pool must already be advanced to newDB
// (IndexPool.Advance); the receiver keeps serving the predecessor
// snapshot (slots upgraded past it are answered by private compilations).
//
// Advancing a never-used cache, or a generation that is no longer the
// newest, starts a fresh, empty store for the successor — versions on a
// diverged lineage are incomparable with the shared slots — unless the store was already
// advanced to this exact newDB (sibling handles advanced with the same
// successor snapshot converge on one generation instead of
// double-appending the batch).
func (c *Cache) Advance(newDB *relational.Database, changes []relational.CellChange, pool *IndexPool) (*Cache, AdvanceStats) {
	s := c.store
	newVer := newDB.Version()
	nc := &Cache{store: s, pool: pool, db: newDB, version: newVer}
	if pool != nil && pool.db == newDB {
		nc.shared = pool
	} else {
		nc.shared = NewIndexPool(newDB)
	}
	s.mu.Lock()
	var st AdvanceStats
	switch {
	case s.latestDB == newDB && s.latestVer == newVer:
		// Already advanced to this exact snapshot by a sibling handle:
		// converge without appending the batch twice.
		st.Deferred = s.staleCountLocked(newVer)
	case c.db != nil && s.latestDB == c.db && s.latestVer == c.version:
		// Linear advance of the newest generation — the O(changes) path.
		// Every slot predates newVer (slots never outrun latestVer), so the
		// deferred count is just the entry count.
		s.log = append(s.log, ChangeBatch{ToVersion: newVer, Changes: changes})
		s.latestDB = newDB
		s.latestVer = newVer
		st.Deferred = s.count
	default:
		// Branching advance from a non-latest generation: the successor's
		// lineage diverges from the slots' (same version numbers, different
		// databases), so shared slots cannot serve it. Start it on a fresh
		// store; plans recompile on demand. A never-used cache lands here
		// too: it has no entries to share, and a shared store would let
		// the receiver's first use (binding it to the predecessor
		// snapshot) flush the successor's lineage and its pending log.
		max := s.max
		s.mu.Unlock()
		fresh := NewCacheWithPool(max, pool)
		fresh.store.latestDB = newDB
		fresh.store.latestVer = newVer
		fresh.store.logBase = newVer
		fresh.db = newDB
		fresh.version = newVer
		fresh.shared = nc.shared
		return fresh, AdvanceStats{}
	}
	capDrain := len(s.log) > MaxPendingBatches
	s.mu.Unlock()
	if capDrain {
		// Amortized bound: one eager coalesced drain per cap-full of
		// batches, then the log is trimmed to what the slots still need.
		// The drain's work is surfaced in the stats.
		st.Rebased, st.Recompiled = nc.Drain(0)
		s.mu.Lock()
		minV := s.latestVer
		for i := s.lru.head; i >= 0; i = s.lru.nodes[i].next {
			if v := s.lru.nodes[i].p.Version(); v < minV {
				minV = v
			}
		}
		if minV > s.logBase {
			var kept []ChangeBatch
			for _, b := range s.log {
				if b.ToVersion > minV {
					kept = append(kept, b)
				}
			}
			s.log = kept
			s.logBase = minV
		}
		st.Deferred = s.staleCountLocked(newVer)
		s.mu.Unlock()
	}
	return nc, st
}

// Drain eagerly folds deferred updates into cached plans: up to limit
// stale entries (all of them when limit <= 0) are rebased onto the cache's
// snapshot — or recompiled when the composite change escapes delta
// maintenance — exactly as their first use would. It returns how many
// plans were rebased and how many had to be recompiled. Safe to run
// concurrently with Gets: slot publishes are monotone, so a concurrent
// upgrade of the same slot is harmless (whichever newer plan lands first
// wins and the other is discarded). Unlike a Get, a drain does not touch
// LRU recency — background maintenance should not look like use. A
// background drainer makes an idle cache converge so later quotes find
// warm, up-to-date plans.
func (c *Cache) Drain(limit int) (rebased, recompiled int) {
	s := c.store
	s.mu.Lock()
	if c.db == nil {
		s.mu.Unlock()
		return 0, 0
	}
	db := c.db
	cur := c.version
	shared := c.shared
	fg := s.flushGen
	var stales []string
	for i := s.lru.tail; i >= 0; i = s.lru.nodes[i].prev {
		nd := &s.lru.nodes[i]
		if nd.p.Version() < cur {
			stales = append(stales, nd.key)
		}
	}
	s.mu.Unlock()
	for _, key := range stales {
		if limit > 0 && rebased+recompiled >= limit {
			break
		}
		s.mu.Lock()
		if s.flushGen != fg {
			s.mu.Unlock()
			return rebased, recompiled
		}
		i, ok := s.entries[key]
		if !ok {
			s.mu.Unlock()
			continue // evicted since the scan
		}
		p := s.lru.nodes[i].p
		if p.Version() >= cur {
			s.mu.Unlock()
			continue // a concurrent Get or sibling drain already folded it
		}
		changes := s.coalesceLocked(p.Version(), cur)
		s.mu.Unlock()

		np, folded := p.Rebase(db, changes, shared)
		if !folded {
			var err error
			np, err = compile(db, p.Query(), shared)
			if err != nil {
				// Compilation failed (cannot happen for a previously
				// compiled query under cell-level updates); drop the entry
				// so it recompiles on demand.
				s.mu.Lock()
				if j, ok := s.entries[key]; ok && s.flushGen == fg && s.lru.nodes[j].p == p {
					delete(s.entries, key)
					s.lru.remove(j)
					s.count--
				}
				s.mu.Unlock()
				recompiled++
				continue
			}
		}
		s.mu.Lock()
		if j, ok := s.entries[key]; ok && s.flushGen == fg {
			if nd := &s.lru.nodes[j]; np.Version() > nd.p.Version() && np.Version() >= s.logBase {
				nd.p = np
			}
		}
		s.mu.Unlock()
		if folded {
			rebased++
		} else {
			recompiled++
		}
	}
	return rebased, recompiled
}
