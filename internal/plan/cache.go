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
// Cache's lineage carries. When an Advance would push the log past the
// cap, the successor drains eagerly (every stale plan is folded up to the
// new snapshot) and trims the log to what the slots still need — so
// sustained write-heavy feeds pay one coalesced rebase per cap-full of
// batches instead of one per batch, and the log never grows without bound.
const MaxPendingBatches = 64

// ChangeBatch is one applied update batch in a cache lineage's pending
// log: the changes (cell updates, row inserts, row deletes) that carried
// the base database from version ToVersion-1 to ToVersion. Rebase needs no
// pre-change values, so the log keeps none.
type ChangeBatch struct {
	// ToVersion is the database version the batch produced.
	ToVersion uint64
	// Changes is the batch's change list, in application order.
	Changes []relational.CellChange
}

// coalesceRange concatenates, in order, the changes of every pending batch
// in the half-open version window (fromVersion, toVersion]. Rebase
// consolidates with last-wins-per-cell semantics, so the concatenation is
// exactly the composite change set carrying a plan from fromVersion to
// toVersion — N deferred batches fold into one rebase pass.
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

// IndexPool shares scan artifacts across the plans a cache generation
// compiles against its base database, so no shared artifact is built
// twice:
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
// A pool serves exactly one snapshot. Advance carries to the successor
// only the bare-scan indexes the update batch leaves exact; every other
// artifact is rebuilt on its first use against the successor.
type IndexPool struct {
	mu      sync.Mutex
	db      *relational.Database // the snapshot this pool serves
	bare    map[indexPoolKey]map[uint64][]int32
	scans   map[scanPoolKey]scanEntry
	scanIdx map[scanIndexKey]map[uint64][]int32
	sorted  map[indexPoolKey][]int32
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

// NewIndexPool returns an empty pool for plans compiled against db.
func NewIndexPool(db *relational.Database) *IndexPool {
	return &IndexPool{
		db:      db,
		bare:    make(map[indexPoolKey]map[uint64][]int32),
		scans:   make(map[scanPoolKey]scanEntry),
		scanIdx: make(map[scanIndexKey]map[uint64][]int32),
		sorted:  make(map[indexPoolKey][]int32),
	}
}

// Advance returns a pool for the successor snapshot newDB (the receiver's
// database with changes applied). A bare-scan index is carried over,
// shared with the receiver, only when the batch has no cell update in its
// (table, column) and no insert or delete in its table: every cell it
// hashed is then unchanged, so it is exactly the successor's index. Every
// other bare-scan index is rebuilt by hashRows on its first get. Filtered
// scans, their indexes and sorted orders are never carried: membership
// and row contents may both have moved, and the successor's first compile
// per predicate rescans — the same cost an unshared compile pays. The
// receiver keeps serving its own snapshot unmodified.
func (p *IndexPool) Advance(newDB *relational.Database, changes []relational.CellChange) *IndexPool {
	np := NewIndexPool(newDB)
	// Column -1 stands for the whole table: an insert or delete moves a
	// row in every column.
	touched := make(map[indexPoolKey]bool, len(changes))
	for _, c := range changes {
		col := -1
		if c.Op == relational.OpCellUpdate {
			col = c.Col
		}
		touched[indexPoolKey{c.Table, col}] = true
	}
	p.mu.Lock()
	for key, idx := range p.bare {
		if !touched[key] && !touched[indexPoolKey{key.table, -1}] {
			np.bare[key] = idx
		}
	}
	p.mu.Unlock()
	return np
}

// get returns the shared join index on column col of the bare scan of
// table — rows, the table's slots at the pool's snapshot — hashing it on
// first use.
func (p *IndexPool) get(table string, col int, rows [][]relational.Value) map[uint64][]int32 {
	return publishOnce(p, p.bare, indexPoolKey{table, col}, func() map[uint64][]int32 {
		return hashRows(rows, col)
	})
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
// A Cache value is a lightweight generation handle, bound for life to the
// one snapshot it was made for and owning that snapshot's bare-scan index
// pool; all entries live in a cacheStore shared by every generation of one
// Advance chain. Each entry is a versioned slot whose plan only ever moves
// forward in version, so Advance touches nothing but the shared change
// log, the successor's pool (which carries the untouched bare-scan
// indexes) and O(1) generation metadata — its cost is independent of how
// many plans are cached — while older generations keep serving their own
// snapshot (a slot already
// upgraded past a generation is answered by a private compilation instead
// of winding the shared slot back). A plan is rebased on its first
// post-update use — all deferred batches coalesced into one Rebase pass —
// and recompiled only if the composite change escapes the
// delta-maintenance rules.
type Cache struct {
	store   *cacheStore
	pool    *IndexPool           // bare-scan join indexes over db
	db      *relational.Database // the snapshot this generation serves
	version uint64               // == db.Version(); plans fold toward this
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
	latestDB  *relational.Database // newest advanced-to snapshot

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

// NewCache returns a cache generation serving db, bounded to max plans
// (DefaultCacheSize when max is non-positive). It roots a fresh store at
// db and owns a fresh bare-scan index pool over db.
func NewCache(db *relational.Database, max int) *Cache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	return &Cache{store: newStore(db, max), pool: NewIndexPool(db), db: db, version: db.Version()}
}

// newStore returns an empty store whose lineage is rooted at db.
func newStore(db *relational.Database, max int) *cacheStore {
	return &cacheStore{
		max:       max,
		entries:   make(map[string]int32),
		lru:       newLRU(),
		inflight:  make(map[string]*compileCall),
		latestDB:  db,
		latestVer: db.Version(),
		logBase:   db.Version(),
	}
}

// Get returns the cached plan for the query against the generation's
// snapshot, compiling (and caching) it on a miss. The second result
// reports whether a fresh compilation ran on this call — callers use it to
// count compilations, each of which enumerates the query's base answer
// once. The key is the query's canonical SQL (Key), rendered on every
// call.
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
func (c *Cache) Get(q *relational.SelectQuery) (*Plan, bool, error) {
	key := Key(q)
	s := c.store
	db, myVer := c.db, c.version
	s.mu.Lock()
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
		if np, ok := stale.Rebase(db, changes, c.pool); ok {
			call.p = np
		}
	}
	if call.p == nil {
		call.p, call.err = compile(db, q, c.pool)
		fresh = call.err == nil
	}

	s.mu.Lock()
	if s.inflight[key] == call {
		delete(s.inflight, key)
	}
	// Publish monotonically: never a plan older than the slot already
	// holds, and never one the shared log could no longer fold forward
	// (version < logBase).
	if call.err == nil {
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

// Advance returns a cache generation for the successor snapshot newDB
// (the receiver's database with changes applied), deferring all plan
// maintenance: the successor's index pool carries only the bare-scan
// indexes the batch leaves exact (IndexPool.Advance), every entry slot
// stays shared (nothing is cloned — not the entry map, not the LRU) and
// the change batch is appended to the shared pending log — the lineage's
// one change log — so the cost of an update is O(batch) plus the pool's
// index count plus O(1) generation metadata, independent of the number of
// cached plans. Each
// plan is folded forward — all deferred batches coalesced into one pass —
// on its first use through the new generation, or recompiled when the
// composite change escapes delta maintenance; Drain forces the fold-up
// eagerly. The receiver keeps serving the predecessor snapshot (slots
// upgraded past it are answered by private compilations).
//
// Advancing a generation that is no longer the newest of its store — a
// fork in database history — starts a fresh, empty store for the
// successor: versions on a diverged lineage are incomparable with the
// shared slots.
func (c *Cache) Advance(newDB *relational.Database, changes []relational.CellChange) (*Cache, AdvanceStats) {
	pool := c.pool.Advance(newDB, changes)
	s := c.store
	newVer := newDB.Version()
	s.mu.Lock()
	if s.latestDB != c.db {
		// Branching advance from a non-latest generation: the successor's
		// lineage diverges from the slots' (same version numbers, different
		// databases), so shared slots cannot serve it. Plans recompile on
		// demand.
		s.mu.Unlock()
		return &Cache{store: newStore(newDB, s.max), pool: pool, db: newDB, version: newVer}, AdvanceStats{}
	}
	// Linear advance of the newest generation — the O(changes) path. Every
	// slot predates newVer (slots never outrun latestVer), so the deferred
	// count is just the entry count.
	s.log = append(s.log, ChangeBatch{ToVersion: newVer, Changes: changes})
	s.latestDB = newDB
	s.latestVer = newVer
	nc := &Cache{store: s, pool: pool, db: newDB, version: newVer}
	st := AdvanceStats{Deferred: s.count}
	capDrain := len(s.log) > MaxPendingBatches
	s.mu.Unlock()
	if capDrain {
		// Amortized bound: one eager coalesced drain per cap-full of
		// batches, then the log is trimmed to what the slots still need.
		// The drain's work is surfaced in the stats.
		st.Rebased, st.Recompiled = nc.Drain()
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

// Drain eagerly folds deferred updates into cached plans: every stale
// entry is rebased onto the cache's snapshot — or recompiled when the
// composite change escapes delta maintenance — exactly as its first use
// would. It returns how many plans were rebased and how many had to be
// recompiled. Safe to run concurrently with Gets: slot publishes are
// monotone, so a concurrent upgrade of the same slot is harmless
// (whichever newer plan lands first wins and the other is discarded).
// Unlike a Get, a drain does not touch LRU recency — maintenance should
// not look like use. Advance runs it at the MaxPendingBatches cap so the
// pending log can be trimmed; otherwise plans fold on first use, and
// support.Set.Drain runs it on demand.
func (c *Cache) Drain() (rebased, recompiled int) {
	s := c.store
	db, cur := c.db, c.version
	s.mu.Lock()
	var stales []string
	for i := s.lru.tail; i >= 0; i = s.lru.nodes[i].prev {
		nd := &s.lru.nodes[i]
		if nd.p.Version() < cur {
			stales = append(stales, nd.key)
		}
	}
	s.mu.Unlock()
	for _, key := range stales {
		s.mu.Lock()
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

		np, folded := p.Rebase(db, changes, c.pool)
		if !folded {
			var err error
			np, err = compile(db, p.Query(), c.pool)
			if err != nil {
				// Compilation failed (cannot happen for a previously
				// compiled query under cell-level updates); drop the entry
				// so it recompiles on demand.
				s.mu.Lock()
				if j, ok := s.entries[key]; ok && s.lru.nodes[j].p == p {
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
		if j, ok := s.entries[key]; ok {
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
