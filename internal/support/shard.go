package support

// Sharded support sets. The neighbors of a Set are partitioned into K
// shards by a deterministic hash of each neighbor's cell footprint (the
// set of cells its deltas touch), so the same set always shards the same
// way regardless of K's relationship to machine shape. A shard is a pure
// partition of the neighbors; it owns
//
//   - its slice of the neighbors (as ascending global indices),
//   - posting lists per (table, column index) of the local neighbors with
//     a cell update in that column, plus per table the neighbors that
//     insert or delete one of its rows — the package's one rule-1 index,
//     keyed the way a plan's footprint is (plan.FootprintCols): OR-ing a
//     query's footprint postings into a bitset over local ids yields the
//     shard's full rule-1 candidate set, in ascending order with no sort,
//     so neither a quote nor a BuildHypergraph job visits the (typically
//     vast) majority of neighbors footprint pruning discards,
//   - one contiguous array of compact cell-update records, one per
//     neighbor whose deltas are exactly one cell update (every neighbor
//     Generate makes): rule 2 decides those neighbors from the record
//     (plan.ProbeCell) without touching their delta slices, and
//   - a pooled per-quote scratch (the candidate bitset plus a
//     plan.Arena), so a warm probe of the shard is allocation-free.
//
// Compiled plans are not shard state: the Set owns one plan cache, shared
// by every shard, and the cache owns the bare-scan index pool
// (plan.IndexPool).
//
// One function (shard.conflicts) computes a query's conflicts on a shard,
// emitting the ascending global indices of its conflicting neighbors. The
// online path (ConflictSet) probes the shards one after another in the
// calling goroutine and one sort merges the disjoint per-shard lists into
// the final ascending conflict set; BuildHypergraph calls it for every
// query of each shard × query-tile job. Results are byte-identical to an
// unsharded, full-scan computation at every K.
//
// This in-process layout is also the seam a multi-process distribution
// would cut along: each shard's state (neighbors, postings, records) is
// self-contained apart from the read-only base database and the compiled
// plan it is handed.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"querypricing/internal/plan"
	"querypricing/internal/relational"
)

// shard is one partition of a support set's neighbors.
type shard struct {
	global  []int32         // ascending global indices of owned neighbors
	tables  []tablePostings // rule-1 index, one entry per table the deltas name
	cells   []cellUpdate    // local id -> the neighbor's one cell update, if that is all it is
	scratch sync.Pool       // *shardScratch, reused across quotes
}

// tablePostings is one table's part of a shard's rule-1 index, keyed the
// way a plan's footprint is (plan.FootprintCols): posting lists of local
// neighbor ids, ascending.
type tablePostings struct {
	name string
	cols [][]int32 // column index -> neighbors with a cell update there
	dml  []int32   // neighbors inserting or deleting a row of the table
}

// cellUpdate is the compact record of a neighbor whose deltas are exactly
// one cell update: table (an index into the shard's tables, -1 when the
// neighbor has any other shape), row, column and new value. One
// contiguous array of these lets rule 2 run without touching the
// neighbors' separately allocated delta slices.
type cellUpdate struct {
	table, row, col int32
	val             relational.Value
}

// shardScratch is the reusable per-quote working memory of one shard: the
// candidate bitset over local ids (kept all-zero between uses) and the
// probe arena the shard's delta probes draw all their scratch from —
// together they make a warm quote against the shard allocation-free.
type shardScratch struct {
	cand  []uint64
	arena *plan.Arena
}

// shardOfNeighbor assigns a neighbor to a shard by hashing its cell
// footprint — the (table, row, col) coordinates of its deltas, combined
// order-insensitively so delta order never matters.
func shardOfNeighbor(nb *Neighbor, k int) int {
	if k <= 1 {
		return 0
	}
	var sum, xor uint64
	var buf []byte
	for _, d := range nb.Deltas {
		buf = append(buf[:0], d.Table...)
		buf = append(buf, 0)
		buf = strconv.AppendInt(buf, int64(d.Row), 10)
		buf = append(buf, 0)
		buf = strconv.AppendInt(buf, int64(d.Col), 10)
		h := relational.HashBytes(buf)
		sum += h
		xor ^= h
	}
	mixed := sum ^ bits.RotateLeft64(xor, 31)
	mixed ^= mixed >> 33
	mixed *= 0xff51afd7ed558ccd
	mixed ^= mixed >> 33
	return int(mixed % uint64(k))
}

// ensureShards lazily partitions the set: it normalizes the Shards field,
// assigns every neighbor to its shard, builds each shard's rule-1 index
// and cell-update records, and creates the set's plan cache (which owns
// its bare-scan index pool). Idempotent and safe for concurrent use.
func (s *Set) ensureShards() []*shard {
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	if s.shards != nil {
		return s.shards
	}
	k := s.Shards
	if k <= 0 {
		k = 1
	}
	s.plans = plan.NewCache(s.DB, 0)
	shards := make([]*shard, k)
	for i := range shards {
		shards[i] = &shard{}
	}
	for ni := range s.Neighbors {
		sh := shards[shardOfNeighbor(&s.Neighbors[ni], k)]
		sh.global = append(sh.global, int32(ni))
	}
	for _, sh := range shards {
		sh.build(s)
	}
	s.shards = shards
	return shards
}

// build fills the shard's rule-1 postings and cell-update records from
// its neighbors' deltas.
func (sh *shard) build(s *Set) {
	sh.cells = make([]cellUpdate, len(sh.global))
	for li, gi := range sh.global {
		deltas := s.Neighbors[gi].Deltas
		sh.cells[li].table = -1
		for _, d := range deltas {
			t := s.DB.Table(d.Table)
			if t == nil {
				continue // invisible to every footprint, as in rule 1
			}
			ti := sh.tableID(d.Table, len(t.Schema.Cols))
			tp := &sh.tables[ti]
			if d.Op != relational.OpCellUpdate {
				tp.dml = appendPosting(tp.dml, int32(li))
				continue
			}
			if d.Col < 0 || d.Col >= len(tp.cols) {
				continue // invisible to every footprint, as in rule 1
			}
			tp.cols[d.Col] = appendPosting(tp.cols[d.Col], int32(li))
			if len(deltas) == 1 && d.Row >= math.MinInt32 && d.Row <= math.MaxInt32 {
				sh.cells[li] = cellUpdate{table: int32(ti), row: int32(d.Row), col: int32(d.Col), val: d.New}
			}
		}
	}
}

// tableID returns the index of the named table's postings, adding an
// empty entry for a table with ncols columns on first sight.
func (sh *shard) tableID(name string, ncols int) int {
	for i := range sh.tables {
		if sh.tables[i].name == name {
			return i
		}
	}
	sh.tables = append(sh.tables, tablePostings{name: name, cols: make([][]int32, ncols)})
	return len(sh.tables) - 1
}

// appendPosting appends a local id to an ascending posting list, once: a
// multi-delta neighbor may hit the same posting twice in a row.
func appendPosting(lst []int32, li int32) []int32 {
	if n := len(lst); n > 0 && lst[n-1] == li {
		return lst
	}
	return append(lst, li)
}

// candidates marks, in the scratch bitset over local ids, every neighbor
// whose deltas touch the plan's footprint — the index-driven equivalent
// of running pruning rule 1 against every neighbor of the shard: the
// union of the footprint columns' postings and, for each table the query
// reads, its insert/delete postings. The caller walks the set bits in
// ascending order and leaves the bitset all-zero.
func (sh *shard) candidates(p *plan.Plan, sc *shardScratch) []uint64 {
	words := (len(sh.global) + 63) / 64
	if len(sc.cand) < words {
		sc.cand = make([]uint64, words)
	}
	cand := sc.cand[:words]
	for ti := range sh.tables {
		tp := &sh.tables[ti]
		cols, reads := p.FootprintCols(tp.name)
		if !reads {
			continue
		}
		setBits(cand, tp.dml)
		for ci, on := range cols {
			if on && ci < len(tp.cols) {
				setBits(cand, tp.cols[ci])
			}
		}
	}
	return cand
}

// setBits ORs a posting list into a bitset.
func setBits(set []uint64, postings []int32) {
	for _, li := range postings {
		set[li>>6] |= 1 << (li & 63)
	}
}

// conflicts computes the shard's portion of CS(q, D), appending the global
// indices of conflicting neighbors to out in ascending order (the
// candidate bits are walked in ascending local-id order and the shard's
// global slice is ascending, so the scan emits sorted output for free).
// A neighbor that is one cell update is decided from its compact record
// (plan.ProbeCell); any other shape probes its delta list. BuildHypergraph
// and ConflictSet both compute every (query, shard) conflict list here.
// All probe scratch comes from the shard's pooled arena, so a warm call
// allocates only when out grows.
func (sh *shard) conflicts(s *Set, p *plan.Plan, st *Stats, out []int) ([]int, error) {
	sc, _ := sh.scratch.Get().(*shardScratch)
	if sc == nil {
		sc = &shardScratch{arena: plan.NewArena()}
	}
	defer sh.scratch.Put(sc)
	cand := sh.candidates(p, sc)
	found := 0
	for wi, w := range cand {
		if w == 0 {
			continue
		}
		cand[wi] = 0
		found += bits.OnesCount64(w)
		for ; w != 0; w &= w - 1 {
			li := wi<<6 | bits.TrailingZeros64(w)
			gi := sh.global[li]
			nb := &s.Neighbors[gi]
			var pr plan.ProbeResult
			if c := &sh.cells[li]; c.table >= 0 {
				pr = p.ProbeCell(sh.tables[c.table].name, int(c.row), int(c.col), c.val, sc.arena)
			} else {
				pr = p.ProbeDeltaArena(nb.Deltas, sc.arena)
			}
			var view *relational.Database // overlay views are per neighbor
			conflict, err := settleProbe(s, p, nb, pr, &view, st)
			if err != nil {
				clear(cand[wi+1:])
				return nil, fmt.Errorf("%w (neighbor %d)", err, gi)
			}
			if conflict {
				out = append(out, int(gi))
			}
		}
	}
	st.PrunedByCols += len(sh.global) - found
	return out, nil
}

// ConflictSet computes CS(q, D) for a single query against the support
// set: the indices of the neighbors on which q's answer differs from its
// answer on the base database. This is the online path a broker uses to
// price a freshly arrived query (BuildHypergraph is the batch path).
//
// The query's compiled plan is recalled from the set's plan cache, so
// repeated quotes — and quotes for queries a Calibrate already compiled —
// skip the base evaluation entirely. Each shard's footprint postings
// reduce the scan to the neighbors that can possibly conflict and every
// probe draws its scratch from the shard's pooled arena. The shards are
// probed in the calling goroutine, appending to one list that a single
// sort puts in ascending order. The computation never mutates shared
// state; any number of goroutines may call it concurrently over one Set,
// and the result is byte-identical at every shard count.
func ConflictSet(set *Set, q *relational.SelectQuery) ([]int, error) {
	shards := set.ensureShards()
	p, _, err := set.PlanFor(q)
	if err != nil {
		return nil, err
	}
	var st Stats
	var items []int
	for _, sh := range shards {
		if items, err = sh.conflicts(set, p, &st, items); err != nil {
			return nil, err
		}
	}
	// Each shard's list is ascending; one sort merges the disjoint lists
	// into the canonical ascending conflict set.
	slices.Sort(items)
	return items, nil
}
