package support

// Sharded support sets. The neighbors of a Set are partitioned into K
// shards by a deterministic hash of each neighbor's cell footprint (the
// set of cells its deltas touch), so the same set always shards the same
// way regardless of K's relationship to machine shape. A shard is a pure
// partition of the neighbors; it owns
//
//   - its slice of the neighbors (as ascending global indices),
//   - an inverted footprint index mapping (table, column) to the local
//     neighbors whose deltas touch that column — the package's one rule-1
//     index: one merge over a query's footprint yields the shard's full
//     rule-1 candidate set, so neither a quote nor a BuildHypergraph job
//     visits the (typically vast) majority of neighbors footprint pruning
//     discards, and
//   - a pooled per-quote scratch (candidate marks plus a plan.Arena), so
//     a warm probe of the shard is allocation-free.
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
// would cut along: each shard's state (neighbors, footprint index) is
// self-contained apart from the read-only base database and the compiled
// plan it is handed.

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"querypricing/internal/plan"
	"querypricing/internal/relational"
)

// shard is one partition of a support set's neighbors.
type shard struct {
	global  []int32            // ascending global indices of owned neighbors
	index   map[string][]int32 // "table\x00col" -> local neighbor ids, ascending
	scratch sync.Pool          // *shardScratch, reused across quotes
}

// shardScratch is the reusable per-quote working memory of one shard:
// the candidate mark slice (kept all-false between uses), the candidate id
// buffer, and the probe arena the shard's delta probes draw all their
// scratch from — together they make a warm quote against the shard
// allocation-free.
type shardScratch struct {
	marked []bool
	cand   []int32
	arena  *plan.Arena
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
// assigns every neighbor to its shard, builds each shard's inverted
// footprint index, and creates the set's plan cache (which owns its
// bare-scan index pool) unless one was carried in. Idempotent and safe
// for concurrent use.
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
	if s.plans == nil {
		s.plans = plan.NewCache(s.DB, 0)
	}
	shards := make([]*shard, k)
	for i := range shards {
		shards[i] = &shard{index: make(map[string][]int32)}
	}
	for ni := range s.Neighbors {
		sh := shards[shardOfNeighbor(&s.Neighbors[ni], k)]
		sh.global = append(sh.global, int32(ni))
	}
	for _, sh := range shards {
		for li, gi := range sh.global {
			for _, d := range s.Neighbors[gi].Deltas {
				t := s.DB.Table(d.Table)
				if t == nil || d.Col < 0 || d.Col >= len(t.Schema.Cols) {
					continue // invisible to every footprint, as in rule 1
				}
				key := d.Table + "\x00" + t.Schema.Cols[d.Col].Name
				lst := sh.index[key]
				if n := len(lst); n > 0 && lst[n-1] == int32(li) {
					continue // multi-delta neighbor hit the column twice
				}
				sh.index[key] = append(lst, int32(li))
			}
		}
	}
	s.shards = shards
	return shards
}

// candidates fills sc.cand with the local ids of neighbors whose deltas
// touch the plan's footprint, ascending — the index-driven equivalent of
// running pruning rule 1 against every neighbor of the shard. The scratch
// mark slice is left all-false for the next user.
func (sh *shard) candidates(p *plan.Plan, sc *shardScratch) []int32 {
	if len(sh.global) == 0 {
		return nil
	}
	if len(sc.marked) < len(sh.global) {
		sc.marked = make([]bool, len(sh.global))
	}
	out := sc.cand[:0]
	for table, cols := range p.Footprint().Columns {
		for col := range cols {
			for _, li := range sh.index[table+"\x00"+col] {
				if !sc.marked[li] {
					sc.marked[li] = true
					out = append(out, li)
				}
			}
		}
	}
	slices.Sort(out)
	for _, li := range out {
		sc.marked[li] = false
	}
	sc.cand = out
	return out
}

// conflicts computes the shard's portion of CS(q, D), appending the global
// indices of conflicting neighbors to out in ascending order (shard-local
// ids ascend and the shard's global slice is ascending, so the scan emits
// sorted output for free). BuildHypergraph and ConflictSet both compute
// every (query, shard) conflict list here. All probe scratch comes from
// the shard's pooled arena, so a warm call allocates only when out grows.
func (sh *shard) conflicts(s *Set, p *plan.Plan, st *Stats, out []int) ([]int, error) {
	sc, _ := sh.scratch.Get().(*shardScratch)
	if sc == nil {
		sc = &shardScratch{arena: plan.NewArena()}
	}
	defer sh.scratch.Put(sc)
	cand := sh.candidates(p, sc)
	st.PrunedByCols += len(sh.global) - len(cand)
	for _, li := range cand {
		nb := &s.Neighbors[sh.global[li]]
		var view *relational.Database // overlay views are per neighbor
		conflict, err := decidePair(s, p, nb, BuildOptions{}, &view, sc.arena, st)
		if err != nil {
			return nil, fmt.Errorf("%w (neighbor %d)", err, sh.global[li])
		}
		if conflict {
			out = append(out, int(sh.global[li]))
		}
	}
	return out, nil
}

// ConflictSet computes CS(q, D) for a single query against the support
// set: the indices of the neighbors on which q's answer differs from its
// answer on the base database. This is the online path a broker uses to
// price a freshly arrived query (BuildHypergraph is the batch path).
//
// The query's compiled plan is recalled from the set's plan cache, so
// repeated quotes — and quotes for queries a Calibrate already compiled —
// skip the base evaluation entirely. Each shard's inverted footprint index
// reduces the scan to the neighbors that can possibly conflict and every
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
