package support

// Sharded support sets. The neighbors of a Set are partitioned into K
// shards by a deterministic hash of each neighbor's cell footprint (the
// set of cells its deltas touch), so the same set always shards the same
// way regardless of K's relationship to machine shape. Each shard owns
//
//   - its slice of the neighbors (as ascending global indices),
//   - an inverted footprint index mapping (table, column) to the local
//     neighbors whose deltas touch that column — the package's one rule-1
//     index: one merge over a query's footprint yields the shard's full
//     rule-1 candidate set, so neither a quote nor a BuildHypergraph job
//     visits the (typically vast) majority of neighbors footprint pruning
//     discards, and
//   - a compiled-plan cache. Plans are homed on one shard per query key,
//     so concurrent quote traffic spreads across per-shard cache locks;
//     every cache shares one bare-scan index pool (plan.IndexPool), and
//   - a pooled per-quote scratch (candidate marks plus a plan.Arena), so
//     a warm quote against the shard is allocation-free.
//
// One function (shard.conflicts) computes a query's conflicts on a shard,
// emitting the ascending global indices of its conflicting neighbors. The
// online path (ConflictSet) fans a single query out across shards and one
// sort merges the disjoint per-shard lists into the final ascending
// conflict set; BuildHypergraph calls it for every query of each shard ×
// query-tile job. Results are byte-identical to an unsharded, full-scan
// computation at every K.
//
// This in-process layout is also the seam a multi-process distribution
// would cut along: each shard's state (neighbors, plan cache, footprint
// index) is self-contained apart from the read-only base database.

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"

	"querypricing/internal/plan"
	"querypricing/internal/relational"
)

// shard is one partition of a support set's neighbors.
type shard struct {
	id     int
	global []int32            // ascending global indices of owned neighbors
	index  map[string][]int32 // "table\x00col" -> local neighbor ids, ascending

	planMu sync.Mutex
	plans  *plan.Cache // plans homed on this shard (lazy)

	scratch sync.Pool // *shardScratch, reused across quotes
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

// planCache returns the shard's plan cache, creating it on first use with
// the set's shared bare-scan index pool.
func (sh *shard) planCache(s *Set) *plan.Cache {
	sh.planMu.Lock()
	defer sh.planMu.Unlock()
	if sh.plans == nil {
		sh.plans = plan.NewCacheWithPool(0, s.pool)
	}
	return sh.plans
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

// homeShard picks the shard that owns a query's compiled plan.
func homeShard(key string, k int) int {
	if k <= 1 {
		return 0
	}
	return int(relational.HashBytes([]byte(key)) % uint64(k))
}

// ensureShards lazily partitions the set: it normalizes the Shards field,
// assigns every neighbor to its shard, and builds each shard's inverted
// footprint index. Idempotent and safe for concurrent use.
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
	if s.pool == nil {
		s.pool = plan.NewIndexPool(s.DB)
	}
	if s.fanout == nil {
		s.fanout = make(chan struct{}, runtime.GOMAXPROCS(0))
	}
	shards := make([]*shard, k)
	for i := range shards {
		shards[i] = &shard{id: i, index: make(map[string][]int32)}
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
// The query's compiled plan is recalled from its home shard's plan cache,
// so repeated quotes — and quotes for queries a Calibrate already
// compiled — skip the base evaluation entirely. Each shard's inverted
// footprint index reduces the scan to the neighbors that can possibly
// conflict, every probe draws its scratch from the shard's pooled arena,
// and with more than one shard the probing fans out across shards
// concurrently; the per-shard sorted conflict lists are then merged. The
// computation never mutates shared state; any number of goroutines may
// call it concurrently over one Set, and the result is byte-identical at
// every shard count.
func ConflictSet(set *Set, q *relational.SelectQuery) ([]int, error) {
	shards := set.ensureShards()
	p, _, err := set.PlanFor(q)
	if err != nil {
		return nil, err
	}
	if len(shards) == 1 {
		var st Stats
		return shards[0].conflicts(set, p, &st, nil)
	}
	// Fan out across shards, but keep the total number of extra
	// goroutines across all concurrent quotes bounded (set.fanout holds
	// GOMAXPROCS permits): when no permit is free — e.g. many QuoteBatch
	// workers quoting at once — the shard is probed inline instead, so
	// shard parallelism never oversubscribes the batch worker pool.
	results := make([][]int, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		select {
		case set.fanout <- struct{}{}:
			wg.Add(1)
			go func(i int, sh *shard) {
				defer wg.Done()
				defer func() { <-set.fanout }()
				var st Stats
				results[i], errs[i] = sh.conflicts(set, p, &st, nil)
			}(i, sh)
		default:
			var st Stats
			results[i], errs[i] = sh.conflicts(set, p, &st, nil)
		}
	}
	wg.Wait()
	var items []int
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		items = append(items, results[i]...)
	}
	// Each shard's list is ascending; one sort merges the disjoint lists
	// into the canonical ascending conflict set.
	sort.Ints(items)
	return items, nil
}
