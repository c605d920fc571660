// Package support implements the Qirana-style support machinery of Section
// 3.2 and 6.1 of the paper: it samples a support set S of "neighboring"
// database instances (instances differing from the real database D in a few
// cells, stored as compact deltas), computes the conflict set CS(Q, D) of
// every buyer query, and assembles the pricing hypergraph whose vertices
// are support instances and whose hyperedges are conflict sets.
//
// Conflict-set computation runs on the incremental engine in
// internal/plan: every query is compiled once against the base database
// into a cached plan (filtered scans, hash-join indexes, base fingerprint),
// and each (query, neighbor) pair is decided by probing those indexes with
// only the neighbor's changed rows. Two sound pruning rules run first:
//
//  1. column-footprint pruning: a neighbor whose deltas touch no column the
//     query reads cannot change its answer;
//  2. local-predicate pruning: if every changed row fails the query's
//     pushed-down single-table predicates both before and after the change,
//     the row is excluded from the query's scans either way and the answer
//     is unchanged.
//
// Pairs the delta rules cannot decide exactly (LIMIT queries, residual
// MIN/MAX ties) fall back to a full re-evaluation against a copy-on-write
// overlay view; SUM/AVG and DISTINCT aggregates are decided exactly
// because evaluation accumulates them in canonical order.
//
// A Set owns one compiled-plan cache. Its neighbors are partitioned into
// shards (shard.go), each owning footprint posting lists over its
// neighbors' deltas, compact records of its one-cell-update neighbors and
// a pooled probe scratch (a plan.Arena), so warm probes allocate nothing.
// A query's conflicts on one shard are computed one way for every caller:
// rule 1 as a bitset union of the shard's postings, then one delta probe
// per surviving neighbor, whose rule-2 pre-pass settles most of them.
// BuildHypergraph schedules shard × query tiles of that computation over
// a bounded worker pool, and the online ConflictSet path probes a single
// query's shards in the calling goroutine, merging the per-shard
// ascending lists with one sort.
// Nothing in this package mutates the base database, so any number of
// goroutines may compute conflict sets over the same Set concurrently,
// and results are byte-identical at every shard count.
package support

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"querypricing/internal/hypergraph"
	"querypricing/internal/plan"
	"querypricing/internal/relational"
)

// Delta is a single-cell difference from the base database. It is the
// plan package's CellChange, so neighbors feed the incremental engine
// without conversion.
type Delta = plan.CellChange

// Neighbor is one support instance: the base database with Deltas applied.
type Neighbor struct {
	Deltas []Delta
}

// Set is a generated support set over a base database. It owns one
// compiled-plan cache and is partitioned into shards (see shard.go): each
// shard owns a deterministic subset of the neighbors, footprint postings
// over their deltas and compact records of its one-cell-update neighbors.
// Shard state and the cache are initialized lazily on first use, so
// literal construction (&Set{DB: ..., Neighbors: ...}) remains valid; set
// Shards before the first plan or conflict-set computation.
type Set struct {
	DB        *relational.Database
	Neighbors []Neighbor

	// Shards is the number of partitions the neighbors are split into
	// (≤ 0 means one). It is read once, when the set is first used.
	Shards int

	shardMu sync.Mutex
	shards  []*shard
	plans   *plan.Cache
}

// Size returns n = |S|.
func (s *Set) Size() int { return len(s.Neighbors) }

// PlanFor returns the cached compiled plan for the query (compiling it on
// first use). The boolean reports whether this call compiled the plan —
// i.e. whether it paid the one-time base evaluation. The plan is looked
// up by the query's canonical text (plan.Key) on every call, so a query
// object edited between calls is priced by what it says now.
func (s *Set) PlanFor(q *relational.SelectQuery) (*plan.Plan, bool, error) {
	return s.cache().Get(q)
}

// PlanCacheLen reports the number of cached compiled plans (diagnostics).
func (s *Set) PlanCacheLen() int { return s.cache().Len() }

// cache returns the set's plan cache, initializing the set on first use.
func (s *Set) cache() *plan.Cache {
	s.ensureShards()
	return s.plans
}

// NumShards reports the effective shard count (after normalization of the
// Shards field), forcing shard initialization.
func (s *Set) NumShards() int { return len(s.ensureShards()) }

// GenOptions controls support generation.
type GenOptions struct {
	// Size is the number of neighboring instances to sample.
	Size int
	// DeltasPerNeighbor is how many cells each neighbor changes (default 1,
	// Qirana's "differ from D only in a few places").
	DeltasPerNeighbor int
	// Tables restricts sampling to the named tables (nil = all tables,
	// weighted by row count).
	Tables []string
	// Seed makes generation deterministic.
	Seed int64
	// Shards partitions the generated set (Set.Shards); ≤ 0 means one.
	Shards int
}

// Generate samples a support set: each neighbor flips one (or a few)
// random cells of the base database to a different value drawn from the
// column's active domain (falling back to a perturbed value for columns
// with a single distinct value).
func Generate(db *relational.Database, opts GenOptions) (*Set, error) {
	if opts.Size <= 0 {
		return nil, fmt.Errorf("support: Size must be positive, got %d", opts.Size)
	}
	deltasPer := opts.DeltasPerNeighbor
	if deltasPer <= 0 {
		deltasPer = 1
	}
	tables := opts.Tables
	if tables == nil {
		tables = db.TableNames()
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	// Live-row-weighted table choice and per-column active domains.
	// Sampling maps through each table's live slots so tombstoned rows
	// (which no scan observes) never take a delta.
	type colDomain struct {
		table string
		col   int
		vals  []relational.Value
	}
	var weights []int
	liveSlots := make(map[string][]int, len(tables))
	totalRows := 0
	for _, name := range tables {
		t := db.Table(name)
		if t == nil {
			return nil, fmt.Errorf("support: unknown table %q", name)
		}
		var live []int
		for ri := range t.Rows {
			if t.Alive(ri) {
				live = append(live, ri)
			}
		}
		liveSlots[name] = live
		weights = append(weights, len(live))
		totalRows += len(live)
	}
	if totalRows == 0 {
		return nil, fmt.Errorf("support: database has no rows")
	}
	domains := make(map[string][]colDomain)
	for _, name := range tables {
		t := db.Table(name)
		for ci, c := range t.Schema.Cols {
			domains[name] = append(domains[name], colDomain{
				table: name,
				col:   ci,
				vals:  db.ActiveDomain(name, c.Name),
			})
		}
	}

	pickTable := func() string {
		r := rng.Intn(totalRows)
		for i, w := range weights {
			if r < w {
				return tables[i]
			}
			r -= w
		}
		return tables[len(tables)-1]
	}

	set := &Set{DB: db, Shards: opts.Shards}
	for i := 0; i < opts.Size; i++ {
		var nb Neighbor
		for d := 0; d < deltasPer; d++ {
			tn := pickTable()
			t := db.Table(tn)
			row := liveSlots[tn][rng.Intn(len(liveSlots[tn]))]
			col := rng.Intn(len(t.Schema.Cols))
			cur := t.Rows[row][col]
			nv := perturb(rng, cur, domains[tn][col].vals)
			nb.Deltas = append(nb.Deltas, Delta{Table: tn, Row: row, Col: col, New: nv})
		}
		set.Neighbors = append(set.Neighbors, nb)
	}
	return set, nil
}

// perturb picks a replacement value different from cur: a random other
// member of the active domain when one exists, otherwise a shifted numeric
// or suffixed string value.
func perturb(rng *rand.Rand, cur relational.Value, domain []relational.Value) relational.Value {
	if len(domain) > 1 {
		for tries := 0; tries < 16; tries++ {
			v := domain[rng.Intn(len(domain))]
			if !v.Equal(cur) {
				return v
			}
		}
	}
	switch cur.K {
	case relational.KindInt:
		return relational.Int(cur.I + int64(1+rng.Intn(1000)))
	case relational.KindFloat:
		return relational.Float(cur.F + 1 + rng.Float64()*100)
	case relational.KindString:
		return relational.Str(cur.S + "~" + string(rune('a'+rng.Intn(26))))
	default:
		return relational.Int(int64(1 + rng.Intn(1000)))
	}
}

// view returns a database equal to the base with the neighbor's deltas
// applied, without mutating the base: untouched tables (and the rows of
// touched tables) are shared, only the containing row slices and changed
// rows are copied. The deltas are read the way a delta probe reads them:
// inserts land at the table's slot count plus k in delta order (a
// malformed one holds its slot but no row), deletes tombstone their slot,
// and cell updates then write the live rows in order; coordinates that
// name no live row or column are vacuous. The view is safe to evaluate
// queries against while other goroutines read the base database.
func (s *Set) view(nb *Neighbor) *relational.Database {
	byTable := make(map[string][]Delta, 1)
	for _, d := range nb.Deltas {
		byTable[d.Table] = append(byTable[d.Table], d)
	}
	out := relational.NewDatabase()
	for _, name := range s.DB.TableNames() {
		src := s.DB.Table(name)
		deltas, touched := byTable[name]
		if !touched {
			out.AddTable(src)
			continue
		}
		t := relational.NewTable(src.Schema)
		t.Rows = make([][]relational.Value, len(src.Rows))
		copy(t.Rows, src.Rows)
		width := len(src.Schema.Cols)
		fresh := make(map[int]bool, len(deltas)) // slots whose row the view owns
		for _, d := range deltas {
			if d.Op == relational.OpRowInsert {
				var row []relational.Value
				if len(d.Vals) == width {
					row = append([]relational.Value(nil), d.Vals...)
					fresh[len(t.Rows)] = true
				}
				t.Rows = append(t.Rows, row)
			}
		}
		for _, d := range deltas {
			if d.Op == relational.OpRowDelete && d.Row >= 0 && d.Row < len(t.Rows) {
				t.Rows[d.Row] = nil
			}
		}
		for _, d := range deltas {
			if d.Op != relational.OpCellUpdate || d.Row < 0 || d.Row >= len(t.Rows) ||
				t.Rows[d.Row] == nil || d.Col < 0 || d.Col >= width {
				continue // vacuous: no live row or column to write
			}
			if !fresh[d.Row] {
				t.Rows[d.Row] = append([]relational.Value(nil), t.Rows[d.Row]...)
				fresh[d.Row] = true
			}
			t.Rows[d.Row][d.Col] = d.New
		}
		out.AddTable(t)
	}
	return out
}

// BuildOptions tunes hypergraph construction.
type BuildOptions struct {
	// DisablePruning turns off both pruning rules AND delta probing (the
	// naive ablation baseline): every neighbor is fully
	// re-evaluated for every query.
	DisablePruning bool
	// DisableIncremental keeps the pruning rules but replaces delta
	// probing with full re-evaluation of every surviving pair (the
	// pre-incremental behavior, kept for benchmarks and equivalence
	// tests).
	DisableIncremental bool
	// Workers bounds the neighbor-level worker pool (0 = GOMAXPROCS,
	// 1 = serial).
	Workers int
}

// Stats reports work done during hypergraph construction.
type Stats struct {
	QueryEvals   int // base-answer evaluations: plan compiles + full-evaluation fallbacks
	PrunedByCols int // (query, neighbor) pairs skipped by footprint pruning
	PrunedByPred int // pairs skipped by local-predicate pruning
	DeltaProbes  int // pairs decided by the incremental engine alone
	Fallbacks    int // pairs the delta rules punted to full re-evaluation
}

func (st *Stats) add(o Stats) {
	st.QueryEvals += o.QueryEvals
	st.PrunedByCols += o.PrunedByCols
	st.PrunedByPred += o.PrunedByPred
	st.DeltaProbes += o.DeltaProbes
	st.Fallbacks += o.Fallbacks
}

// decidePair resolves one (plan, neighbor) pair in a reference mode,
// lazily materializing the overlay view (the caller decides how far a
// view is shared): DisableIncremental checks rule 1 and rule 2 per pair
// and fully evaluates every survivor, DisablePruning fully evaluates
// every pair. The default mode decides pairs in shard.conflicts instead.
func decidePair(set *Set, p *plan.Plan, nb *Neighbor, opts BuildOptions, view **relational.Database, st *Stats) (bool, error) {
	if !opts.DisablePruning {
		if !p.TouchesChanges(nb.Deltas) {
			st.PrunedByCols++
			return false, nil
		}
		if p.LocallyPruned(nb.Deltas) {
			st.PrunedByPred++
			return false, nil
		}
	}
	return evalPair(set, p, nb, view, st)
}

// settleProbe turns a rule-1 candidate's probe result into its verdict,
// counting it in st: an untouched input is the local-predicate prune,
// and a probe that cannot decide falls back to full evaluation.
func settleProbe(set *Set, p *plan.Plan, nb *Neighbor, pr plan.ProbeResult, view **relational.Database, st *Stats) (bool, error) {
	if pr.InputUntouched {
		st.PrunedByPred++
		return false, nil
	}
	switch pr.Outcome {
	case plan.Unchanged:
		st.DeltaProbes++
		return false, nil
	case plan.Changed:
		st.DeltaProbes++
		return true, nil
	}
	st.Fallbacks++
	return evalPair(set, p, nb, view, st)
}

// evalPair evaluates the query on the neighbor's overlay view (built on
// first use) and compares the answer with the base answer.
func evalPair(set *Set, p *plan.Plan, nb *Neighbor, view **relational.Database, st *Stats) (bool, error) {
	if *view == nil {
		*view = set.view(nb)
	}
	res, err := p.Query().Eval(*view)
	if err != nil {
		return false, fmt.Errorf("support: evaluating %q on neighbor: %w", p.Query().Name, err)
	}
	st.QueryEvals++
	return res.Fingerprint() != p.BaseFingerprint(), nil
}

// BuildHypergraph computes the conflict set of every query against the
// support set and returns the pricing hypergraph: item j is neighbor j, and
// edge i is CS(queries[i], D) with zero valuation (valuations are assigned
// afterwards by the valuation package). Labels carry the query names.
//
// Construction is read-only and parallel: plans are compiled (or recalled
// from the set's plan cache) concurrently, then shard × query-tile
// jobs are scheduled over a bounded worker pool — each job computes one
// shard's conflicts for every query of one contiguous tile with the quote
// path's per-shard probe, so large support sets parallelize across shards
// and large workloads across tiles. The result is byte-identical to a
// serial, full-re-evaluation, unsharded build (the DisableIncremental and
// DisablePruning reference modes, which decide every pair directly and
// share no index with the default mode).
func BuildHypergraph(set *Set, queries []*relational.SelectQuery, opts BuildOptions) (*hypergraph.Hypergraph, *Stats, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	stats := &Stats{}
	plans := make([]*plan.Plan, len(queries))
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
		failed   bool
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			failed = true
		}
		mu.Unlock()
	}

	// Phase 1: compile (or recall) one plan per query.
	qJobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			compiled := 0
			for qi := range qJobs {
				mu.Lock()
				stop := failed
				mu.Unlock()
				if stop {
					continue
				}
				p, fresh, err := set.PlanFor(queries[qi])
				if err != nil {
					fail(err)
					continue
				}
				if fresh {
					compiled++
				}
				plans[qi] = p
			}
			mu.Lock()
			stats.QueryEvals += compiled
			mu.Unlock()
		}()
	}
	for qi := range queries {
		qJobs <- qi
	}
	close(qJobs)
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}

	// Phase 2: shard × query-tile jobs. In the default mode a job runs the
	// quote path (shard.conflicts) for every query of one contiguous tile
	// against one shard, so rule 1 comes from the shard's footprint
	// postings alone. The full-re-evaluation reference modes
	// instead chunk each shard's neighbors with one query span and decide
	// every pair directly, so every neighbor's copy-on-write overlay view
	// is materialized at most once.
	shards := set.ensureShards()
	reference := opts.DisablePruning || opts.DisableIncremental
	numQ := len(queries)
	conflict := make([][]int, numQ)
	if numQ > 0 {
		// Aim for a few jobs per worker so shard and tile skew even out.
		perShard := (workers*4 + len(shards) - 1) / len(shards)
		if perShard < 1 {
			perShard = 1
		}
		tiles, nChunks := 1, 1
		if reference {
			nChunks = perShard
		} else {
			tiles = perShard
			if tiles > numQ {
				tiles = numQ
			}
		}
		tileSize := (numQ + tiles - 1) / tiles
		tiles = (numQ + tileSize - 1) / tileSize
		numJobs := len(shards) * tiles * nChunks

		type pair struct{ qi, ni int32 }
		results := make([][]pair, numJobs)
		jobs := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var local Stats
				var items []int
				stopped := func() bool {
					mu.Lock()
					defer mu.Unlock()
					return failed
				}
				for j := range jobs {
					if stopped() {
						continue
					}
					sh := shards[j/(tiles*nChunks)]
					rest := j % (tiles * nChunks)
					lo := int32((rest / nChunks) * tileSize)
					hi := lo + int32(tileSize)
					if hi > int32(numQ) {
						hi = int32(numQ)
					}
					var out []pair
					if !reference {
						for qi := lo; qi < hi && !stopped(); qi++ {
							var err error
							items, err = sh.conflicts(set, plans[qi], &local, items[:0])
							if err != nil {
								fail(err)
								break
							}
							for _, gi := range items {
								out = append(out, pair{qi, int32(gi)})
							}
						}
						results[j] = out
						continue
					}
					nc := rest % nChunks
					nbs := sh.global[len(sh.global)*nc/nChunks : len(sh.global)*(nc+1)/nChunks]
					for _, gi := range nbs {
						if stopped() {
							break
						}
						nb := &set.Neighbors[gi]
						var view *relational.Database
						for qi := lo; qi < hi; qi++ {
							ok, err := decidePair(set, plans[qi], nb, opts, &view, &local)
							if err != nil {
								fail(fmt.Errorf("%w (neighbor %d)", err, gi))
								break
							}
							if ok {
								out = append(out, pair{qi, gi})
							}
						}
					}
					results[j] = out
				}
				mu.Lock()
				stats.add(local)
				mu.Unlock()
			}()
		}
		for j := 0; j < numJobs; j++ {
			jobs <- j
		}
		close(jobs)
		wg.Wait()
		if firstErr != nil {
			return nil, nil, firstErr
		}
		for _, out := range results {
			for _, pr := range out {
				conflict[pr.qi] = append(conflict[pr.qi], int(pr.ni))
			}
		}
	}

	h := hypergraph.New(set.Size())
	for qi, items := range conflict {
		// AddEdge canonicalizes (sorts) the items, so the shard/tile
		// interleaving above never shows in the result.
		if err := h.AddEdge(items, 0, queries[qi].Name); err != nil {
			return nil, nil, err
		}
	}
	return h, stats, nil
}
