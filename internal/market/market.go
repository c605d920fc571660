// Package market is the broker layer that ties the whole system together:
// the role Qirana plays in the paper. A Broker owns a dataset, samples a
// support set, calibrates a revenue-maximizing pricing function from a
// forecast workload with buyer valuations, and then quotes and sells
// arbitrage-free prices for arbitrary incoming queries.
//
// Prices are arbitrage-free by construction (Theorem 1): every pricing the
// broker can be calibrated with — uniform bundle, item pricing, or XOS —
// is a monotone subadditive function of the query's conflict set.
//
// The broker is built for concurrent quote traffic. The calibrated pricing
// lives in an immutable snapshot swapped atomically, so Quote is a lock-free
// read even while Calibrate builds a replacement snapshot off to the side
// (hypergraph construction is read-only and runs on the support set's
// plan cache). The support set is sharded (Config.Shards): calibration
// schedules shard × query tiles over the worker pool, and each quote
// probes the shards in its own goroutine. QuoteBatch fans a query batch
// across a bounded worker pool. Every quote computes
// its conflict set afresh; what makes that cheap — the compiled query
// plan — is cached by the support set and carried across versions.
//
// The seller's data is versioned and may evolve while the market serves:
// Broker.Update applies a batch of cell changes and atomically publishes a
// successor data snapshot (new database version, support set advanced
// lazily — cached plans fold the deferred change batches into one
// coalesced rebase on their first post-update use, or in the eager drain
// an update runs when it pushes the pending log past
// plan.MaxPendingBatches). Quotes and receipts carry the version
// they were priced at; see docs/UPDATES.md for the full life of an update.
package market

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"querypricing/internal/engine"
	"querypricing/internal/hypergraph"
	"querypricing/internal/pricing"
	"querypricing/internal/relational"
	"querypricing/internal/support"
	"querypricing/internal/valuation"
)

// Algorithm names the pricing algorithm a broker calibrates with. Valid
// values are the names in the engine registry (engine.List).
type Algorithm string

// The built-in calibration algorithms (Section 5 of the paper).
const (
	UBP      Algorithm = "UBP"
	UIP      Algorithm = "UIP"
	LPIP     Algorithm = "LPIP"
	CIP      Algorithm = "CIP"
	Layering Algorithm = "Layering"
	XOS      Algorithm = "XOS" // max of LPIP and CIP item pricings
)

// Config configures a Broker.
type Config struct {
	// SupportSize is |S|, the number of neighboring instances to sample.
	SupportSize int
	// Seed drives support sampling (and any valuation generation).
	Seed int64
	// LPIPCandidates caps LPIP's threshold count (0 = all).
	LPIPCandidates int
	// CIPEpsilon is the capacity grid step for CIP (default 0.5).
	CIPEpsilon float64
	// CIPMaxCapacities caps the number of capacities CIP tries (0 = no cap).
	CIPMaxCapacities int
	// Workers bounds the QuoteBatch and Calibrate worker pools
	// (0 = GOMAXPROCS).
	Workers int
	// Shards partitions the support set: calibration schedules
	// shard × query tiles over the worker pool, and each quote probes
	// the shards in turn. 0 picks GOMAXPROCS, negative forces a single
	// shard. Results are byte-identical at every shard count.
	Shards int
}

// Quote is a priced offer for a query.
type Quote struct {
	Query        string
	Price        float64
	ConflictSize int
	// Informative is false when the query's conflict set is empty: the
	// query reveals nothing about the support set and is free.
	Informative bool
	// Version is the base-database version the conflict set was computed
	// against (see Broker.Update); a price is an offer on that exact
	// snapshot.
	Version uint64
}

// Receipt records a completed sale. Receipts pin the database version the
// price was computed against: an update that lands after a sale never
// re-prices it, and the sold conflict set remains the one the buyer's
// query had on the pinned snapshot (docs/UPDATES.md, "Sold conflict
// sets").
type Receipt struct {
	Query   string
	Price   float64
	When    time.Time
	Version uint64
}

// pricingSnapshot is an immutable calibrated pricing. Quote loads the
// current snapshot with one atomic read; Calibrate publishes a fresh one.
type pricingSnapshot struct {
	algorithm Algorithm
	result    pricing.Result
	revenue   float64 // forecast revenue at calibration time
}

// marketState is the broker's immutable data snapshot: the versioned base
// database and the support set interpreted against it. Update publishes a
// successor state with one atomic swap; in-flight quotes that loaded the
// previous state finish consistently against it.
type marketState struct {
	version uint64
	db      *relational.Database
	set     *support.Set
}

// Broker sells query answers over a dataset at arbitrage-free prices.
// It is safe for concurrent use: quoting never blocks on recalibration or
// on live data updates.
type Broker struct {
	cfg Config

	// state holds the current data snapshot (database and support set);
	// Update swaps in a successor atomically.
	state atomic.Pointer[marketState]

	// snap holds the current calibrated pricing; nil until Calibrate
	// succeeds for the first time (every quote is zero until then).
	snap atomic.Pointer[pricingSnapshot]

	// calMu serializes calibrations and updates (quotes are not blocked
	// by it).
	calMu sync.Mutex

	// compactions counts compaction epochs over the broker's lifetime
	// (carried across restarts via the snapshot, like the sales log).
	compactions atomic.Uint64

	// plansDeferred accumulates UpdateStats.PlansDeferred across every
	// Update: the running total of plan rebases the broker has deferred
	// to first use instead of paying at update time (see PlanStats).
	plansDeferred atomic.Int64

	// conflictSets counts conflict-set computations over the broker's
	// lifetime (see CacheStats).
	conflictSets atomic.Uint64

	salesMu sync.Mutex
	sales   []Receipt
	revenue float64
}

// NewBroker samples a support set over the dataset and returns an
// uncalibrated broker (every quote is zero until Calibrate is called).
func NewBroker(db *relational.Database, cfg Config) (*Broker, error) {
	if cfg.SupportSize <= 0 {
		cfg.SupportSize = 1000
	}
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	} else if cfg.Shards < 0 {
		cfg.Shards = 1
	}
	set, err := support.Generate(db, support.GenOptions{Size: cfg.SupportSize, Seed: cfg.Seed, Shards: cfg.Shards})
	if err != nil {
		return nil, fmt.Errorf("market: sampling support: %w", err)
	}
	return newBroker(db, set, cfg), nil
}

// NewBrokerWithSupport returns a broker over a caller-supplied support set
// instead of sampling one: targeted supports (support.TargetedGenerate),
// hand-built neighbor sets, or a set carried over from another broker. The
// set must be rooted at db (set.DB == db); its own shard count governs
// execution, and Config.Shards is overwritten with the set's effective
// count so everything downstream (engine.Options.Shards) reports the
// truth. Like NewBroker, the returned broker is uncalibrated.
func NewBrokerWithSupport(db *relational.Database, set *support.Set, cfg Config) (*Broker, error) {
	if set == nil {
		return nil, fmt.Errorf("market: nil support set")
	}
	if set.DB != db {
		return nil, fmt.Errorf("market: support set is rooted at a different database")
	}
	cfg.Shards = set.NumShards()
	return newBroker(db, set, cfg), nil
}

func newBroker(db *relational.Database, set *support.Set, cfg Config) *Broker {
	b := &Broker{cfg: cfg}
	b.state.Store(&marketState{version: db.Version(), db: db, set: set})
	return b
}

// SupportSize returns |S|.
func (b *Broker) SupportSize() int { return b.state.Load().set.Size() }

// Version returns the version of the base-database snapshot quotes are
// currently priced against: the database's version at construction,
// incremented by one per Update.
func (b *Broker) Version() uint64 { return b.state.Load().version }

// DB returns the current base-database snapshot. The returned database is
// immutable — updates publish successors via Apply — so callers may
// evaluate queries against it freely.
func (b *Broker) DB() *relational.Database { return b.state.Load().db }

// Update applies a batch of changes — cell updates, row inserts, row
// deletes (relational.ChangeOp) — to the seller's database and
// publishes the successor pricing snapshot with one atomic swap: a new
// database version (relational.Database.Apply), the support set advanced
// onto it lazily (cached plans carried over with their delta maintenance
// deferred — each is rebased on its first post-update quote, all pending
// batches coalesced into one pass; support.Set.Advance). Update latency is
// therefore independent of how many plans are cached, except for the
// update that pushes the pending log past plan.MaxPendingBatches: it folds
// every stale plan before it returns, so the log stays bounded. Call
// DrainPlans to fold the deferred rebases eagerly at any other time.
// Concurrent quotes that loaded the previous state finish against it —
// prices remain internally consistent offers on the snapshot they were
// computed from, and receipts pin that version.
//
// The calibrated pricing function is retained: its item weights attach to
// support neighbors, which an update never re-homes, so post-update quotes
// re-price through their (possibly changed) conflict sets immediately.
// Recalibrating against the new snapshot is worthwhile after updates large
// enough to shift the forecast workload's conflict structure.
//
// Updates and calibrations serialize with each other; quoting never blocks
// on either. It returns the new version, along with statistics on how much
// compiled plan state was carried over.
func (b *Broker) Update(changes []relational.CellChange) (uint64, support.UpdateStats, error) {
	v, _, stats, err := b.UpdateAssigned(changes)
	return v, stats, err
}

// UpdateAssigned is Update, additionally returning the normalized batch:
// every insert's Row holds the slot Apply assigned it (the batch is
// returned unchanged when it carries no inserts). Serving layers report
// those assignments to clients, because a client that wants to delete a
// row it inserted must name its slot.
func (b *Broker) UpdateAssigned(changes []relational.CellChange) (uint64, []relational.CellChange, support.UpdateStats, error) {
	b.calMu.Lock()
	defer b.calMu.Unlock()
	st := b.state.Load()
	// Normalize first so every insert names the slot Apply assigns it;
	// the engine layers (plan rebasing, pooled join indexes) consume
	// slot-addressed batches only.
	norm, err := st.db.NormalizeChanges(changes)
	if err != nil {
		return 0, nil, support.UpdateStats{}, fmt.Errorf("market: update: %w", err)
	}
	newDB, err := st.db.Apply(norm)
	if err != nil {
		return 0, nil, support.UpdateStats{}, fmt.Errorf("market: update: %w", err)
	}
	newSet, stats := st.set.Advance(newDB, norm)
	b.plansDeferred.Add(int64(stats.PlansDeferred))
	b.state.Store(&marketState{version: newDB.Version(), db: newDB, set: newSet})
	return newDB.Version(), norm, stats, nil
}

// PlanStats is the broker's plan-cache maintenance snapshot: the cached
// and stale plan counts and the pending-log depth of the current data
// snapshot's plan cache, plus the cumulative number of plan rebases
// deferred across every Update since the broker was built.
type PlanStats struct {
	Plans          int   `json:"plans"`
	Stale          int   `json:"stale"`
	PendingBatches int   `json:"pending_batches"`
	DeferredTotal  int64 `json:"deferred_total"`
}

// PlanStats reports the current snapshot's plan-cache state (see the
// PlanStats type). Counts are point-in-time: concurrent quotes fold the
// stale plans they use forward as they run. An idle broker keeps its
// stale plans until their first quote, the next cap drain or DrainPlans.
func (b *Broker) PlanStats() PlanStats {
	out := PlanStats{DeferredTotal: b.plansDeferred.Load()}
	out.Plans, out.Stale, out.PendingBatches = b.state.Load().set.PlanStats()
	return out
}

// DrainPlans synchronously folds every deferred update batch into the
// current snapshot's cached plans (support.Set.Drain), returning how many
// plans were rebased or recompiled. Quotes may run concurrently; a later
// Update may still leave new deferred batches behind.
func (b *Broker) DrainPlans() support.UpdateStats {
	return b.state.Load().set.Drain()
}

// engineOptions maps broker configuration onto the shared engine knob set.
func (b *Broker) engineOptions() engine.Options {
	return engine.Options{
		LPIPMaxCandidates: b.cfg.LPIPCandidates,
		CIPEpsilon:        b.cfg.CIPEpsilon,
		CIPMaxCapacities:  b.cfg.CIPMaxCapacities,
		Shards:            b.cfg.Shards,
	}
}

// Calibrate fits the chosen pricing algorithm to a forecast workload: the
// queries a market study predicts buyers will ask, with their valuations
// drawn from the given model (Section 3.3: "valuations can be found by
// performing market research"). It returns the revenue the fitted pricing
// would extract on the forecast.
//
// Calibration runs entirely off to the side — hypergraph construction is
// read-only, probing cached query plans with each neighbor's deltas over a
// worker pool — and publishes the new pricing with one atomic pointer
// swap, so concurrent Quote calls keep serving the previous pricing until
// the instant the new one is ready.
func (b *Broker) Calibrate(queries []*relational.SelectQuery, model valuation.Model, algo Algorithm) (float64, error) {
	alg, err := engine.Get(string(algo))
	if err != nil {
		return 0, fmt.Errorf("market: %w", err)
	}

	b.calMu.Lock()
	defer b.calMu.Unlock()

	// BuildHypergraph is read-only (conflict sets come from cached plans
	// probed with each neighbor's deltas), so it runs directly on the
	// broker's support set — no database clone — and the plans it compiles
	// stay in the set's cache where concurrent and future Quote calls
	// reuse them. Updates serialize on calMu, so the state cannot advance
	// mid-build.
	h, _, err := support.BuildHypergraph(b.state.Load().set, queries, support.BuildOptions{Workers: b.cfg.Workers})
	if err != nil {
		return 0, fmt.Errorf("market: building hypergraph: %w", err)
	}
	valuation.Apply(h, model, b.cfg.Seed+1)

	res, err := alg.Price(h, b.engineOptions())
	if err != nil {
		return 0, fmt.Errorf("market: calibrating %s: %w", algo, err)
	}
	b.snap.Store(&pricingSnapshot{algorithm: algo, result: res, revenue: res.Revenue})
	return res.Revenue, nil
}

// Algorithm returns the calibrated algorithm name, or "" if uncalibrated.
func (b *Broker) Algorithm() Algorithm {
	if snap := b.snap.Load(); snap != nil {
		return snap.algorithm
	}
	return ""
}

// Quote prices an arbitrary incoming query: it computes the query's
// conflict set against the support (a read-only probe of the support
// set's cached plans) and applies the current pricing snapshot to that
// bundle. It never blocks on other quotes, on recalibration, or on
// live updates; the returned quote carries the database version it was
// priced against.
func (b *Broker) Quote(q *relational.SelectQuery) (Quote, error) {
	return b.quoteWith(b.state.Load(), b.snap.Load(), q)
}

// quoteWith prices one query under a specific data state and pricing
// snapshot (nil = uncalibrated).
func (b *Broker) quoteWith(st *marketState, snap *pricingSnapshot, q *relational.SelectQuery) (Quote, error) {
	items, err := b.conflictSetOf(st, q)
	if err != nil {
		return Quote{}, err
	}
	return priceBundle(st, snap, q, items), nil
}

// QuoteBatch prices a batch of queries concurrently over a bounded worker
// pool (Config.Workers, default GOMAXPROCS). Each worker owns one
// contiguous chunk of the batch rather than pulling items from a shared
// channel: a worker keeps quoting against the same plan cache and pooled
// probe arenas without per-item dispatch overhead, and with a single
// worker (one core, or a one-query batch) the batch degenerates to
// exactly the serial quote loop. The returned quotes are index-aligned
// with the input; the first error aborts the batch. The data state and
// pricing snapshot are loaded once for the whole batch, so every quote in
// the response comes from the same calibrated pricing function on the same
// database version (and the batch as a whole stays arbitrage-free) even if
// a recalibration or an update lands mid-batch.
func (b *Broker) QuoteBatch(queries []*relational.SelectQuery) ([]Quote, error) {
	return b.QuoteBatchContext(context.Background(), queries)
}

// QuoteBatchContext is QuoteBatch under a context: each worker checks the
// context between quotes and the batch aborts with the context's error as
// soon as it is cancelled or its deadline passes. Serving layers derive
// per-request deadlines from it (cmd/marketd), so one slow batch cannot
// hold worker goroutines past its request's budget. A cancelled batch
// returns no quotes: partial batches would break the all-from-one-snapshot
// guarantee silently.
func (b *Broker) QuoteBatchContext(ctx context.Context, queries []*relational.SelectQuery) ([]Quote, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	st := b.state.Load()
	snap := b.snap.Load()
	workers := b.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}

	out := make([]Quote, len(queries))
	if workers == 1 {
		// Inline serial path: no goroutine, no synchronization.
		for i, q := range queries {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("market: batch cancelled at query %d: %w", i, err)
			}
			quote, err := b.quoteWith(st, snap, q)
			if err != nil {
				return nil, fmt.Errorf("market: batch query %d: %w", i, err)
			}
			out[i] = quote
		}
		return out, nil
	}

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		failed   atomic.Bool
	)
	chunk := (len(queries) + workers - 1) / workers
	for lo := 0; lo < len(queries); lo += chunk {
		hi := lo + chunk
		if hi > len(queries) {
			hi = len(queries)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if failed.Load() {
					return // abandon the chunk after a failure
				}
				if err := ctx.Err(); err != nil {
					errOnce.Do(func() {
						firstErr = fmt.Errorf("market: batch cancelled at query %d: %w", i, err)
						failed.Store(true)
					})
					return
				}
				quote, err := b.quoteWith(st, snap, queries[i])
				if err != nil {
					errOnce.Do(func() {
						firstErr = fmt.Errorf("market: batch query %d: %w", i, err)
						failed.Store(true)
					})
					return
				}
				out[i] = quote
			}
		}(lo, hi)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// conflictSetOf computes CS(q, D) under one data state.
func (b *Broker) conflictSetOf(st *marketState, q *relational.SelectQuery) ([]int, error) {
	b.conflictSets.Add(1)
	items, err := support.ConflictSet(st.set, q)
	if err != nil {
		return nil, fmt.Errorf("market: conflict set of %q: %w", q.Name, err)
	}
	return items, nil
}

// CacheStats counts conflict-set computations over the broker's lifetime.
// The broker memoizes no conflict sets, so Misses is the number of
// conflict sets computed (one per quote, batch entry and purchase) and
// Hits is always 0.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// CacheStats returns the lifetime conflict-set counters (see the
// CacheStats type).
func (b *Broker) CacheStats() CacheStats {
	return CacheStats{Misses: b.conflictSets.Load()}
}

// priceBundle applies a pricing snapshot to a conflict set.
func priceBundle(st *marketState, snap *pricingSnapshot, q *relational.SelectQuery, items []int) Quote {
	price := 0.0
	if snap != nil {
		e := hypergraph.Edge{Items: items}
		if len(items) > 0 || snap.result.Weights != nil || snap.result.WeightSets != nil {
			price = snap.result.Price(&e)
		}
		if len(items) == 0 {
			// An uninformative query is free under any item pricing; under
			// a uniform bundle price the empty bundle formally costs the
			// flat price, but no rational broker charges for zero
			// information, so we quote zero.
			price = 0
		}
	}
	return Quote{
		Query:        q.Name,
		Price:        price,
		ConflictSize: len(items),
		Informative:  len(items) > 0,
		Version:      st.version,
	}
}

// Purchase quotes the query and, if the buyer's budget covers the price,
// executes it and returns the answer with a receipt. A budget below the
// price, or a NaN budget, returns ErrBudget and no answer. The quote, the
// delivered answer and the receipt all come from one data state loaded at
// entry: a concurrent Update cannot make the buyer pay for one snapshot
// and receive another, and the receipt pins the version sold.
func (b *Broker) Purchase(q *relational.SelectQuery, budget float64) (*relational.Result, Receipt, error) {
	st := b.state.Load()
	quote, err := b.quoteWith(st, b.snap.Load(), q)
	if err != nil {
		return nil, Receipt{}, err
	}
	// Written so that a NaN budget, which compares false with everything,
	// is refused rather than waved through.
	if !(quote.Price <= budget) {
		return nil, Receipt{}, fmt.Errorf("%w: price %.2f exceeds budget %.2f", ErrBudget, quote.Price, budget)
	}
	// Snapshots are immutable (updates publish successors; nothing ever
	// mutates st.db), so evaluation needs no lock.
	ans, err := q.Eval(st.db)
	if err != nil {
		return nil, Receipt{}, fmt.Errorf("market: executing %q: %w", q.Name, err)
	}
	r := Receipt{Query: q.Name, Price: quote.Price, When: time.Now(), Version: st.version}
	b.salesMu.Lock()
	b.sales = append(b.sales, r)
	b.revenue += quote.Price
	b.salesMu.Unlock()
	return ans, r, nil
}

// ErrBudget is returned by Purchase when the quoted price exceeds the
// buyer's budget or the budget is NaN.
var ErrBudget = fmt.Errorf("market: budget too low")

// Revenue returns the total revenue across completed sales.
func (b *Broker) Revenue() float64 {
	b.salesMu.Lock()
	defer b.salesMu.Unlock()
	return b.revenue
}

// Sales returns a copy of the sales log, oldest first.
func (b *Broker) Sales() []Receipt {
	b.salesMu.Lock()
	defer b.salesMu.Unlock()
	out := make([]Receipt, len(b.sales))
	copy(out, b.sales)
	sort.Slice(out, func(i, j int) bool { return out[i].When.Before(out[j].When) })
	return out
}
