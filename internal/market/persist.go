package market

// Broker state export/import. A broker's expensive-to-build state —
// calibration plus the support set the conflict machinery hangs off —
// is a pure value: the versioned base database, the support neighbors,
// the calibrated pricing function, and the sales log. Snapshot captures
// that value and Restore rebuilds a serving broker from it without
// re-running Calibrate or BuildHypergraph: compiled plans are warm-up
// state recomputed lazily (and deterministically) on first use, so a
// restored broker serves byte-identical quotes at the pinned version from
// its first request. internal/store persists BrokerSnapshot to disk and
// replays the change/receipt WAL on top; see docs/OPERATIONS.md.

import (
	"fmt"

	"querypricing/internal/pricing"
	"querypricing/internal/relational"
	"querypricing/internal/support"
)

// BrokerSnapshot is the complete durable state of a broker at one
// instant: everything Restore needs to serve byte-identical quotes at
// the same version, and nothing that can be recomputed deterministically
// (compiled plans and join indexes are deliberately absent — they are
// derived state).
type BrokerSnapshot struct {
	// Version is the base-database version quotes were being priced
	// against when the snapshot was taken (== DB.Version()).
	Version uint64
	// DB is the versioned base database snapshot.
	DB *relational.Database
	// Neighbors are the support set's neighboring instances. Item j of
	// the calibrated pricing is neighbor j, so order is load-bearing.
	Neighbors []support.Neighbor
	// Shards is the support set's shard count at snapshot time. Purely
	// advisory: conflict sets are byte-identical at every shard count,
	// so Restore may re-shard for the new machine.
	Shards int
	// Algorithm is the calibrated algorithm name ("" if uncalibrated).
	Algorithm Algorithm
	// Pricing is the calibrated pricing function (nil if uncalibrated).
	Pricing *pricing.Result
	// ForecastRevenue is the revenue Calibrate reported on the forecast
	// workload.
	ForecastRevenue float64
	// Sales is the completed-sale log, oldest first.
	Sales []Receipt
	// Revenue is the total revenue across Sales.
	Revenue float64
	// Compactions is the lifetime count of compaction epochs applied.
	Compactions uint64
}

// Snapshot captures the broker's durable state. The data state (database,
// support set) is read with one atomic load, so the snapshot is internally
// consistent even under concurrent quotes; callers that need the snapshot
// to also be consistent with a write-ahead log must serialize Snapshot
// with Update themselves (store.Manager does).
func (b *Broker) Snapshot() BrokerSnapshot {
	st := b.state.Load()
	out := BrokerSnapshot{
		Version:     st.version,
		DB:          st.db,
		Neighbors:   st.set.Neighbors,
		Shards:      st.set.NumShards(),
		Compactions: b.compactions.Load(),
	}
	if snap := b.snap.Load(); snap != nil {
		res := snap.result // copy; the broker's snapshot stays immutable
		out.Algorithm = snap.algorithm
		out.Pricing = &res
		out.ForecastRevenue = snap.revenue
	}
	b.salesMu.Lock()
	out.Sales = append([]Receipt(nil), b.sales...)
	out.Revenue = b.revenue
	b.salesMu.Unlock()
	return out
}

// Restore rebuilds a serving broker from a snapshot: the support set is
// re-rooted at the snapshot database (re-sharded per cfg.Shards — shard
// assignment is a deterministic function of each neighbor's footprint, so
// any shard count quotes byte-identically), the calibrated pricing is
// installed without re-running Calibrate or BuildHypergraph, and the
// sales log is carried over. Compiled plans are absent on purpose: they
// recompile deterministically on first use, which is the cheap part of
// startup (calibration is the multi-second part).
func Restore(bs BrokerSnapshot, cfg Config) (*Broker, error) {
	if bs.DB == nil {
		return nil, fmt.Errorf("market: restore: snapshot has no database")
	}
	if got := bs.DB.Version(); got != bs.Version {
		return nil, fmt.Errorf("market: restore: snapshot version %d != database version %d", bs.Version, got)
	}
	if len(bs.Neighbors) == 0 {
		return nil, fmt.Errorf("market: restore: snapshot has no support neighbors")
	}
	if cfg.Shards == 0 && bs.Shards > 0 {
		cfg.Shards = bs.Shards
	}
	set := &support.Set{DB: bs.DB, Neighbors: bs.Neighbors, Shards: cfg.Shards}
	b, err := NewBrokerWithSupport(bs.DB, set, cfg)
	if err != nil {
		return nil, err
	}
	if bs.Pricing != nil {
		res := *bs.Pricing
		b.snap.Store(&pricingSnapshot{algorithm: bs.Algorithm, result: res, revenue: bs.ForecastRevenue})
	}
	b.salesMu.Lock()
	b.sales = append([]Receipt(nil), bs.Sales...)
	b.revenue = bs.Revenue
	b.salesMu.Unlock()
	b.restoreCompactions(bs.Compactions)
	return b, nil
}
