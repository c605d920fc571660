// Package querypricing is a Go implementation of the revenue-maximization
// framework for arbitrage-free query pricing from Chawla, Deep, Koutris and
// Teng, "Revenue Maximization for Query Pricing", PVLDB 13(1), 2019.
//
// The library covers the full pipeline of the paper:
//
//   - a relational engine and dataset generators (world, TPC-H, SSB) that
//     stand in for MySQL and the benchmark dbgen tools;
//   - Qirana-style support sets of neighboring instances and conflict-set
//     computation, turning queries into priced bundles over the support
//     (Section 3);
//   - the pricing hypergraph and the six pricing algorithms evaluated in
//     the paper: UBP, UIP, LPIP, CIP, the layering algorithm and XOS
//     combinations (Section 5), on top of a from-scratch bounded-variable
//     simplex LP solver;
//   - buyer-valuation generators for every model of Section 6;
//   - revenue bounds: the sum of valuations, an upper bound on any
//     pricing's revenue, and the subadditive LP, which bounds only
//     pricings that sell every bundle;
//   - worst-case gap constructions of Lemmas 2-4;
//   - a lock-free data-market broker that quotes and sells arbitrage-free
//     prices for live queries under heavy concurrent traffic, over a
//     versioned base database that accepts live updates (Broker.Update)
//     without stalling quotes.
//
// # Quick start
//
//	h := querypricing.NewHypergraph(3)
//	_ = h.AddEdge([]int{0, 1}, 10, "q1")
//	_ = h.AddEdge([]int{1, 2}, 6, "q2")
//	res, _ := querypricing.Price("LPIP", h, querypricing.AlgorithmOptions{})
//	fmt.Println(res.Revenue)
//
// # The engine registry
//
// Every pricing algorithm is registered in an engine behind one interface:
// Name() plus Price(hypergraph, options). Algorithms are selected by name —
// ListAlgorithms reports the registry, GetAlgorithm resolves one, and Price
// resolves and runs in one call. A single AlgorithmOptions struct carries
// every knob (LPIP threshold cap, CIP capacity grid, XOS component set);
// each algorithm reads only the fields it understands. Custom algorithms
// plug in via RegisterAlgorithm and NewAlgorithm and are then selectable
// everywhere an algorithm name is accepted: Broker.Calibrate, cmd/marketd's
// -algorithm flag, and cmd/pricebench's -algorithms roster.
//
// # The broker
//
// Broker serves concurrent quote traffic without a global lock: the
// calibrated pricing lives in an immutable snapshot behind an atomic
// pointer, Quote is a lock-free read, Calibrate rebuilds off to the side
// over the read-only sharded support set and publishes with one pointer
// swap, and QuoteBatch fans a batch across a bounded worker pool. Each
// quote computes its conflict set afresh in the calling goroutine,
// walking the support shards in turn over the query's cached compiled
// plan. The seller's data may evolve while the market
// serves: Broker.Update applies cell changes and atomically publishes a
// new database version with cached plans delta-maintained; quotes and
// receipts pin the version they were priced at (docs/UPDATES.md).
//
// See examples/ for end-to-end scenarios and cmd/pricebench for the
// harness that regenerates every figure and table of the paper.
package querypricing

import (
	"querypricing/internal/bounds"
	"querypricing/internal/datagen"
	"querypricing/internal/engine"
	"querypricing/internal/hypergraph"
	"querypricing/internal/lowerbounds"
	"querypricing/internal/market"
	"querypricing/internal/online"
	"querypricing/internal/pricing"
	"querypricing/internal/relational"
	"querypricing/internal/support"
	"querypricing/internal/valuation"
	"querypricing/internal/workloads"
)

// ---- The pricing engine (algorithm registry) ----

// PricingAlgorithm is one registered arbitrage-free pricing algorithm:
// a name plus a Price method over a hypergraph and shared options.
type PricingAlgorithm = engine.Algorithm

// AlgorithmOptions is the shared knob set passed to every algorithm; each
// algorithm reads only the fields it understands.
type AlgorithmOptions = engine.Options

// ListAlgorithms returns the registered algorithm names: the six paper
// algorithms first (UBP, UIP, LPIP, CIP, Layering, XOS), then any
// user-registered ones.
func ListAlgorithms() []string { return engine.List() }

// GetAlgorithm resolves an algorithm by name (case-insensitive).
func GetAlgorithm(name string) (PricingAlgorithm, error) { return engine.Get(name) }

// RegisterAlgorithm adds a custom algorithm to the registry, making it
// selectable everywhere an algorithm name is accepted.
func RegisterAlgorithm(a PricingAlgorithm) error { return engine.Register(a) }

// NewAlgorithm wraps a pricing function as a registrable algorithm.
func NewAlgorithm(name string, fn func(*Hypergraph, AlgorithmOptions) (Result, error)) PricingAlgorithm {
	return engine.New(name, fn)
}

// Price resolves the named algorithm and runs it on the instance.
func Price(name string, h *Hypergraph, opts AlgorithmOptions) (Result, error) {
	return engine.Price(name, h, opts)
}

// ---- Hypergraph instances (Section 3.3) ----

// Hypergraph is a pricing instance: items are support-set instances,
// weighted hyperedges are buyer bundles (query conflict sets).
type Hypergraph = hypergraph.Hypergraph

// Edge is one buyer bundle with its valuation.
type Edge = hypergraph.Edge

// HypergraphStats summarizes an instance (Table 3 shape).
type HypergraphStats = hypergraph.Stats

// NewHypergraph returns an empty instance with n items.
func NewHypergraph(n int) *Hypergraph { return hypergraph.New(n) }

// HypergraphFromEdges builds an instance from explicit edges.
func HypergraphFromEdges(n int, edges []Edge) (*Hypergraph, error) {
	return hypergraph.FromEdges(n, edges)
}

// ---- Pricing algorithms (Section 5) ----

// Result is the outcome of a pricing algorithm.
type Result = pricing.Result

// LPItemOptions tunes LPIP.
type LPItemOptions = pricing.LPItemOptions

// CapacityOptions tunes CIP.
type CapacityOptions = pricing.CapacityOptions

// UniformBundlePricing runs UBP: the optimal flat bundle price.
func UniformBundlePricing(h *Hypergraph) Result { return pricing.UniformBundle(h) }

// UniformItemPricing runs UIP: the optimal single per-item weight.
func UniformItemPricing(h *Hypergraph) Result { return pricing.UniformItem(h) }

// LPItemPricing runs LPIP: per-threshold forced-sale LPs.
func LPItemPricing(h *Hypergraph, opts LPItemOptions) (Result, error) {
	return pricing.LPItem(h, opts)
}

// CapacityPricing runs CIP: welfare-LP duals over a capacity grid.
func CapacityPricing(h *Hypergraph, opts CapacityOptions) (Result, error) {
	return pricing.Capacity(h, opts)
}

// LayeringPricing runs Algorithm 1 (the layering B-approximation).
func LayeringPricing(h *Hypergraph) Result { return pricing.Layering(h) }

// XOSPricing combines item pricings into their pointwise-max XOS pricing.
func XOSPricing(h *Hypergraph, weightSets ...[]float64) Result {
	return pricing.XOS(h, weightSets...)
}

// RefineUniformBundlePricing post-processes a flat price into an item
// pricing via one LP (Section 6.3).
func RefineUniformBundlePricing(h *Hypergraph, bundlePrice float64) (Result, error) {
	return pricing.RefineUniformBundle(h, bundlePrice)
}

// RevenueOfItemPricing evaluates an item-weight vector on an instance.
func RevenueOfItemPricing(h *Hypergraph, weights []float64) float64 {
	return pricing.RevenueAdditive(h, weights)
}

// RevenueOfBundlePrice evaluates a flat price on an instance.
func RevenueOfBundlePrice(h *Hypergraph, price float64) float64 {
	return pricing.RevenueUniformBundle(h, price)
}

// ---- Revenue bounds (Section 6.1) ----

// BoundOptions tunes the subadditive bound LP.
type BoundOptions = bounds.Options

// SumValuations is the weak upper bound used to normalize all figures.
func SumValuations(h *Hypergraph) float64 { return bounds.SumValuations(h) }

// SubadditiveBound is the paper's heuristic LP bound on sell-everything
// arbitrage-consistent revenue.
func SubadditiveBound(h *Hypergraph, opts BoundOptions) (float64, error) {
	return bounds.Subadditive(h, opts)
}

// ---- Valuation models (Section 6.3) ----

// ValuationModel assigns buyer valuations to bundles.
type ValuationModel = valuation.Model

// UniformValuation is v_e ~ Uniform[1,K].
type UniformValuation = valuation.Uniform

// ZipfValuation is v_e ~ Zipf(A).
type ZipfValuation = valuation.Zipf

// ExponentialScaledValuation is v_e ~ Exp(mean |e|^K).
type ExponentialScaledValuation = valuation.ExponentialScaled

// NormalScaledValuation is v_e ~ N(|e|^K, 10).
type NormalScaledValuation = valuation.NormalScaled

// AdditiveValuation is the per-item additive model of Figure 7.
type AdditiveValuation = valuation.Additive

// Additive-model index distributions.
const (
	IndexUniform  = valuation.IndexUniform
	IndexBinomial = valuation.IndexBinomial
)

// ApplyValuations draws valuations from the model onto the instance.
func ApplyValuations(h *Hypergraph, m ValuationModel, seed int64) {
	valuation.Apply(h, m, seed)
}

// ---- Relational substrate ----

// Database is an in-memory relational database. Databases are versioned:
// Apply publishes a batch of cell changes as a new snapshot with the
// version counter incremented, leaving the receiver untouched.
type Database = relational.Database

// SelectQuery is the deterministic query form the market prices.
type SelectQuery = relational.SelectQuery

// QueryResult is a materialized query answer.
type QueryResult = relational.Result

// Value is a dynamically typed relational cell value.
type Value = relational.Value

// ColRef names a column of a table (or alias) inside a query.
type ColRef = relational.ColRef

// CellChange is a single change to a database, discriminated by Op: the
// zero Op is a cell update (Table.Rows[Row][Col] becomes New), "insert"
// appends a full row, "delete" tombstones a slot. It is the delta
// currency of the whole stack — live updates (Database.Apply,
// Broker.Update) and support-set neighbors both speak it.
type CellChange = relational.CellChange

// RowInsert returns a change that appends a full row to table; the slot
// it lands in is assigned deterministically at apply time.
func RowInsert(table string, vals ...Value) CellChange { return relational.RowInsert(table, vals...) }

// RowDelete returns a change that tombstones the row at slot row.
func RowDelete(table string, row int) CellChange { return relational.RowDelete(table, row) }

// IntValue returns an integer cell value.
func IntValue(v int64) Value { return relational.Int(v) }

// FloatValue returns a float cell value. Updates refuse NaN and ±Inf
// (see Database.ValidateChanges).
func FloatValue(v float64) Value { return relational.Float(v) }

// StringValue returns a string cell value.
func StringValue(s string) Value { return relational.Str(s) }

// NullValue returns the SQL NULL cell value.
func NullValue() Value { return relational.Null() }

// ---- Dataset generators ----

// WorldConfig sizes the synthetic world database.
type WorldConfig = datagen.WorldConfig

// TPCHConfig sizes the micro TPC-H database.
type TPCHConfig = datagen.TPCHConfig

// SSBConfig sizes the micro SSB database.
type SSBConfig = datagen.SSBConfig

// WorldDatabase generates the world-shaped dataset.
func WorldDatabase(cfg WorldConfig) *Database { return datagen.World(cfg) }

// TPCHDatabase generates the micro TPC-H dataset.
func TPCHDatabase(cfg TPCHConfig) *Database { return datagen.TPCH(cfg) }

// SSBDatabase generates the micro SSB dataset.
func SSBDatabase(cfg SSBConfig) *Database { return datagen.SSB(cfg) }

// ---- Query workloads (Section 6.2) ----

// SkewedWorkload is the 986-query world workload (Appendix B).
func SkewedWorkload(db *Database) []*SelectQuery { return workloads.Skewed(db) }

// UniformWorkload is the m-query equal-selectivity workload.
func UniformWorkload(db *Database, m int) []*SelectQuery { return workloads.Uniform(db, m) }

// TPCHWorkload is the 220-query TPC-H workload (Appendix C).
func TPCHWorkload(db *Database) []*SelectQuery { return workloads.TPCH(db) }

// SSBWorkload is the 701-query SSB workload (Appendix C).
func SSBWorkload(db *Database) []*SelectQuery { return workloads.SSB(db) }

// ---- Support sets and conflict sets (Section 3.2) ----

// SupportSet is a sampled set of neighboring database instances.
type SupportSet = support.Set

// SupportOptions controls support sampling.
type SupportOptions = support.GenOptions

// BuildOptions controls hypergraph construction.
type BuildOptions = support.BuildOptions

// BuildStats reports construction work (pruning effectiveness).
type BuildStats = support.Stats

// GenerateSupport samples a support set over a database.
func GenerateSupport(db *Database, opts SupportOptions) (*SupportSet, error) {
	return support.Generate(db, opts)
}

// GenerateTargetedSupport builds a query-aware support set: each neighbor
// is crafted to be observed by a specific workload query (the "Choosing
// support set" future work of Section 7.2). Compared to random sampling it
// yields fewer empty conflict sets and more unique-item edges.
func GenerateTargetedSupport(db *Database, queries []*SelectQuery, opts SupportOptions) (*SupportSet, error) {
	return support.TargetedGenerate(db, queries, opts)
}

// BuildQueryHypergraph computes every query's conflict set and assembles
// the pricing hypergraph (valuations left zero).
func BuildQueryHypergraph(set *SupportSet, queries []*SelectQuery, opts BuildOptions) (*Hypergraph, *BuildStats, error) {
	return support.BuildHypergraph(set, queries, opts)
}

// ConflictSet computes CS(q, D) for one query.
func ConflictSet(set *SupportSet, q *SelectQuery) ([]int, error) {
	return support.ConflictSet(set, q)
}

// ---- Worst-case constructions (Appendix A) ----

// GapInstance couples a lower-bound construction with its known OPT.
type GapInstance = lowerbounds.Instance

// HarmonicGapInstance is the Lemma 2 family (item pricing beats UBP).
func HarmonicGapInstance(m int) GapInstance { return lowerbounds.HarmonicAdditive(m) }

// PartitionGapInstance is the Lemma 3 family (UBP beats item pricing).
func PartitionGapInstance(n int) GapInstance { return lowerbounds.PartitionUniform(n) }

// LaminarGapInstance is the Lemma 4 / Figure 9 family (both lose log m).
func LaminarGapInstance(depth int) GapInstance { return lowerbounds.LaminarSubmodular(depth) }

// ---- Data market broker (the Qirana role) ----

// Broker quotes and sells arbitrage-free query prices.
type Broker = market.Broker

// BrokerConfig configures a broker.
type BrokerConfig = market.Config

// BrokerAlgorithm selects the calibration algorithm.
type BrokerAlgorithm = market.Algorithm

// Quote is a priced offer for a query, stamped with the database version
// it was priced against.
type Quote = market.Quote

// Receipt records a completed sale, pinning the database version sold.
type Receipt = market.Receipt

// SupportUpdateStats reports how much compiled plan state a live update
// carried over (Broker.Update).
type SupportUpdateStats = support.UpdateStats

// The broker's calibration algorithms.
const (
	AlgoUBP      = market.UBP
	AlgoUIP      = market.UIP
	AlgoLPIP     = market.LPIP
	AlgoCIP      = market.CIP
	AlgoLayering = market.Layering
	AlgoXOS      = market.XOS
)

// NewBroker samples a support set over the dataset and returns a broker.
func NewBroker(db *Database, cfg BrokerConfig) (*Broker, error) {
	return market.NewBroker(db, cfg)
}

// NewBrokerWithSupport returns a broker over a caller-supplied support set
// (for targeted supports, or to rebuild a broker over the same neighbors).
func NewBrokerWithSupport(db *Database, set *SupportSet, cfg BrokerConfig) (*Broker, error) {
	return market.NewBrokerWithSupport(db, set, cfg)
}

// ---- Online price learning (Section 7.2 future work) ----

// OnlinePricer is a posted-price learner that adapts from buy/no-buy
// feedback only.
type OnlinePricer = online.Pricer

// OnlineSimResult reports an online pricing simulation.
type OnlineSimResult = online.SimResult

// NewUCBBundleLearner returns UCB1 over a flat price grid.
func NewUCBBundleLearner(grid []float64) OnlinePricer { return online.NewUCBBundle(grid) }

// NewEXP3BundleLearner returns EXP3 over a flat price grid.
func NewEXP3BundleLearner(grid []float64, gamma float64, seed int64) OnlinePricer {
	return online.NewEXP3Bundle(grid, gamma, seed)
}

// NewItemPriceLearner returns the multiplicative per-item weight learner.
func NewItemPriceLearner(numItems int, start, eta float64) *online.MultiplicativeItem {
	return online.NewMultiplicativeItem(numItems, start, eta)
}

// OnlinePriceGrid builds a geometric price grid for the bundle learners.
func OnlinePriceGrid(lo, hi float64, arms int) []float64 { return online.PriceGrid(lo, hi, arms) }

// SimulateOnlinePricing replays `rounds` buyers drawn from the instance's
// edges (with their fixed hidden valuations) against a learner.
func SimulateOnlinePricing(h *Hypergraph, p OnlinePricer, rounds int, seed int64) OnlineSimResult {
	return online.Simulate(h, p, rounds, seed)
}
