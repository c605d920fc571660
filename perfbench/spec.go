package main

import (
	"runtime"
	"time"

	"querypricing/internal/loadgen"
)

// lanes pins GOMAXPROCS, the support-set shard count, the generator's
// lanes and its connections to the host's CPU count (nproc).
var lanes = runtime.NumCPU()

// spec is one serving workload.
type spec struct {
	Name string
	// Support is |S|, the support-set size the server calibrates over.
	Support int
	// Rate is the nominal offered rate of the timed phase (req/s); it
	// must sit below the workload's knee.
	Rate float64
	// Ladder holds the rates tried above Rate for slo_rate_rps,
	// ascending; each rung runs for rungDur.
	Ladder []float64
	Warmup time.Duration
	Mix    loadgen.Mix
	// Ingest is the share of pooled update bodies that are row inserts;
	// DeleteFrac the share of update arrivals sent as deletes of rows
	// the lane inserted; CompactAt the auto-compaction tombstone
	// threshold (0 = off).
	Ingest, DeleteFrac, CompactAt float64
	// Drain runs the server's background drainer of deferred plan
	// rebases (serve.Config.BackgroundDrain).
	Drain bool
	// WideQuotePool quotes the skewed forecast plus 1000 uniform-workload
	// queries (1986 queries, 1459 distinct); otherwise the first 200
	// skewed queries.
	WideQuotePool bool
	// Limits are the ladder's service-level limits.
	Limits limits
	// QuoteTail and UpdateTail are the percentiles reported as
	// quote_tail_ms and update_tail_ms: the highest levels at which each
	// window of the timed phase has at least ten samples beyond them.
	QuoteTail, UpdateTail float64
	// Replay is the number of arrivals the traced run replays per rung.
	Replay int
}

// Set-up boots setupBoots servers for setup_s (the first one serves),
// recovery boots recoveryBoots servers for recover_cpu_s, and each ladder
// rung above the timed phase runs for rungDur.
const (
	setupBoots    = 3
	recoveryBoots = 9
	rungDur       = 2 * time.Second
)

// specs are the benchmark's workloads. Sizes and the reasons for them
// are in NOTES.md.
var specs = map[string]*spec{
	"serve-read": {
		Name:          "serve-read",
		Support:       5000,
		Rate:          300,
		Ladder:        []float64{700, 900, 1050, 1200, 1350, 1500, 1700},
		Warmup:        3 * time.Second,
		Mix:           loadgen.DefaultMix(),
		Drain:         true,
		WideQuotePool: true,
		Limits:        limits{Quote: 250 * time.Millisecond, Update: 500 * time.Millisecond, FailedShare: 0.01},
		QuoteTail:     0.99,
		UpdateTail:    0.90,
		Replay:        1500,
	},
	"serve-churn": {
		Name:       "serve-churn",
		Support:    2000,
		Rate:       300,
		Ladder:     []float64{500, 650, 800, 950, 1100, 1250, 1400, 1600},
		Warmup:     5 * time.Second,
		Mix:        loadgen.DeleteHeavyMix(),
		Ingest:     1,
		DeleteFrac: 0.5,
		CompactAt:  0.05,
		Limits:     limits{Quote: 500 * time.Millisecond, Update: 500 * time.Millisecond, FailedShare: 0.01},
		QuoteTail:  0.95,
		UpdateTail: 0.95,
		Replay:     1000,
	},
}
