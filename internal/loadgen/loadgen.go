// Package loadgen is an open-loop HTTP load generator for the marketd
// serving stack: mixed quote / batch-quote / update / purchase traffic at
// a configurable arrival rate, mix and duration, with HDR-style latency
// histograms and per-class throughput, shed and error accounting.
//
// The generator is open-loop (fixed arrival rate): every request has a
// scheduled arrival time fixed up front (arrival k at start + k/rate),
// and a slow or stalled server does not slow the arrival process down —
// latencies are measured from the scheduled arrival, so queueing delay
// under overload is charged to the server, not silently absorbed by the
// client (the coordinated-omission correction). Arrivals are striped
// across worker lanes; each lane issues its requests synchronously and
// records into private counters, merged when the run ends.
//
// Determinism: the class and body of arrival k are pure functions of the
// seed and k, independent of the worker count and of timing — a
// fixed-seed run issues the identical request sequence every time, which
// is what lets the metamorphic test in internal/serve reconcile
// client-side counts against the server's /metrics counters exactly.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	neturl "net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"querypricing/internal/relational"
)

// Class names one request class the generator issues.
type Class string

// The four request classes, mapping 1:1 onto marketd's work-bearing
// endpoints.
const (
	ClassQuote    Class = "quote"    // POST /quote
	ClassBatch    Class = "batch"    // POST /quote/batch
	ClassUpdate   Class = "update"   // POST /update
	ClassPurchase Class = "purchase" // POST /purchase
)

// Classes lists every class in reporting order.
var Classes = []Class{ClassQuote, ClassBatch, ClassUpdate, ClassPurchase}

// Mix is the traffic composition as per-class weights (any non-negative
// scale; they are normalized). A zero-weight class is never issued.
type Mix struct {
	Quote    float64
	Batch    float64
	Update   float64
	Purchase float64
}

// DefaultMix returns the read-heavy serving mix the SLO benchmarks use:
// 85% single quotes, 5% batches, 5% updates, 5% purchases.
func DefaultMix() Mix { return Mix{Quote: 0.85, Batch: 0.05, Update: 0.05, Purchase: 0.05} }

// StreamingIngestMix returns the write-heavy mix for ingest experiments:
// 55% quotes, 5% batches, 35% updates, 5% purchases. Pair it with a
// workload built with WorkloadConfig.IngestFraction > 0 so a share of
// those updates are row inserts — the database then grows for the whole
// run while quotes keep being served off it.
func StreamingIngestMix() Mix { return Mix{Quote: 0.55, Batch: 0.05, Update: 0.35, Purchase: 0.05} }

// DeleteHeavyMix returns the churn mix for the compaction experiments:
// 35% quotes, 5% batches, 55% updates, 5% purchases. Pair it with
// WorkloadConfig.IngestFraction = 1 and Config.DeleteFraction ≈ 0.5 so
// the update stream is rows being born and dying at matched rates: the
// live row count stays roughly flat while tombstones accumulate, which
// is exactly the load that makes tombstone compaction earn its keep
// (docs/UPDATES.md).
func DeleteHeavyMix() Mix { return Mix{Quote: 0.35, Batch: 0.05, Update: 0.55, Purchase: 0.05} }

// weights returns the class weights in Classes order.
func (m Mix) weights() [4]float64 {
	return [4]float64{m.Quote, m.Batch, m.Update, m.Purchase}
}

// String renders the mix as "quote=0.85 batch=0.05 ...".
func (m Mix) String() string {
	w := m.weights()
	parts := make([]string, 0, 4)
	for i, c := range Classes {
		if w[i] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%.3g", c, w[i]))
		}
	}
	return strings.Join(parts, " ")
}

// Config configures one load run.
type Config struct {
	// BaseURL is the target server root, e.g. "http://127.0.0.1:8080" or
	// an httptest.Server.URL.
	BaseURL string
	// Rate is the total offered arrival rate across all classes, in
	// requests per second.
	Rate float64
	// Duration is how long arrivals are generated for; the run ends when
	// the last arrival's request completes.
	Duration time.Duration
	// Mix is the traffic composition (zero value = DefaultMix).
	Mix Mix
	// Workers is the number of open-loop lanes arrivals are striped
	// across; it bounds concurrency under overload. 0 picks a default
	// scaled to the rate.
	Workers int
	// Seed makes the request sequence deterministic.
	Seed int64
	// Timeout bounds each request (default 10s). A timed-out request
	// counts as a transport error.
	Timeout time.Duration
	// Client overrides the HTTP client (tests); nil builds one with a
	// keep-alive pool sized to Workers.
	Client *http.Client

	// DeleteFraction turns that fraction of update arrivals into row
	// deletes. A delete body cannot come from a replayed pool (a slot is
	// deletable exactly once), so each lane builds them from its own
	// prior inserts: the server's /update response reports the slot every
	// insert was assigned, the lane queues those slots, and a delete
	// arrival pops the oldest — each learned slot is deleted at most
	// once, and only by the lane that created it, so every delete body is
	// valid when issued. Whether arrival k attempts a delete is a pure
	// function of (seed, k); when the lane's queue is empty the arrival
	// falls back to its pooled update body. Pair with
	// WorkloadConfig.IngestFraction > 0 — no inserts, no delete targets.
	DeleteFraction float64
}

// Workload holds the pre-encoded request bodies the generator draws
// from, one pool per class. Arrival k of a class picks a body
// deterministically from the seed. Build one with NewWorkload, or fill
// the pools directly.
type Workload struct {
	// Quotes are SelectQuery JSON bodies (POST /quote).
	Quotes [][]byte
	// Batches are [SelectQuery, ...] JSON bodies (POST /quote/batch).
	Batches [][]byte
	// Updates are [CellChange, ...] JSON bodies (POST /update).
	Updates [][]byte
	// Purchases are SelectQuery JSON bodies (POST /purchase).
	Purchases [][]byte
	// Budget is the purchase budget sent with every purchase request;
	// make it generous so purchases exercise the sale path rather than
	// the refusal path.
	Budget float64
}

// WorkloadConfig tunes NewWorkload.
type WorkloadConfig struct {
	// BatchSize is the number of queries per batch-quote body (default 8).
	BatchSize int
	// Updates is the number of distinct update bodies to pre-generate
	// (default 256; the run cycles through them).
	Updates int
	// UpdateBatch is the number of cell changes per update body
	// (default 1 — the fine-grained live-update shape).
	UpdateBatch int
	// IngestFraction is the fraction of update bodies that are row
	// inserts (streaming ingest) instead of cell flips; 0 keeps the
	// historical cell-only pool. Inserts stay valid no matter how often
	// the run replays them (every insert appends a fresh row), which is
	// what lets an open-loop generator cycle a fixed body pool. Delete
	// bodies are still absent from the pool — a delete is valid at most
	// once — but the generator issues them anyway when
	// Config.DeleteFraction > 0, constructed per-lane from the slots the
	// server assigned that lane's own inserts (see Config.DeleteFraction).
	IngestFraction float64
	// Seed drives the random cell-change generation.
	Seed int64
	// Budget is the purchase budget (default 1e18: always affordable).
	Budget float64
}

// NewWorkload builds a workload over a database and a query corpus: the
// quote/batch/purchase pools are the queries JSON-encoded, and the
// update pool is random single-table cell changes drawn from each
// column's active domain (always valid against db and any snapshot
// derived from it by such changes, since they never leave the domain).
func NewWorkload(db *relational.Database, queries []*relational.SelectQuery, cfg WorkloadConfig) (Workload, error) {
	if len(queries) == 0 {
		return Workload{}, fmt.Errorf("loadgen: empty query corpus")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 8
	}
	if cfg.Updates <= 0 {
		cfg.Updates = 256
	}
	if cfg.UpdateBatch <= 0 {
		cfg.UpdateBatch = 1
	}
	if cfg.Budget == 0 {
		cfg.Budget = 1e18
	}
	var w Workload
	w.Budget = cfg.Budget
	for _, q := range queries {
		enc, err := json.Marshal(q)
		if err != nil {
			return Workload{}, fmt.Errorf("loadgen: encoding query %q: %w", q.Name, err)
		}
		w.Quotes = append(w.Quotes, enc)
	}
	w.Purchases = w.Quotes
	for lo := 0; lo < len(queries); lo += cfg.BatchSize {
		hi := lo + cfg.BatchSize
		if hi > len(queries) {
			hi = len(queries)
		}
		enc, err := json.Marshal(queries[lo:hi])
		if err != nil {
			return Workload{}, fmt.Errorf("loadgen: encoding batch: %w", err)
		}
		w.Batches = append(w.Batches, enc)
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 7717))
	names := db.TableNames()
	for len(w.Updates) < cfg.Updates {
		changes := make([]relational.CellChange, 0, cfg.UpdateBatch)
		if rng.Float64() < cfg.IngestFraction {
			// Ingest body: UpdateBatch full-row inserts, values drawn from
			// each column's active domain (NULL for empty domains).
			for len(changes) < cfg.UpdateBatch {
				tn := names[rng.Intn(len(names))]
				t := db.Table(tn)
				vals := make([]relational.Value, len(t.Schema.Cols))
				for ci := range vals {
					domain := db.ActiveDomain(tn, t.Schema.Cols[ci].Name)
					if len(domain) == 0 {
						vals[ci] = relational.Null()
					} else {
						vals[ci] = domain[rng.Intn(len(domain))]
					}
				}
				changes = append(changes, relational.RowInsert(tn, vals...))
			}
		}
		used := make(map[[3]interface{}]bool)
		for len(changes) < cfg.UpdateBatch {
			tn := names[rng.Intn(len(names))]
			t := db.Table(tn)
			row, col := rng.Intn(t.NumRows()), rng.Intn(len(t.Schema.Cols))
			if used[[3]interface{}{tn, row, col}] {
				continue
			}
			domain := db.ActiveDomain(tn, t.Schema.Cols[col].Name)
			if len(domain) < 2 {
				continue
			}
			used[[3]interface{}{tn, row, col}] = true
			changes = append(changes, relational.CellChange{
				Table: tn, Row: row, Col: col, New: domain[rng.Intn(len(domain))],
			})
		}
		enc, err := json.Marshal(changes)
		if err != nil {
			return Workload{}, fmt.Errorf("loadgen: encoding update: %w", err)
		}
		w.Updates = append(w.Updates, enc)
	}
	return w, nil
}

// pool returns the body pool for a class.
func (w *Workload) pool(c Class) [][]byte {
	switch c {
	case ClassQuote:
		return w.Quotes
	case ClassBatch:
		return w.Batches
	case ClassUpdate:
		return w.Updates
	default:
		return w.Purchases
	}
}

// ClassResult is one class's view of a finished run.
type ClassResult struct {
	// Sent counts every arrival issued for this class.
	Sent int
	// OK counts 2xx responses.
	OK int
	// Shed counts retryable refusals: 429, or 503 carrying Retry-After —
	// admission shedding, drain and degraded-mode refusals. Shed
	// responses are intentional behavior under overload, not errors.
	Shed int
	// Errors counts everything else: non-shed non-2xx statuses and
	// transport failures (timeouts, connection errors).
	Errors int
	// Status counts responses by HTTP status code; transport failures
	// count under 0.
	Status map[int]int
	// Deletes counts update arrivals issued as row deletes (only the
	// update class ever has them; see Config.DeleteFraction).
	Deletes int
	// Stale counts update bodies the server refused 422 because their
	// slot coordinates predate a compaction epoch (only possible with
	// DeleteFraction > 0 against an auto-compacting server): an epoch
	// renumbers slots, so a coordinate learned before it usually lands
	// beyond the compacted table's end and is refused. Lanes
	// resynchronize from the epoch counter in update responses, so only
	// the one-in-flight-request race window lands here — documented
	// server behavior, not an error.
	Stale int
	// Late counts arrivals issued more than one interval behind their
	// scheduled time — the generator's own backlog signal (a persistently
	// climbing Late count means Workers is too low for the latency the
	// server is exhibiting, i.e. the lanes can no longer sustain the open
	// loop).
	Late int
	// Latency is the class's latency distribution, measured from each
	// request's scheduled arrival time to the response being fully read.
	Latency Hist
}

// Result is a finished load run.
type Result struct {
	// Offered is the configured arrival rate (req/s); Elapsed the wall
	// time from first scheduled arrival to last response.
	Offered float64
	Elapsed time.Duration
	// Classes holds per-class results for every class with arrivals.
	Classes map[Class]*ClassResult
	// MaxVersion is the highest database version observed in quote
	// responses; VersionRegressions counts quote responses whose version
	// was lower than one previously observed by the same lane — any
	// nonzero value means the server served a stale snapshot after a
	// newer one (must be zero; asserted by the soak test).
	MaxVersion         uint64
	VersionRegressions int
}

// Class returns the result for one class (an empty result when the class
// had no arrivals).
func (r *Result) Class(c Class) *ClassResult {
	if cr, ok := r.Classes[c]; ok {
		return cr
	}
	return &ClassResult{Status: map[int]int{}}
}

// TotalSent returns the number of requests issued across all classes.
func (r *Result) TotalSent() int {
	n := 0
	for _, cr := range r.Classes {
		n += cr.Sent
	}
	return n
}

// TotalDeletes sums row deletes issued across classes.
func (r *Result) TotalDeletes() int {
	n := 0
	for _, cr := range r.Classes {
		n += cr.Deletes
	}
	return n
}

// TotalStale sums stale-coordinate refusals across classes (see
// ClassResult.Stale): 422s from slot coordinates that a compaction
// epoch renumbered before the delete landed. Tracked apart from Errors
// because the refusal is the documented contract, not a failure.
func (r *Result) TotalStale() int {
	n := 0
	for _, cr := range r.Classes {
		n += cr.Stale
	}
	return n
}

// NonShedErrors returns the total error count across classes — the
// number that must be zero for a healthy run (shed responses excluded:
// they are the admission-control contract working as documented).
func (r *Result) NonShedErrors() int {
	n := 0
	for _, cr := range r.Classes {
		n += cr.Errors
	}
	return n
}

// Achieved returns the overall completed-request throughput in req/s.
func (r *Result) Achieved() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.TotalSent()) / r.Elapsed.Seconds()
}

// String renders the per-class result table.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-9s %8s %8s %6s %5s %5s %10s %10s %10s %10s\n",
		"class", "sent", "ok", "shed", "err", "late", "p50", "p95", "p99", "max")
	for _, c := range Classes {
		cr, ok := r.Classes[c]
		if !ok || cr.Sent == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%-9s %8d %8d %6d %5d %5d %10v %10v %10v %10v\n",
			c, cr.Sent, cr.OK, cr.Shed, cr.Errors, cr.Late,
			cr.Latency.Quantile(0.50).Round(time.Microsecond),
			cr.Latency.Quantile(0.95).Round(time.Microsecond),
			cr.Latency.Quantile(0.99).Round(time.Microsecond),
			cr.Latency.Max().Round(time.Microsecond))
	}
	fmt.Fprintf(&sb, "total: %d requests in %v (offered %.0f/s, achieved %.0f/s); max version %d, version regressions %d",
		r.TotalSent(), r.Elapsed.Round(time.Millisecond), r.Offered, r.Achieved(), r.MaxVersion, r.VersionRegressions)
	if del, stale := r.TotalDeletes(), r.TotalStale(); del > 0 || stale > 0 {
		fmt.Fprintf(&sb, "; deletes %d, stale-coordinate refusals %d", del, stale)
	}
	return sb.String()
}

// SLOLines renders the run as Go-benchmark-format lines that
// scripts/bench.sh folds into BENCH_<n>.json as slo_<group>/* entries:
// per class, p50/p95/p99 latency (the value column is nanoseconds, the
// harness's ns/op slot) and the error rate in parts per million of
// requests sent (same slot, documented in docs/LOAD.md). The group
// keeps each experiment's trajectory separate. Class-ordered and
// deterministic, so trajectory diffs are stable.
func (r *Result) SLOLines(group string) string {
	var sb strings.Builder
	for _, c := range Classes {
		cr, ok := r.Classes[c]
		if !ok || cr.Sent == 0 {
			continue
		}
		for _, q := range []struct {
			name string
			p    float64
		}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
			fmt.Fprintf(&sb, "Benchmarkslo_%s/%s_%s 1 %d ns/op\n", group, c, q.name, cr.Latency.Quantile(q.p).Nanoseconds())
		}
		fmt.Fprintf(&sb, "Benchmarkslo_%s/%s_err_ppm 1 %d ns/op\n", group, c, int64(float64(cr.Errors)*1e6/float64(cr.Sent)))
	}
	return sb.String()
}

// splitmix64 is the SplitMix64 output function: the per-arrival hash
// that makes class and body choice a pure function of (seed, k).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// classOf picks arrival k's class from the cumulative mix thresholds.
func classOf(thresholds [4]float64, seed int64, k int) Class {
	u := float64(splitmix64(uint64(seed)^uint64(k)*0x9e3779b97f4a7c15)>>11) / (1 << 53)
	for i, c := range Classes {
		if u < thresholds[i] {
			return c
		}
	}
	return Classes[len(Classes)-1]
}

// bodyOf picks arrival k's request body from its class pool.
func bodyOf(pool [][]byte, seed int64, k int) []byte {
	return pool[splitmix64(uint64(seed)*0x2545f4914f6cdd1d+uint64(k))%uint64(len(pool))]
}

// deleteDraw is arrival k's uniform draw against Config.DeleteFraction —
// a pure function of (seed, k), like classOf, so whether an update
// arrival *attempts* a delete never depends on timing (whether it
// *succeeds* depends on the lane having learned a slot by then).
func deleteDraw(seed int64, k int) float64 {
	return float64(splitmix64(uint64(seed)*0x9e3779b97f4a7c15+uint64(k)*0xda942042e4dd58b5)>>11) / (1 << 53)
}

// slotRef names one row a lane may delete: a (table, slot) pair the
// server assigned to one of the lane's own inserts.
type slotRef struct {
	Table string
	Row   int
}

// laneResult is one worker lane's private accounting, merged at the end.
type laneResult struct {
	classes     map[Class]*ClassResult
	maxVersion  uint64
	regressions int
}

// Run executes one open-loop load run and blocks until every issued
// request has completed. It returns an error only for configuration
// problems (bad rate, empty body pool for a non-zero mix weight);
// request failures are reported in the Result, not as errors.
func Run(cfg Config, w Workload) (*Result, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: rate must be positive, got %g", cfg.Rate)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: duration must be positive, got %v", cfg.Duration)
	}
	if cfg.Mix == (Mix{}) {
		cfg.Mix = DefaultMix()
	}
	weights := cfg.Mix.weights()
	totalW := 0.0
	for i, c := range Classes {
		if !(weights[i] >= 0) || math.IsInf(weights[i], 1) {
			return nil, fmt.Errorf("loadgen: mix weight for %s must be finite and non-negative, got %g", c, weights[i])
		}
		if weights[i] > 0 && len(w.pool(c)) == 0 {
			return nil, fmt.Errorf("loadgen: mix includes %s but its body pool is empty", c)
		}
		totalW += weights[i]
	}
	if totalW == 0 {
		return nil, fmt.Errorf("loadgen: all mix weights are zero")
	}
	var thresholds [4]float64
	cum := 0.0
	for i := range Classes {
		cum += weights[i] / totalW
		thresholds[i] = cum
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = int(cfg.Rate/8) + 1
		if workers < 8 {
			workers = 8
		}
		if workers > 512 {
			workers = 512
		}
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        workers * 2,
			MaxIdleConnsPerHost: workers * 2,
		}}
	}

	interval := time.Duration(float64(time.Second) / cfg.Rate)
	total := int(cfg.Rate * cfg.Duration.Seconds())
	if total < 1 {
		total = 1
	}
	if workers > total {
		workers = total
	}

	start := time.Now()
	lanes := make([]*laneResult, workers)
	var wg sync.WaitGroup
	for lane := 0; lane < workers; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			lr := &laneResult{classes: map[Class]*ClassResult{}}
			lanes[lane] = lr
			lastVersion := uint64(0)
			// deletable is this lane's FIFO of slots the server assigned
			// to its own inserts: the only rows a delete may legally
			// target (no other lane knows them, and pooled cell bodies
			// only touch the pre-run rows, which deletes never reach).
			var deletable []slotRef
			lastEpochs := uint64(0)
			for k := lane; k < total; k += workers {
				sched := start.Add(time.Duration(k) * interval)
				if d := time.Until(sched); d > 0 {
					time.Sleep(d)
				}
				class := classOf(thresholds, cfg.Seed, k)
				var body []byte
				var del *slotRef
				if class == ClassUpdate && len(deletable) > 0 && deleteDraw(cfg.Seed, k) < cfg.DeleteFraction {
					ref := deletable[0]
					deletable = deletable[1:]
					del = &ref
					body, _ = json.Marshal([]relational.CellChange{relational.RowDelete(ref.Table, ref.Row)})
				} else {
					body = bodyOf(w.pool(class), cfg.Seed+int64(len(class)), k)
				}
				cr := lr.classes[class]
				if cr == nil {
					cr = &ClassResult{Status: map[int]int{}}
					lr.classes[class] = cr
				}
				if time.Since(sched) > interval {
					cr.Late++
				}
				status, version, inserts, epochs := issue(client, cfg.BaseURL, class, body, w.Budget, timeout)
				cr.Sent++
				cr.Status[status]++
				cr.Latency.Observe(time.Since(sched))
				switch {
				case status >= 200 && status < 300:
					cr.OK++
					if del != nil {
						cr.Deletes++
					}
				case status == http.StatusTooManyRequests, status == -http.StatusServiceUnavailable:
					cr.Shed++
					if del != nil {
						// A shed delete did not happen: the slot is still
						// live, so put it back rather than leak it.
						deletable = append(deletable, *del)
					}
				case status == http.StatusUnprocessableEntity &&
					class == ClassUpdate && cfg.DeleteFraction > 0:
					// A slot coordinate that predates a compaction epoch is
					// refused when it falls outside the compacted table
					// (see ClassResult.Stale).
					cr.Stale++
				default:
					cr.Errors++
				}
				// A compaction epoch renumbered every slot this lane has
				// learned: drop them all before queueing this response's
				// fresh (post-epoch) assignments.
				if class == ClassUpdate && status >= 200 && status < 300 && epochs != lastEpochs {
					deletable = deletable[:0]
					lastEpochs = epochs
				}
				// Bounded so a long ingest-heavy run cannot grow the queue
				// without limit; dropped slots just stay live.
				if len(inserts) > 0 && len(deletable) < 1<<16 {
					deletable = append(deletable, inserts...)
				}
				if version > 0 {
					if version < lastVersion {
						lr.regressions++
					}
					if version > lastVersion {
						lastVersion = version
					}
					if version > lr.maxVersion {
						lr.maxVersion = version
					}
				}
			}
		}(lane)
	}
	wg.Wait()

	res := &Result{Offered: cfg.Rate, Elapsed: time.Since(start), Classes: map[Class]*ClassResult{}}
	for _, lr := range lanes {
		if lr == nil {
			continue
		}
		for c, cr := range lr.classes {
			dst := res.Classes[c]
			if dst == nil {
				dst = &ClassResult{Status: map[int]int{}}
				res.Classes[c] = dst
			}
			dst.Sent += cr.Sent
			dst.OK += cr.OK
			dst.Shed += cr.Shed
			dst.Errors += cr.Errors
			dst.Deletes += cr.Deletes
			dst.Stale += cr.Stale
			dst.Late += cr.Late
			for s, n := range cr.Status {
				if s < 0 {
					s = -s // shed-marker encoding (503 + Retry-After)
				}
				dst.Status[s] += n
			}
			dst.Latency.Merge(&cr.Latency)
		}
		if lr.maxVersion > res.MaxVersion {
			res.MaxVersion = lr.maxVersion
		}
		res.VersionRegressions += lr.regressions
	}
	return res, nil
}

// issue sends one request and returns the status (0 for transport
// failure; a 503 that carries Retry-After is returned negated so the
// caller can classify it as shed rather than error), the database
// version parsed from a successful quote response (0 otherwise), and
// the slot assignments parsed from a successful update response (nil
// otherwise) — the lane's delete targets.
func issue(client *http.Client, baseURL string, class Class, body []byte, budget float64, timeout time.Duration) (int, uint64, []slotRef, uint64) {
	path := map[Class]string{
		ClassQuote:    "/quote",
		ClassBatch:    "/quote/batch",
		ClassUpdate:   "/update",
		ClassPurchase: "/purchase",
	}[class]
	url := baseURL + path
	if class == ClassPurchase {
		// Query-escaped: %g renders 1e18 as "1e+18", whose '+' would decode
		// to a space in a query string.
		url += "?budget=" + neturl.QueryEscape(strconv.FormatFloat(budget, 'g', -1, 64))
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, nil, 0
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, nil, 0
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, nil, 0
	}
	version := uint64(0)
	if class == ClassQuote && resp.StatusCode == http.StatusOK {
		var q struct{ Version uint64 }
		if json.Unmarshal(data, &q) == nil {
			version = q.Version
		}
	}
	var inserts []slotRef
	epochs := uint64(0)
	if class == ClassUpdate && resp.StatusCode == http.StatusOK {
		var u struct {
			Inserts     map[string][]int
			Compactions uint64
		}
		if json.Unmarshal(data, &u) == nil {
			for table, slots := range u.Inserts {
				for _, slot := range slots {
					inserts = append(inserts, slotRef{Table: table, Row: slot})
				}
			}
			epochs = u.Compactions
		}
	}
	if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "" {
		return -resp.StatusCode, version, inserts, epochs
	}
	return resp.StatusCode, version, inserts, epochs
}

// StatusCounts returns the run's responses-by-status totals across all
// classes, sorted by code — the client-side half of the metamorphic
// reconciliation against /metrics.
func (r *Result) StatusCounts() (codes []int, counts []int) {
	agg := map[int]int{}
	for _, cr := range r.Classes {
		for s, n := range cr.Status {
			agg[s] += n
		}
	}
	for s := range agg {
		codes = append(codes, s)
	}
	sort.Ints(codes)
	for _, s := range codes {
		counts = append(counts, agg[s])
	}
	return codes, counts
}
