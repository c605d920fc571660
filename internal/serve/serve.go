// Package serve is the serving core of marketd, separated from flag
// parsing and process lifecycle (cmd/marketd) so tests and the load
// harness (cmd/pricebench -experiment load) can boot the real serving
// stack in-process — against a temp data directory, over httptest,
// "crash" it, and boot a second one on the same directory.
//
// Robustness posture:
//
//   - admission control: at most Config.MaxInflight request bodies are
//     being processed at once; excess quote traffic is shed with 429
//     (retryable by the same client), excess or degraded write traffic
//     with 503 — every shed response carries Retry-After, which is how
//     clients (and internal/loadgen) distinguish intentional shedding
//     from errors;
//   - per-request deadlines: every handler runs under a context that
//     expires after Config.RequestTimeout, and batch quoting propagates
//     that context into its workers (a hung batch cannot pin a worker
//     pool);
//   - graceful drain: BeginDrain flips readiness so load balancers stop
//     sending traffic, in-flight requests finish, and Close writes a
//     final snapshot so the next boot replays nothing;
//   - observability: every server carries a metrics.Registry served at
//     GET /metrics in Prometheus text format — request counts by route
//     and status, latency histograms, shed counts, plan-cache state,
//     store ages and fsync latency (see docs/OPERATIONS.md).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"strconv"
	"time"

	"querypricing/internal/datagen"
	"querypricing/internal/engine"
	"querypricing/internal/market"
	"querypricing/internal/metrics"
	"querypricing/internal/relational"
	"querypricing/internal/store"
	"querypricing/internal/valuation"
	"querypricing/internal/workloads"
)

// Config is everything a server boot needs; cmd/marketd fills it from
// flags, tests fill it directly.
type Config struct {
	// DataDir is the durable state directory; empty runs in-memory only
	// (every boot recalibrates, nothing survives a restart).
	DataDir string
	// SnapshotEvery rolls a snapshot after that many durable updates.
	SnapshotEvery int
	// FS overrides the store's filesystem (fault-injection tests); nil
	// uses the real one.
	FS store.FS

	Algorithm   string
	SupportSize int
	Shards      int
	Seed        int64
	ValK        float64
	// Deprecated: BackgroundDrain is ignored. Deferred plan rebases fold
	// on first use, or in the cap drain of an update that pushes the
	// pending log past plan.MaxPendingBatches; nothing folds them in
	// the background.
	BackgroundDrain bool

	// RequestTimeout bounds each request's handler context; 0 means no
	// per-request deadline.
	RequestTimeout time.Duration
	// MaxInflight bounds concurrently-processing requests on the quote,
	// update and purchase endpoints; 0 disables admission control.
	MaxInflight int

	// CompactThreshold auto-triggers a compaction epoch after an update
	// leaves some table with tombstones/slots >= this fraction (0
	// disables auto-compaction; POST /compact always works). The epoch
	// runs synchronously inside the triggering update request — writes
	// are serialized anyway, and quotes never block on it.
	CompactThreshold float64
	// CompactMinRows exempts tables with fewer physical slots than this
	// from auto-compaction (tiny tables churn 100% tombstone fractions
	// cheaply; rewriting them buys nothing). 0 means no minimum.
	CompactMinRows int
}

// Server is one booted broker plus its serving policy. Boot it with New,
// mount Routes on an http.Server, and Close it on the way out.
type Server struct {
	cfg    Config
	broker *market.Broker
	mgr    *store.Manager // nil when cfg.DataDir is empty

	sem      chan struct{} // admission tokens; nil when MaxInflight is 0
	draining chan struct{} // closed by BeginDrain

	m *serverMetrics

	// restored records whether this boot recovered state from the data
	// directory (true) or bootstrapped and calibrated from scratch
	// (false); surfaced in /stats and asserted by the restart tests.
	restored bool
	bootedIn time.Duration
}

// New boots a broker: from the data directory when it holds a snapshot
// (no recalibration — the point of the store), bootstrapping the demo
// dataset and calibrating otherwise.
func New(cfg Config) (*Server, error) {
	if _, err := engine.Get(cfg.Algorithm); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, draining: make(chan struct{})}
	if cfg.MaxInflight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInflight)
	}
	s.m = newServerMetrics()
	start := time.Now()

	var st *store.Store
	var loaded *market.BrokerSnapshot
	if cfg.DataDir != "" {
		fsys := cfg.FS
		if fsys == nil {
			fsys = store.OSFS{}
		}
		var err error
		st, err = store.OpenFS(cfg.DataDir, fsys)
		if err != nil {
			return nil, err
		}
		st.SetSyncObserver(func(op string, d time.Duration) {
			s.m.fsync.With(op).Observe(d.Seconds())
		})
		res, err := st.Load()
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("marketd: recovering %s: %w", cfg.DataDir, err)
		}
		loaded = res.Snapshot
		if loaded != nil {
			log.Printf("marketd: recovered %s: snapshot v%d + %d updates, %d receipts replayed (%d torn bytes dropped)",
				cfg.DataDir, res.SnapshotVersion, res.ReplayedUpdates, res.ReplayedReceipts, res.TornBytes)
		}
	}

	if loaded != nil {
		b, err := market.Restore(*loaded, market.Config{
			Shards:         cfg.Shards,
			Seed:           cfg.Seed,
			LPIPCandidates: 16,
			CIPEpsilon:     0.5,
		})
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("marketd: restoring broker: %w", err)
		}
		s.broker = b
		s.restored = true
	} else {
		b, err := bootstrapBroker(cfg)
		if err != nil {
			if st != nil {
				st.Close()
			}
			return nil, err
		}
		s.broker = b
	}

	if st != nil {
		s.mgr = store.NewManager(s.broker, st, store.ManagerOptions{SnapshotEvery: cfg.SnapshotEvery})
		if !s.restored {
			// First boot on an empty directory: persist the calibrated
			// state so the next boot restores instead of recalibrating.
			if err := s.mgr.Snapshot(); err != nil {
				st.Close()
				return nil, fmt.Errorf("marketd: initial snapshot: %w", err)
			}
		}
	}
	s.registerStateMetrics()
	s.bootedIn = time.Since(start)
	return s, nil
}

// bootstrapBroker builds and calibrates the demonstration market: the
// synthetic world dataset priced from the skewed workload.
func bootstrapBroker(cfg Config) (*market.Broker, error) {
	log.Printf("marketd: generating world dataset...")
	db := datagen.World(datagen.WorldConfig{Countries: 239, Cities: 800, Seed: cfg.Seed})
	broker, err := market.NewBroker(db, market.Config{
		SupportSize:    cfg.SupportSize,
		Shards:         cfg.Shards,
		Seed:           cfg.Seed,
		LPIPCandidates: 16,
		CIPEpsilon:     0.5,
	})
	if err != nil {
		return nil, fmt.Errorf("marketd: %w", err)
	}
	log.Printf("marketd: calibrating %s from the skewed workload...", cfg.Algorithm)
	forecast := workloads.Skewed(db)
	rev, err := broker.Calibrate(forecast, valuation.Uniform{K: cfg.ValK}, market.Algorithm(cfg.Algorithm))
	if err != nil {
		return nil, fmt.Errorf("marketd: calibration: %w", err)
	}
	log.Printf("marketd: calibrated; forecast revenue %.2f over %d queries", rev, len(forecast))
	return broker, nil
}

// Broker returns the served broker (read-only diagnostics; tests).
func (s *Server) Broker() *market.Broker { return s.broker }

// Restored reports whether this boot recovered state from the data
// directory rather than calibrating from scratch.
func (s *Server) Restored() bool { return s.restored }

// BootDuration reports how long New took.
func (s *Server) BootDuration() time.Duration { return s.bootedIn }

// Metrics returns the server's metrics registry (also served at
// GET /metrics).
func (s *Server) Metrics() *metrics.Registry { return s.m.reg }

// BeginDrain flips the server to draining: /readyz starts failing
// (pulling the instance out of load-balancer rotation) and new write
// traffic is refused; in-flight requests are unaffected.
func (s *Server) BeginDrain() {
	select {
	case <-s.draining:
	default:
		close(s.draining)
	}
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Close releases the broker's durable state: a final snapshot (so the
// next boot's WAL replay is empty) and the store's file handles.
func (s *Server) Close() error {
	if s.mgr == nil {
		return nil
	}
	return s.mgr.Close()
}

// admit takes an admission token, or reports shed=true when the server
// is at its concurrency bound. The caller must release() iff admitted.
func (s *Server) admit() (shed bool) {
	if s.sem == nil {
		return false
	}
	select {
	case s.sem <- struct{}{}:
		return false
	default:
		return true
	}
}

func (s *Server) release() {
	if s.sem != nil {
		<-s.sem
	}
}

func (s *Server) inflight() int {
	if s.sem == nil {
		return 0
	}
	return len(s.sem)
}

// requestContext derives the handler context: the client's, bounded by
// the per-request deadline.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// guarded wraps a work-bearing handler with the serving policy: shed at
// the concurrency bound (quotes get 429 — retry the same instance;
// writes get 503 — go elsewhere), refuse writes while draining, and run
// the handler under the per-request deadline.
func (s *Server) guarded(isWrite bool, h func(http.ResponseWriter, *http.Request, context.Context)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if isWrite && s.isDraining() {
			writeRetryable(w, http.StatusServiceUnavailable, "draining: not accepting writes")
			return
		}
		if s.admit() {
			status := http.StatusTooManyRequests
			if isWrite {
				status = http.StatusServiceUnavailable
			}
			writeRetryable(w, status, "overloaded: admission queue full")
			return
		}
		defer s.release()
		ctx, cancel := s.requestContext(r)
		defer cancel()
		h(w, r, ctx)
	}
}

// statusRecorder captures the status a handler wrote so the metrics
// middleware can label its counters.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the request counter, latency histogram
// and shed counter for one route label.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		code := strconv.Itoa(rec.status)
		s.m.requests.With(route, code).Inc()
		s.m.latency.With(route).Observe(time.Since(start).Seconds())
		if isShed(rec.status, rec.Header()) {
			s.m.shed.With(route, code).Inc()
		}
	}
}

// isShed is the serving policy's definition of an intentional, retryable
// refusal — the same classification internal/loadgen applies client-side
// — as opposed to an error: 429, or 503 carrying Retry-After.
func isShed(status int, h http.Header) bool {
	return status == http.StatusTooManyRequests ||
		(status == http.StatusServiceUnavailable && h.Get("Retry-After") != "")
}

// Routes mounts the API.
func (s *Server) Routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	mux.HandleFunc("GET /stats", s.instrument("/stats", s.handleStats))
	mux.HandleFunc("GET /algorithms", s.instrument("/algorithms", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"algorithms": engine.List()})
	}))
	// /metrics is deliberately not instrumented: scrapes should not
	// perturb the request counters they report.
	mux.Handle("GET /metrics", s.m.reg.Handler())
	mux.HandleFunc("POST /quote", s.instrument("/quote", s.guarded(false, s.handleQuote)))
	mux.HandleFunc("POST /quote/batch", s.instrument("/quote/batch", s.guarded(false, s.handleQuoteBatch)))
	mux.HandleFunc("POST /update", s.instrument("/update", s.guarded(true, s.handleUpdate)))
	mux.HandleFunc("POST /purchase", s.instrument("/purchase", s.guarded(true, s.handlePurchase)))
	mux.HandleFunc("POST /compact", s.instrument("/compact", s.guarded(true, s.handleCompact)))
	return mux
}

// handleHealthz is liveness: the process is up and the mux serving. It
// stays 200 while draining (the process is healthy, just leaving).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: calibration or restore is complete (implied
// by the server existing), the instance is not draining, and the
// admission queue has room. Load balancers route on this.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.isDraining():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case s.sem != nil && s.inflight() >= cap(s.sem):
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "saturated"})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "restored": s.restored})
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := map[string]any{
		"support_size": s.broker.SupportSize(),
		"algorithm":    s.broker.Algorithm(),
		"revenue":      s.broker.Revenue(),
		"sales":        len(s.broker.Sales()),
		"version":      s.broker.Version(),
		// Deferred-maintenance state of the plan cache: cached and stale
		// plans, pending update batches and cumulative deferrals (see
		// docs/UPDATES.md).
		"plans": s.broker.PlanStats(),
		// Slot occupancy and compaction history: per-table live and
		// tombstoned rows plus the lifetime epoch count — the same signal
		// the auto-compaction trigger reads (see docs/OPERATIONS.md).
		"tables":      s.broker.TableStats(),
		"compactions": s.broker.Compactions(),
		// Boot provenance: whether this process restored from disk (and
		// skipped calibration) and how long boot took.
		"restored":     s.restored,
		"boot_sec":     s.bootedIn.Seconds(),
		"draining":     s.isDraining(),
		"inflight":     s.inflight(),
		"max_inflight": s.cfg.MaxInflight,
	}
	if s.mgr != nil {
		stats["store"] = s.mgr.Store().Stats()
		deg, msg := s.mgr.Degraded()
		stats["degraded"] = deg
		if deg {
			stats["degraded_reason"] = msg
		}
	}
	writeJSON(w, http.StatusOK, stats)
}

func (s *Server) handleQuote(w http.ResponseWriter, r *http.Request, ctx context.Context) {
	q, err := decodeQuery(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if err := ctx.Err(); err != nil {
		writeRetryable(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	quote, err := s.broker.Quote(q)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, quote)
}

func (s *Server) handleQuoteBatch(w http.ResponseWriter, r *http.Request, ctx context.Context) {
	qs, err := decodeQueryBatch(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	quotes, err := s.broker.QuoteBatchContext(ctx, qs)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			writeRetryable(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
		return
	}
	if quotes == nil {
		quotes = []market.Quote{} // encode empty batches as [], not null
	}
	writeJSON(w, http.StatusOK, quotes)
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request, ctx context.Context) {
	changes, err := decodeChanges(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if err := ctx.Err(); err != nil {
		writeRetryable(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	version, norm, ustats, err := s.update(changes)
	if err != nil {
		if errors.Is(err, store.ErrDegraded) {
			writeRetryable(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
		return
	}
	resp := map[string]any{
		"version":        version,
		"changes":        len(changes),
		"plans_deferred": ustats.PlansDeferred,
	}
	// Report each insert's assigned slot, per table in batch order: a
	// client that wants to delete (or update) a row it inserted must name
	// the slot, and only the serialized apply knows which one it got.
	var inserts map[string][]int
	for _, c := range norm {
		if c.Op == relational.OpRowInsert {
			if inserts == nil {
				inserts = map[string][]int{}
			}
			inserts[c.Table] = append(inserts[c.Table], c.Row)
		}
	}
	if inserts != nil {
		resp["inserts"] = inserts
	}
	// Auto-compaction piggybacks on the write path: the update that tips
	// a table over the tombstone threshold pays for the epoch, and its
	// response says so.
	if cst := s.maybeAutoCompact(); cst != nil {
		resp["compacted"] = cst
	}
	// The lifetime epoch count, post-trigger: a client holding slot
	// coordinates (e.g. for deletes of rows it inserted) watches this to
	// learn that an epoch renumbered them (see loadgen's delete lanes).
	resp["compactions"] = s.broker.Compactions()
	writeJSON(w, http.StatusOK, resp)
}

// handleCompact runs an explicit compaction epoch over the named tables
// (body {"tables": [...]}; empty or absent body compacts every table
// with tombstones). Nothing to compact is a success for an operator
// action — the response says so instead of erroring.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request, ctx context.Context) {
	tables, err := decodeCompactRequest(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if err := ctx.Err(); err != nil {
		writeRetryable(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	stats, err := s.compact(tables)
	switch {
	case errors.Is(err, market.ErrNothingToCompact):
		writeJSON(w, http.StatusOK, map[string]any{"compacted": false, "reason": "no tombstones to reclaim"})
	case errors.Is(err, store.ErrDegraded):
		writeRetryable(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"compacted": true, "stats": stats})
	}
}

func (s *Server) handlePurchase(w http.ResponseWriter, r *http.Request, ctx context.Context) {
	q, err := decodeQuery(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	budget, err := strconv.ParseFloat(r.URL.Query().Get("budget"), 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "budget query parameter required"})
		return
	}
	if math.IsNaN(budget) {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "budget must be a number, not NaN"})
		return
	}
	if err := ctx.Err(); err != nil {
		writeRetryable(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	ans, receipt, err := s.purchase(q, budget)
	if err != nil {
		if errors.Is(err, store.ErrDegraded) {
			writeRetryable(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		writeJSON(w, http.StatusPaymentRequired, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"receipt": receipt, "answer": ans})
}

// update routes a mutation through the durability layer when one exists.
// The normalized batch comes back with every insert's assigned slot.
func (s *Server) update(changes []relational.CellChange) (uint64, []relational.CellChange, updateStats, error) {
	if s.mgr != nil {
		v, norm, st, err := s.mgr.UpdateAssigned(changes)
		return v, norm, updateStats{PlansDeferred: st.PlansDeferred}, err
	}
	v, norm, st, err := s.broker.UpdateAssigned(changes)
	return v, norm, updateStats{PlansDeferred: st.PlansDeferred}, err
}

// compact routes a compaction epoch through the durability layer when
// one exists (the epoch must be write-ahead-logged before it applies),
// and records the epoch in the compaction metrics.
func (s *Server) compact(tables []string) (market.CompactStats, error) {
	start := time.Now()
	var stats market.CompactStats
	var err error
	if s.mgr != nil {
		stats, err = s.mgr.Compact(tables)
	} else {
		stats, err = s.broker.CompactTables(tables)
	}
	if err != nil {
		return stats, err
	}
	s.m.compactSeconds.Observe(time.Since(start).Seconds())
	s.m.compactRows.Add(uint64(stats.RowsRewritten))
	s.m.compactSlots.Add(uint64(stats.SlotsReclaimed))
	return stats, nil
}

// maybeAutoCompact fires a compaction epoch when the trigger policy says
// some table is due: tombstones/slots >= CompactThreshold on a table
// with at least CompactMinRows physical slots. Returns the epoch's
// stats, or nil when the policy is off, nothing is due, or the epoch
// failed (a racing trigger already reclaimed the tombstones, or the
// store degraded — the *next* write surfaces that; this one succeeded).
func (s *Server) maybeAutoCompact() *market.CompactStats {
	if s.cfg.CompactThreshold <= 0 {
		return nil
	}
	var due []string
	for _, ts := range s.broker.TableStats() {
		if ts.Slots < s.cfg.CompactMinRows {
			continue
		}
		if float64(ts.Tombstones) >= s.cfg.CompactThreshold*float64(ts.Slots) {
			due = append(due, ts.Table)
		}
	}
	if len(due) == 0 {
		return nil
	}
	stats, err := s.compact(due)
	if err != nil {
		if !errors.Is(err, market.ErrNothingToCompact) {
			log.Printf("marketd: auto-compaction of %v: %v", due, err)
		}
		return nil
	}
	return &stats
}

// purchase routes a sale through the durability layer when one exists.
func (s *Server) purchase(q *relational.SelectQuery, budget float64) (*relational.Result, market.Receipt, error) {
	if s.mgr != nil {
		return s.mgr.Purchase(q, budget)
	}
	return s.broker.Purchase(q, budget)
}

// updateStats is the projection of support.UpdateStats the API reports.
type updateStats struct {
	PlansDeferred int
}

func decodeQuery(r *http.Request) (*relational.SelectQuery, error) {
	defer r.Body.Close()
	var q relational.SelectQuery
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		return nil, fmt.Errorf("bad query: %w", err)
	}
	if q.Name == "" {
		q.Name = "adhoc"
	}
	return &q, nil
}

func decodeQueryBatch(r *http.Request) ([]*relational.SelectQuery, error) {
	defer r.Body.Close()
	var qs []*relational.SelectQuery
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&qs); err != nil {
		return nil, fmt.Errorf("bad query batch: %w", err)
	}
	for i, q := range qs {
		if q == nil {
			return nil, fmt.Errorf("bad query batch: null query at index %d", i)
		}
		if q.Name == "" {
			q.Name = fmt.Sprintf("adhoc-%d", i)
		}
	}
	return qs, nil
}

func decodeChanges(r *http.Request) ([]relational.CellChange, error) {
	defer r.Body.Close()
	var changes []relational.CellChange
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&changes); err != nil {
		return nil, fmt.Errorf("bad update: %w", err)
	}
	if len(changes) == 0 {
		return nil, fmt.Errorf("bad update: empty change list")
	}
	return changes, nil
}

// decodeCompactRequest parses an optional {"tables": [...]} body; an
// empty body (the common operator invocation) means every table.
func decodeCompactRequest(r *http.Request) ([]string, error) {
	defer r.Body.Close()
	var req struct {
		Tables []string
	}
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, nil
		}
		return nil, fmt.Errorf("bad compact request: %w", err)
	}
	return req.Tables, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("marketd: encoding response: %v", err)
	}
}

// writeRetryable is writeJSON for refusals the client should retry
// (admission shed, drain, per-request deadline, degraded store): the
// Retry-After header marks the response as shed rather than error, for
// both external clients and the shed metrics.
func writeRetryable(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, status, map[string]string{"error": msg})
}
