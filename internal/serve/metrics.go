package serve

// Prometheus instrumentation for the serving stack. Two kinds of
// instruments live here: event-driven ones updated on the request path
// (counters, latency and fsync histograms), and collect-on-scrape
// gauges/counters that read broker, plan-cache and store state at
// exposition time — the broker already maintains that state atomically,
// so scraping costs a handful of atomic loads, not locks on the quote
// path. Metric names, types and meanings are documented for operators in
// docs/OPERATIONS.md; keep the two in sync.

import (
	"querypricing/internal/metrics"
)

// serverMetrics is the instrument set one Server exports at /metrics.
type serverMetrics struct {
	reg *metrics.Registry

	requests *metrics.CounterVec   // marketd_http_requests_total{route,code}
	shed     *metrics.CounterVec   // marketd_http_shed_total{route,code}
	latency  *metrics.HistogramVec // marketd_http_request_seconds{route}
	fsync    *metrics.HistogramVec // marketd_store_fsync_seconds{op}

	compactSeconds *metrics.Histogram // marketd_compaction_seconds
	compactRows    *metrics.Counter   // marketd_compaction_rows_rewritten_total
	compactSlots   *metrics.Counter   // marketd_compaction_slots_reclaimed_total
}

// newServerMetrics builds the registry and the event-driven instruments;
// the state collectors are registered later by registerStateMetrics,
// once the broker and store exist.
func newServerMetrics() *serverMetrics {
	reg := metrics.NewRegistry()
	return &serverMetrics{
		reg: reg,
		requests: reg.CounterVec("marketd_http_requests_total",
			"HTTP requests served, by route and status code.", "route", "code"),
		shed: reg.CounterVec("marketd_http_shed_total",
			"Requests refused retryably (429, or 503 with Retry-After): admission control, drain, deadline, degraded store.", "route", "code"),
		latency: reg.HistogramVec("marketd_http_request_seconds",
			"HTTP request latency by route.", metrics.DefLatencyBuckets(), "route"),
		fsync: reg.HistogramVec("marketd_store_fsync_seconds",
			"Durable-write fsync latency, by operation (wal | snapshot).", metrics.DefFsyncBuckets(), "op"),
		compactSeconds: reg.Histogram("marketd_compaction_seconds",
			"Duration of completed compaction epochs (plan + WAL + rewrite + swap).", metrics.DefLatencyBuckets()),
		compactRows: reg.Counter("marketd_compaction_rows_rewritten_total",
			"Live rows re-homed to new slots by compaction epochs, cumulative this process."),
		compactSlots: reg.Counter("marketd_compaction_slots_reclaimed_total",
			"Tombstoned slots reclaimed by compaction epochs, cumulative this process."),
	}
}

// registerStateMetrics mounts the collect-on-scrape views over the
// booted broker (and store, when durable). Called once from New after
// the broker exists.
func (s *Server) registerStateMetrics() {
	reg := s.m.reg

	reg.GaugeFunc("marketd_http_inflight",
		"Requests currently holding an admission token (0 when -max-inflight is unbounded).",
		func() float64 { return float64(s.inflight()) })
	reg.GaugeFunc("marketd_draining",
		"1 while the server is draining (readiness failing, writes refused).",
		func() float64 {
			if s.isDraining() {
				return 1
			}
			return 0
		})

	reg.GaugeFunc("marketd_broker_version",
		"Database version quotes are currently priced against.",
		func() float64 { return float64(s.broker.Version()) })
	reg.GaugeFunc("marketd_broker_revenue",
		"Cumulative revenue across completed sales.",
		func() float64 { return s.broker.Revenue() })
	reg.GaugeFunc("marketd_broker_sales",
		"Completed sales (receipts held by the broker).",
		func() float64 { return float64(len(s.broker.Sales())) })

	// Slot occupancy per table: live rows vs tombstoned slots of the
	// current snapshot. tombstoned/(live+tombstoned) is the fraction the
	// auto-compaction trigger compares against -compact-threshold.
	reg.GaugeVecFunc("marketd_table_rows",
		"Physical slot occupancy of the current snapshot, by table and state (live | tombstoned).",
		[]string{"table", "state"},
		func() []metrics.Sample {
			stats := s.broker.TableStats()
			out := make([]metrics.Sample, 0, 2*len(stats))
			for _, ts := range stats {
				out = append(out,
					metrics.Sample{Labels: []string{ts.Table, "live"}, Value: float64(ts.Live)},
					metrics.Sample{Labels: []string{ts.Table, "tombstoned"}, Value: float64(ts.Tombstones)})
			}
			return out
		})
	reg.CounterFunc("marketd_compactions_total",
		"Compaction epochs applied over the broker's lifetime (restored across restarts).",
		func() float64 { return float64(s.broker.Compactions()) })

	reg.GaugeFunc("marketd_plans_cached",
		"Compiled query plans in the support set's plan cache.",
		func() float64 { return float64(s.broker.PlanStats().Plans) })
	reg.GaugeFunc("marketd_plans_stale",
		"Cached plans awaiting a lazy rebase against newer data.",
		func() float64 { return float64(s.broker.PlanStats().Stale) })
	reg.GaugeFunc("marketd_plans_pending_batches",
		"Deferred update batches not yet folded into cached plans.",
		func() float64 { return float64(s.broker.PlanStats().PendingBatches) })
	reg.CounterFunc("marketd_plans_deferred_total",
		"Plan rebases deferred to first use instead of paid at update time, cumulative.",
		func() float64 { return float64(s.broker.PlanStats().DeferredTotal) })

	if s.mgr == nil {
		return
	}
	reg.GaugeFunc("marketd_store_degraded",
		"1 while the market is read-only after a persistence failure.",
		func() float64 {
			if deg, _ := s.mgr.Degraded(); deg {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("marketd_store_snapshot_age_seconds",
		"Seconds since the last snapshot was committed.",
		func() float64 { return s.mgr.Store().Stats().SnapshotAgeSec })
	reg.GaugeFunc("marketd_store_snapshot_bytes",
		"Size of the last committed snapshot.",
		func() float64 { return float64(s.mgr.Store().Stats().SnapshotBytes) })
	reg.GaugeFunc("marketd_store_wal_age_seconds",
		"Seconds since the last WAL append (or segment creation).",
		func() float64 { return s.mgr.Store().Stats().WALAgeSec })
	reg.GaugeFunc("marketd_store_wal_bytes",
		"Bytes in the active WAL segment.",
		func() float64 { return float64(s.mgr.Store().Stats().WALBytes) })
	reg.GaugeFunc("marketd_store_wal_records",
		"Records appended to the active WAL segment this process lifetime.",
		func() float64 { return float64(s.mgr.Store().Stats().WALRecords) })
	reg.GaugeFunc("marketd_store_wal_broken",
		"1 while the active WAL segment is broken (appends refused until a snapshot rotates it).",
		func() float64 {
			if s.mgr.Store().Stats().WALBroken {
				return 1
			}
			return 0
		})
	reg.CounterFunc("marketd_store_last_seq",
		"Last durable record sequence number assigned.",
		func() float64 { return float64(s.mgr.Store().Stats().LastSeq) })
}
