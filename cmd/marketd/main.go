// Command marketd runs a demonstration data-market broker over HTTP (the
// Qirana role): it loads the synthetic world dataset, calibrates an
// arbitrage-free pricing from the skewed workload, and serves quotes and
// purchases for ad-hoc queries. With -data-dir it is durable: calibrated
// state, update batches and sale receipts persist to a snapshot + WAL
// directory, and a restart restores byte-identical quotes at the pinned
// version without recalibrating (see docs/OPERATIONS.md).
//
// Endpoints (all JSON unless noted):
//
//	GET  /healthz            liveness (process up)
//	GET  /readyz             readiness (booted, not draining, not saturated)
//	GET  /stats              broker status (support size, algorithm, revenue, version, plan-cache and store state)
//	GET  /metrics            Prometheus text-format metrics (see docs/OPERATIONS.md)
//	GET  /algorithms         the engine registry's algorithm names
//	POST /quote              body: SelectQuery -> Quote
//	POST /quote/batch        body: [SelectQuery, ...] -> [Quote, ...]
//	POST /purchase?budget=N  body: SelectQuery -> answer + receipt
//	POST /update             body: [CellChange, ...] -> new version + plan stats + assigned insert slots
//	POST /compact            body: {"tables":[...]} (optional; default all) -> compaction stats
//
// A SelectQuery body looks like:
//
//	{"Name":"q","Tables":["Country"],
//	 "Where":[{"Col":{"Table":"Country","Col":"Continent"},
//	           "Op":0,"Val":{"K":3,"S":"Asia"}}],
//	 "Select":[{"Table":"Country","Col":"Name"}]}
//
// and a CellChange body (POST /update) looks like:
//
//	[{"Table":"Country","Row":3,"Col":2,"New":{"K":3,"S":"Europe"}}]
//
// Each update atomically publishes a new database version; quotes in
// flight keep pricing against the previous snapshot, later quotes see the
// new one, and every Quote/Receipt reports the version it was priced at
// (see docs/UPDATES.md). With -data-dir, each update and purchase is
// written ahead to the WAL before it is acknowledged; a persistence
// failure degrades the market to read-only (503 on writes, quotes keep
// serving) rather than acknowledging non-durable state.
//
// Overload and shutdown behavior: at most -max-inflight requests are
// processed concurrently (excess quotes shed with 429, writes with 503,
// both carrying Retry-After), each request runs under a -request-timeout
// deadline that batch quoting propagates into its workers, and
// SIGINT/SIGTERM drains gracefully — /readyz starts failing, in-flight
// requests finish, a final snapshot is written.
//
// Start with:
//
//	marketd -addr :8080 -algorithm LPIP -data-dir /var/lib/marketd
//
// The serving core (routing, admission control, drain, durability,
// metrics) lives in internal/serve so tests and the load harness
// (pricebench -experiment load, docs/LOAD.md) boot the identical stack
// in-process; this command is flag parsing and process lifecycle.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // profiling endpoints, mounted only with -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"querypricing/internal/engine"
	"querypricing/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		algo     = flag.String("algorithm", "LPIP", "pricing algorithm: "+strings.Join(engine.List(), " | "))
		supportN = flag.Int("support", 400, "support size")
		shards   = flag.Int("shards", 0, "support-set shards (0 = GOMAXPROCS, <0 = one shard)")
		seed     = flag.Int64("seed", 1, "random seed")
		valK     = flag.Float64("valuation-k", 100, "Uniform[1,k] calibration valuations")
		pprofOn  = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")

		compactThresh = flag.Float64("compact-threshold", 0.3, "auto-compact a table when tombstones/slots reaches this fraction (0 = manual POST /compact only)")
		compactMin    = flag.Int("compact-min-rows", 4096, "exempt tables with fewer physical slots than this from auto-compaction")

		dataDir    = flag.String("data-dir", "", "durable state directory (empty = in-memory only)")
		snapEvery  = flag.Int("snapshot-every", 64, "roll a snapshot after this many durable updates (0 = only at shutdown)")
		reqTimeout = flag.Duration("request-timeout", 10*time.Second, "per-request handler deadline (0 = none)")
		maxInfl    = flag.Int("max-inflight", 128, "concurrent quote/update/purchase bound; excess is shed (0 = unbounded)")
		drainWait  = flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown budget for in-flight requests")
	)
	flag.Parse()

	srv, err := serve.New(serve.Config{
		DataDir:        *dataDir,
		SnapshotEvery:  *snapEvery,
		Algorithm:      *algo,
		SupportSize:    *supportN,
		Shards:         *shards,
		Seed:           *seed,
		ValK:           *valK,
		RequestTimeout: *reqTimeout,
		MaxInflight:    *maxInfl,

		CompactThreshold: *compactThresh,
		CompactMinRows:   *compactMin,
	})
	if err != nil {
		log.Fatalf("marketd: %v", err)
	}

	mux := srv.Routes()
	if *pprofOn {
		// net/http/pprof registers its handlers on the default mux at
		// import time; expose them only when asked.
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		log.Printf("marketd: pprof enabled under /debug/pprof/")
	}

	// A real server, not a bare ListenAndServe: header/read/write/idle
	// timeouts bound what any one connection can hold open, independent of
	// the per-request handler deadline.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("marketd: listening on %s (restored=%v, boot %.2fs)", *addr, srv.Restored(), srv.BootDuration().Seconds())

	select {
	case err := <-errCh:
		log.Fatalf("marketd: %v", err)
	case <-ctx.Done():
	}

	// Drain: stop accepting, fail readiness, let in-flight requests finish
	// within the budget, then persist a final snapshot.
	log.Printf("marketd: signal received; draining (%s budget)...", *drainWait)
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("marketd: shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		log.Printf("marketd: closing store: %v", err)
	}
	log.Printf("marketd: bye")
}
