package main

// The serving-load experiments (docs/LOAD.md): boot the real marketd
// serving stack in-process (internal/serve over httptest) — or target an
// already-running marketd via -load-addr — and drive it with open-loop
// mixed traffic (internal/loadgen) at a configured rate, mix and
// duration. load, ingest and compact are three rows of one profile
// table and run through one runner; they differ only in default mix,
// the share of insert and delete bodies, and the compaction policy of
// the measured boot. Every run reports per-class throughput, shed/error
// counts and p50/p95/p99 latency, and with -slo prints Benchmark-format
// slo_<experiment> lines that scripts/bench.sh folds into
// BENCH_<n>.json.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"querypricing/internal/datagen"
	"querypricing/internal/loadgen"
	"querypricing/internal/market"
	"querypricing/internal/metrics"
	"querypricing/internal/relational"
	"querypricing/internal/serve"
	"querypricing/internal/workloads"
)

// loadProfile is one serving-load experiment.
type loadProfile struct {
	// mix is the traffic mix when -mix is empty.
	mix loadgen.Mix
	// ingestFraction is the share of pooled update bodies that are
	// full-row inserts (loadgen.WorkloadConfig.IngestFraction).
	ingestFraction float64
	// deleteFraction is the share of update arrivals issued as deletes of
	// rows the lane itself inserted (loadgen.Config.DeleteFraction).
	deleteFraction float64
	// compactAt is the measured boot's auto-compaction threshold. A
	// nonzero threshold also drives a second boot that never compacts, to
	// show bounded slot growth and price identity across POST /compact.
	compactAt float64
}

var loadProfiles = map[string]loadProfile{
	// The read-heavy serving mix.
	"load": {mix: loadgen.DefaultMix()},
	// Update-heavy, half the update bodies inserts: the database grows
	// while quotes keep serving.
	"ingest": {mix: loadgen.StreamingIngestMix(), ingestFraction: 0.5},
	// Rows born and dying at matched rates. The churn tombstones a few
	// percent of each table, so a 5% threshold keeps epochs firing
	// throughout and quote latency rides through every one.
	"compact": {mix: loadgen.DeleteHeavyMix(), ingestFraction: 1, deleteFraction: 0.5, compactAt: 0.05},
}

// parseMix decodes "-mix quote=0.85,batch=0.05,update=0.05,purchase=0.05"
// (empty = the zero Mix, i.e. the profile's default).
func parseMix(s string) (loadgen.Mix, error) {
	var m loadgen.Mix
	if s == "" {
		return m, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return m, fmt.Errorf("bad -mix element %q (want class=weight)", part)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil {
			return m, fmt.Errorf("bad -mix weight %q: %w", kv[1], err)
		}
		if !(v >= 0) || math.IsInf(v, 1) {
			return m, fmt.Errorf("bad -mix weight %q (want a finite non-negative number)", kv[1])
		}
		switch strings.TrimSpace(kv[0]) {
		case "quote":
			m.Quote = v
		case "batch":
			m.Batch = v
		case "update":
			m.Update = v
		case "purchase":
			m.Purchase = v
		default:
			return m, fmt.Errorf("unknown -mix class %q (quote|batch|update|purchase)", kv[0])
		}
	}
	if m == (loadgen.Mix{}) {
		return m, fmt.Errorf("-mix %q has no positive weight", s)
	}
	return m, nil
}

// loadTarget is the server one run drives: an in-process boot (srv
// non-nil) or a running marketd named by -load-addr.
type loadTarget struct {
	url   string
	db    *relational.Database // the database the workload is generated from
	srv   *serve.Server
	close func()
}

// runLoad runs the named loadProfiles experiment.
func (r *runner) runLoad(name string) error {
	p := loadProfiles[name]
	mix, err := parseMix(r.loadMix)
	if err != nil {
		return err
	}
	if mix == (loadgen.Mix{}) {
		mix = p.mix
	}

	var t *loadTarget
	if r.loadAddr != "" {
		if p.compactAt > 0 {
			return fmt.Errorf("-load-addr is not supported: %s compares two in-process boots, with and without compaction", name)
		}
		url := strings.TrimSuffix(r.loadAddr, "/")
		if !strings.HasPrefix(url, "http") {
			url = "http://" + url
		}
		// The workload must be valid against the server's dataset:
		// regenerate the marketd demo world with the same -seed the server
		// was started with.
		t = &loadTarget{url: url, db: datagen.World(datagen.WorldConfig{Countries: 239, Cities: 800, Seed: r.seed})}
		fmt.Printf("== %s: targeting %s (workload regenerated at seed %d) ==\n", name, url, r.seed)
	} else {
		fmt.Printf("== %s: in-process marketd, compaction threshold %g ==\n", name, p.compactAt)
		if t, err = r.boot(p.compactAt); err != nil {
			return err
		}
		defer t.close()
	}
	res, err := r.drive(t, p, mix)
	if err != nil {
		return err
	}
	if err := checkMetrics(t.url); err != nil {
		return err
	}
	errs := res.NonShedErrors()

	var slots, baseSlots int
	var epochs uint64
	if p.compactAt > 0 {
		fmt.Printf("== %s: identical traffic, compaction disabled ==\n", name)
		base, err := r.boot(0)
		if err != nil {
			return err
		}
		defer base.close()
		baseRes, err := r.drive(base, p, mix)
		if err != nil {
			return err
		}
		errs += baseRes.NonShedErrors()
		slots, _ = slotStats(t.srv.Broker())
		baseSlots, _ = slotStats(base.srv.Broker())
		epochs = t.srv.Broker().Compactions()
		// The uncompacted boot is full of tombstones: prices must not move
		// across an explicit epoch.
		if err := checkCompactIdentity(base.url, base.srv.Broker()); err != nil {
			return err
		}
	}

	if r.loadSLO {
		// Benchmark-format lines for scripts/bench.sh (see docs/LOAD.md).
		fmt.Print(res.SLOLines(name))
		if p.compactAt > 0 {
			// Slot growth with and without compaction, in the value slot
			// the SLO lines use (the comparator treats it as a magnitude).
			fmt.Printf("Benchmarkslo_%s/slots_compacted 1 %d ns/op\n", name, slots)
			fmt.Printf("Benchmarkslo_%s/slots_uncompacted 1 %d ns/op\n", name, baseSlots)
			fmt.Printf("Benchmarkslo_%s/epochs 1 %d ns/op\n", name, epochs)
		}
	}
	if errs > 0 {
		return fmt.Errorf("%s runs produced %d non-shed errors", name, errs)
	}
	if p.compactAt > 0 {
		if epochs == 0 {
			return fmt.Errorf("traffic never triggered auto-compaction (threshold %g); raise -rate or -duration", p.compactAt)
		}
		if slots >= baseSlots {
			return fmt.Errorf("compaction did not reduce slot growth: %d slots with vs %d without", slots, baseSlots)
		}
	}
	return nil
}

// boot starts a durable in-process marketd with the given
// auto-compaction threshold (0 = never compact).
func (r *runner) boot(threshold float64) (*loadTarget, error) {
	supportN := r.supportN
	if supportN <= 0 {
		supportN = 200
	}
	dir, err := os.MkdirTemp("", "pricebench-load-*")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	s, err := serve.New(serve.Config{
		DataDir:          dir,
		SnapshotEvery:    64,
		Algorithm:        "LPIP",
		SupportSize:      supportN,
		Shards:           r.shards,
		Seed:             r.seed,
		ValK:             100,
		RequestTimeout:   10 * time.Second,
		MaxInflight:      256,
		CompactThreshold: threshold,
		CompactMinRows:   64,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ts := httptest.NewServer(s.Routes())
	fmt.Printf("booted (support %d, durable) in %v\n", supportN, time.Since(start).Round(time.Millisecond))
	return &loadTarget{
		url: ts.URL,
		db:  s.Broker().DB(),
		srv: s,
		close: func() {
			ts.Close()
			s.Close()
			os.RemoveAll(dir)
		},
	}, nil
}

// drive runs the profile's open-loop traffic against t and prints the
// result. For an in-process target it also reports slot growth, and
// fails a run whose applied inserts did not grow a never-compacted
// database.
func (r *runner) drive(t *loadTarget, p loadProfile, mix loadgen.Mix) (*loadgen.Result, error) {
	queries := workloads.Skewed(t.db)
	if len(queries) > 200 {
		queries = queries[:200]
	}
	w, err := loadgen.NewWorkload(t.db, queries, loadgen.WorkloadConfig{Seed: r.seed, IngestFraction: p.ingestFraction})
	if err != nil {
		return nil, err
	}
	before := 0
	if t.srv != nil {
		before, _ = slotStats(t.srv.Broker())
	}
	fmt.Printf("offered %.0f req/s for %v, mix %s, ingest fraction %g, delete fraction %g\n",
		r.loadRate, r.loadDur, mix, p.ingestFraction, p.deleteFraction)
	res, err := loadgen.Run(loadgen.Config{
		BaseURL:        t.url,
		Rate:           r.loadRate,
		Duration:       r.loadDur,
		Mix:            mix,
		Workers:        r.loadWorkers,
		Seed:           r.seed,
		DeleteFraction: p.deleteFraction,
	}, w)
	if err != nil {
		return nil, err
	}
	fmt.Println(res)
	if t.srv == nil {
		// With -load-addr the remote database is opaque.
		return res, nil
	}
	b := t.srv.Broker()
	after, live := slotStats(b)
	fmt.Printf("database: %d -> %d slots, %d live rows (version %d, %d compaction epochs)\n",
		before, after, live, b.Version(), b.Compactions())
	if p.ingestFraction > 0 && b.Compactions() == 0 && after <= before && res.Class(loadgen.ClassUpdate).OK > 0 {
		return nil, fmt.Errorf("insert-bearing updates were applied but the database did not grow")
	}
	return res, nil
}

// slotStats sums physical slots (live + tombstoned) and live rows across
// all tables.
func slotStats(b *market.Broker) (slots, live int) {
	for _, ts := range b.TableStats() {
		slots += ts.Slots
		live += ts.Live
	}
	return slots, live
}

// checkCompactIdentity asserts quotes are price-identical across an
// explicit POST /compact: same Price, ConflictSize and Informative for
// every sampled query; only Version moves.
func checkCompactIdentity(baseURL string, b *market.Broker) error {
	queries := workloads.Skewed(b.DB())
	if len(queries) > 20 {
		queries = queries[:20]
	}
	before := make([]market.Quote, len(queries))
	for i, q := range queries {
		quote, err := b.Quote(q)
		if err != nil {
			return fmt.Errorf("pre-compaction quote %q: %w", q.Name, err)
		}
		before[i] = quote
	}
	resp, err := http.Post(baseURL+"/compact", "application/json", bytes.NewReader(nil))
	if err != nil {
		return fmt.Errorf("POST /compact: %w", err)
	}
	var body struct {
		Compacted bool                `json:"compacted"`
		Stats     market.CompactStats `json:"stats"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /compact: status %d, decode err %v", resp.StatusCode, err)
	}
	if !body.Compacted {
		return fmt.Errorf("POST /compact reclaimed nothing on a churned database")
	}
	fmt.Printf("explicit compaction: %d tables, %d slots reclaimed, %d plans dropped\n",
		body.Stats.TablesCompacted, body.Stats.SlotsReclaimed, body.Stats.PlansDropped)
	for i, q := range queries {
		after, err := b.Quote(q)
		if err != nil {
			return fmt.Errorf("post-compaction quote %q: %w", q.Name, err)
		}
		if after.Price != before[i].Price || after.ConflictSize != before[i].ConflictSize ||
			after.Informative != before[i].Informative {
			return fmt.Errorf("quote %q changed across compaction: %+v -> %+v", q.Name, before[i], after)
		}
	}
	fmt.Printf("quote identity: %d queries price-identical across the epoch\n", len(queries))
	return nil
}

// checkMetrics scrapes GET /metrics and validates the exposition format.
func checkMetrics(baseURL string) error {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("reading /metrics: %w", err)
	}
	if errs := metrics.Lint(string(data)); len(errs) != 0 {
		return fmt.Errorf("/metrics failed exposition lint: %v", errs[0])
	}
	samples := 0
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			samples++
		}
	}
	fmt.Printf("metrics: /metrics lint-clean, %d samples\n", samples)
	return nil
}
