package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"querypricing/internal/loadgen"
	"querypricing/internal/market"
	qmetrics "querypricing/internal/metrics"
	"querypricing/internal/plan"
	"querypricing/internal/relational"
	"querypricing/internal/serve"
	"querypricing/internal/store"
	"querypricing/internal/workloads"
)

// serverConfig is the durable in-process server `pricebench -experiment
// load` boots, with the workload's size, shards pinned to nproc and the
// workload's compaction policy.
func serverConfig(s *spec, dir string, seed int64, fs store.FS, drain bool) serve.Config {
	return serve.Config{
		DataDir:          dir,
		FS:               fs,
		SnapshotEvery:    64,
		Algorithm:        "LPIP",
		SupportSize:      s.Support,
		Shards:           lanes,
		Seed:             seed,
		ValK:             100,
		BackgroundDrain:  drain,
		RequestTimeout:   10 * time.Second,
		MaxInflight:      256,
		CompactThreshold: s.CompactAt,
		CompactMinRows:   64,
	}
}

// marketConfig is the broker configuration serve.New restores with,
// without the background drainer: the traced replay drains explicitly.
func marketConfig(seed int64) market.Config {
	return market.Config{Shards: lanes, Seed: seed, LPIPCandidates: 16, CIPEpsilon: 0.5}
}

// quoteQueries returns the workload's quote pool over db.
func quoteQueries(s *spec, db *relational.Database) []*relational.SelectQuery {
	qs := workloads.Skewed(db)
	if !s.WideQuotePool {
		return qs[:200]
	}
	return append(qs, workloads.Uniform(db, 1000)...)
}

// distinctKeys counts the pool's distinct canonical queries: the
// entries it occupies in the conflict and plan caches.
func distinctKeys(qs []*relational.SelectQuery) int {
	seen := map[string]bool{}
	for _, q := range qs {
		seen[plan.Key(q)] = true
	}
	return len(seen)
}

// countFS wraps the store's filesystem to count what the durable write
// path does: WAL bytes and fsyncs, and snapshot writes with their time
// from create to the committing rename.
type countFS struct {
	store.FS
	walBytes, walSyncs, snapshots, snapNs atomic.Int64
	mu                                    sync.Mutex
	snapStart                             map[string]time.Time
}

func newCountFS() *countFS { return &countFS{FS: store.OSFS{}, snapStart: map[string]time.Time{}} }

type countFile struct {
	store.File
	fs  *countFS
	wal bool
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.wal {
		f.fs.walBytes.Add(int64(n))
	}
	return n, err
}

func (f *countFile) Sync() error {
	if f.wal {
		f.fs.walSyncs.Add(1)
	}
	return f.File.Sync()
}

func (c *countFS) OpenAppend(path string) (store.File, error) {
	f, err := c.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c, wal: true}, nil
}

func (c *countFS) Create(path string) (store.File, error) {
	c.mu.Lock()
	c.snapStart[path] = time.Now()
	c.mu.Unlock()
	f, err := c.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) Rename(oldpath, newpath string) error {
	err := c.FS.Rename(oldpath, newpath)
	c.mu.Lock()
	start, ok := c.snapStart[oldpath]
	delete(c.snapStart, oldpath)
	c.mu.Unlock()
	if ok && err == nil {
		c.snapshots.Add(1)
		c.snapNs.Add(int64(time.Since(start)))
	}
	return err
}

type fsCounts struct{ walBytes, walSyncs, snapshots, snapNs int64 }

func (c *countFS) counts() fsCounts {
	return fsCounts{c.walBytes.Load(), c.walSyncs.Load(), c.snapshots.Load(), c.snapNs.Load()}
}

// sampler polls a probe every period until stopped; stop returns the
// samples.
func sampler(period time.Duration, probe func() float64) (stop func() []float64) {
	var out []float64
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			out = append(out, probe())
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() []float64 {
		close(done)
		<-finished
		return out
	}
}

// cpuTime returns the CPU time the process has used, user and system.
// Unlike wall time it does not grow when the host steals the CPU.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap reads the heap the last garbage collection found reachable.
func liveHeap() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

var promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? ([0-9.eE+-]+|NaN|[+-]Inf)$`)

// scrape fetches /metrics, lints it, and parses it into
// family → label block → value.
func scrape(baseURL string) (map[string]map[string]float64, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if errs := qmetrics.Lint(string(data)); len(errs) != 0 {
		return nil, fmt.Errorf("/metrics failed lint: %v", errs[0])
	}
	out := map[string]map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("unparseable /metrics line %q", line)
		}
		v, _ := strconv.ParseFloat(m[3], 64)
		if out[m[1]] == nil {
			out[m[1]] = map[string]float64{}
		}
		out[m[1]][m[2]] = v
	}
	return out, nil
}

// routeSum sums a family's samples whose labels name the route.
func routeSum(fam map[string]float64, route string) float64 {
	sum := 0.0
	for labels, v := range fam {
		if strings.Contains(labels, fmt.Sprintf("route=%q", route)) {
			sum += v
		}
	}
	return sum
}

var classRoute = map[loadgen.Class]string{
	loadgen.ClassQuote:    "/quote",
	loadgen.ClassBatch:    "/quote/batch",
	loadgen.ClassUpdate:   "/update",
	loadgen.ClassPurchase: "/purchase",
}

// copyDir copies a flat data directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// slotsPerRow is physical slots over live rows across all tables.
func slotsPerRow(b *market.Broker) float64 {
	slots, live := 0, 0
	for _, ts := range b.TableStats() {
		slots += ts.Slots
		live += ts.Live
	}
	return float64(slots) / float64(live)
}

// runServing runs one serving workload: set-up, warm-up, the timed
// phase at the nominal rate, the rate ladder (untraced runs), the
// /metrics and recovery checks, and in a traced run the layer-ladder
// replay.
func runServing(s *spec, o options, rep *report, tr *tracer) error {
	// Set-up: boot setupBoots durable servers on fresh directories; the first
	// one serves.
	var (
		srv           *serve.Server
		dir           string
		fsys          *countFS
		boot, bootCPU []float64
	)
	boots, recoveries := setupBoots, recoveryBoots
	if o.trace {
		boots, recoveries = 1, 1
	}
	for i := 0; i < boots; i++ {
		d := filepath.Join(o.workdir, fmt.Sprintf("boot%d", i))
		fs := newCountFS()
		start, cpu0 := time.Now(), cpuTime()
		x, err := serve.New(serverConfig(s, d, o.seed, fs, s.Drain))
		if err != nil {
			return fmt.Errorf("boot: %w", err)
		}
		boot = append(boot, time.Since(start).Seconds())
		bootCPU = append(bootCPU, (cpuTime() - cpu0).Seconds())
		if i == 0 {
			srv, dir, fsys = x, d, fs
			continue
		}
		x.Close()
		os.RemoveAll(d)
	}
	defer os.RemoveAll(dir)
	closed := false
	defer func() {
		if !closed {
			srv.Close()
		}
	}()
	rep.set("setup_s", median(bootCPU), "s")
	rep.set("setup_wall_s", median(boot), "s")
	rep.note("boots: wall %.3f s, CPU %.3f s", boot, bootCPU)
	base := filepath.Join(o.workdir, "base")
	if o.trace {
		if err := copyDir(dir, base); err != nil {
			return err
		}
		defer os.RemoveAll(base)
	}

	ts := httptest.NewServer(srv.Routes())
	defer ts.Close()
	b := srv.Broker()
	db := b.DB()
	queries := quoteQueries(s, db)
	w, err := loadgen.NewWorkload(db, queries, loadgen.WorkloadConfig{Seed: o.seed, IngestFraction: s.Ingest})
	if err != nil {
		return err
	}
	rep.note("sizes: |S| %d, %d live rows, %d quote queries (%d distinct; conflict cache 1024, plan cache 4096 per shard × %d shards), %d update bodies",
		s.Support, rowCount(db), len(queries), distinctKeys(queries), lanes, len(w.Updates))

	var phases []*phase
	run := func(seed int64, rate float64, d time.Duration) (*phase, error) {
		p, err := runOpenLoop(ts.URL, &w, s, seed, rate, d)
		if err == nil {
			phases = append(phases, p)
		}
		return p, err
	}
	if _, err := run(o.seed+1, s.Rate, s.Warmup); err != nil {
		return err
	}

	// The timed phase: windows back-to-back open-loop runs at the nominal
	// rate. Latency metrics are medians over the windows, so a burst of
	// host noise that spoils one window does not move them.
	m0, err := scrape(ts.URL)
	if err != nil {
		return err
	}
	runtime.GC() // heap_mb starts from what the warm server holds
	c0, e0, f0 := b.CacheStats(), b.Compactions(), fsys.counts()
	cpu0 := cpuTime()
	stopStale := sampler(100*time.Millisecond, func() float64 { return float64(b.PlanStats().Stale) })
	stopPending := sampler(100*time.Millisecond, func() float64 { return float64(b.PlanStats().PendingBatches) })
	var (
		wins  []*phase
		peaks []float64 // each window's peak live heap
	)
	winDur := time.Duration(float64(o.seconds) * float64(time.Second) / windows)
	for i := 0; i < windows; i++ {
		stopHeap := sampler(20*time.Millisecond, liveHeap)
		p, err := run(o.seed+100*int64(i), s.Rate, winDur)
		peaks = append(peaks, slices.Max(stopHeap()))
		if err != nil {
			return err
		}
		wins = append(wins, p)
	}
	stale, pending := stopStale(), stopPending()
	cpu := cpuTime() - cpu0
	c1, e1, f1 := b.CacheStats(), b.Compactions(), fsys.counts()
	m1, err := scrape(ts.URL)
	if err != nil {
		return err
	}
	if err := reportTimed(s, rep, wins, peaks, cpu); err != nil {
		return err
	}
	tp := merged(wins)
	rep.set("market.slots_per_row", slotsPerRow(b), "ratio")

	// Per-layer counts from the timed phase.
	res := tp.Res
	ok := func(c loadgen.Class) int { return res.Class(c).OK }
	writes := float64(ok(loadgen.ClassUpdate) + ok(loadgen.ClassPurchase) + int(e1-e0))
	lag := tp.lags()
	lp50, _ := percentile(lag, 0.50)
	lp99, _ := highestTail(lag)
	rep.set("loadgen.lag_p50_us", float64(lp50.Value)/1e3, "us")
	rep.set("loadgen.lag_p99_us", float64(lp99.Value)/1e3, "us")
	rep.note("send lag: p50 %v, p%g %v over %d requests", lp50.Value, lp99.Level*100, lp99.Value, lp99.N)
	rep.set("loadgen.late_share", tp.lateShare(), "share")
	shed := 0
	for _, c := range loadgen.Classes {
		shed += res.Class(c).Shed
	}
	rep.set("serve.shed_share", float64(shed)/float64(res.TotalSent()), "share")
	rep.set("store.fsync_per_update", float64(f1.walSyncs-f0.walSyncs)/writes, "count")
	rep.set("store.wal_bytes_per_update", float64(f1.walBytes-f0.walBytes)/writes, "B")
	rep.set("store.snapshots", float64(f1.snapshots-f0.snapshots), "count")
	if n := f1.snapshots - f0.snapshots; n > 0 {
		rep.set("store.snapshot_ms", float64(f1.snapNs-f0.snapNs)/float64(n)/1e6, "ms")
	} else {
		rep.set("store.snapshot_ms", 0, "ms")
	}
	hits, misses := float64(c1.Hits-c0.Hits), float64(c1.Misses-c0.Misses)
	rep.set("market.conflict_hit_ratio", hits/(hits+misses), "share")
	rep.set("market.epochs", float64(e1-e0), "count")
	rep.set("plan.stale_plans", mean(stale), "count")
	rep.set("plan.pending_batches", mean(pending), "count")
	for _, c := range loadgen.Classes {
		route := classRoute[c]
		dn := routeSum(m1["marketd_http_request_seconds_count"], route) - routeSum(m0["marketd_http_request_seconds_count"], route)
		ds := routeSum(m1["marketd_http_request_seconds_sum"], route) - routeSum(m0["marketd_http_request_seconds_sum"], route)
		cl, _ := percentile(tp.latencies(c), 0.5)
		if dn > 0 {
			rep.note("%-8s server-side mean %.3f ms (/metrics) vs client p50 %.3f ms, mean %.3f ms from due time",
				c, ds/dn*1e3, ms(cl.Value), meanUs(tp.latencies(c))/1e3)
		}
	}
	if ms(lp99.Value) > 0.5*rep.value("quote_p50_ms") {
		rep.note("FLAG: send-lag p%g (%.3f ms) is large next to quote_p50_ms (%.3f ms): the generator, not the server, may set these numbers",
			lp99.Level*100, ms(lp99.Value), rep.value("quote_p50_ms"))
	}

	// The ladder, from the timed phase up, stopping at the first rung
	// that misses a limit.
	if !o.trace {
		rungs := []rung{evalRung(s, wins...)}
		for i, rate := range s.Ladder {
			if !rungs[len(rungs)-1].pass(s.Limits) {
				break
			}
			p, err := run(o.seed+2+int64(i), rate, rungDur)
			if err != nil {
				return err
			}
			rungs = append(rungs, evalRung(s, p))
		}
		for _, r := range rungs {
			rep.note("ladder %5.0f req/s: quote p%g %8.3f ms (n=%d), update p%g %8.3f ms (n=%d), failed %.4f, lag growth %.3f s/s → pass %v",
				r.Rate, r.QuoteTail.Level*100, ms(r.QuoteTail.Value), r.QuoteTail.N,
				r.UpdateTail.Level*100, ms(r.UpdateTail.Value), r.UpdateTail.N, r.FailedShare, r.LagGrowth, r.pass(s.Limits))
		}
		slo := sloRate(rungs, s.Limits)
		rep.set("slo_rate_rps", slo, "req/s")
		if slo < s.Rate {
			rep.note("FLAG: the nominal rate %.0f req/s is above slo_rate_rps %.0f on this run: the host was too slow for the workload's limits", s.Rate, slo)
		}
	}

	// Output checks over every phase run against this server.
	mEnd, err := scrape(ts.URL)
	rep.check("/metrics lint-clean", err == nil, "%v", err)
	if err == nil {
		for _, c := range loadgen.Classes {
			sent, transport := 0, 0
			for _, p := range phases {
				sent += p.Res.Class(c).Sent
				transport += p.Res.Class(c).Status[0]
			}
			got := routeSum(mEnd["marketd_http_requests_total"], classRoute[c])
			rep.check("request counters equal client counts "+string(c), got == float64(sent-transport) && transport == 0,
				"server %v, client %d (%d transport errors)", got, sent, transport)
		}
	}
	nonShed, regress, stale2 := 0, 0, 0
	for _, p := range phases {
		nonShed += p.Res.NonShedErrors()
		regress += p.Res.VersionRegressions
		stale2 += p.Res.TotalStale()
	}
	rep.check("zero non-shed errors", nonShed == 0, "%d", nonShed)
	rep.check("zero version regressions", regress == 0, "%d", regress)
	rep.note("stale-coordinate delete refusals (not failures): %d", stale2)

	// Recovery: boot servers from copies of the live data directory and
	// price a fixed probe set on both.
	probes := queries[:64]
	live := make([]market.Quote, len(probes))
	for i, q := range probes {
		if live[i], err = b.Quote(q); err != nil {
			return err
		}
	}
	var recov, recovCPU []float64
	for i := 0; i < recoveries; i++ {
		d := filepath.Join(o.workdir, fmt.Sprintf("recover%d", i))
		if err := copyDir(dir, d); err != nil {
			return err
		}
		start, cpu0 := time.Now(), cpuTime()
		r, err := serve.New(serverConfig(s, d, o.seed, nil, s.Drain))
		if err != nil {
			return fmt.Errorf("recovery boot: %w", err)
		}
		recov = append(recov, time.Since(start).Seconds())
		recovCPU = append(recovCPU, (cpuTime() - cpu0).Seconds())
		if i == 0 {
			same := r.Restored()
			for j, q := range probes {
				got, err := r.Broker().Quote(q)
				same = same && err == nil && got == live[j]
			}
			rep.check("probe prices identical after recovery", same, "%d probes at version %d", len(probes), live[0].Version)
		}
		r.Close()
		os.RemoveAll(d)
	}
	rep.set("recover_s", median(recov), "s")
	rep.set("recover_cpu_s", median(recovCPU), "s")

	if o.trace {
		d := filepath.Join(o.workdir, "load")
		if err := copyDir(dir, d); err != nil {
			return err
		}
		st, err := store.Open(d)
		if err != nil {
			return err
		}
		start := time.Now()
		_, err = st.Load()
		rep.set("store.load_ms", ms(time.Since(start)), "ms")
		st.Close()
		os.RemoveAll(d)
		if err != nil {
			return err
		}
	}
	ts.Close()
	closed = true
	if err := srv.Close(); err != nil {
		return err
	}
	if o.trace {
		return replayLadder(s, o, base, &w, rep, tr)
	}
	return nil
}

// windows is how many windows the timed phase is split into.
const windows = 3

// reportTimed sets the timed phase's end-to-end metrics: each latency
// metric is the median over the windows of that window's percentile.
func reportTimed(s *spec, rep *report, wins []*phase, peaks []float64, cpu time.Duration) error {
	type want struct {
		name  string
		class loadgen.Class
		level float64
	}
	for _, m := range []want{
		{"quote_p50_ms", loadgen.ClassQuote, 0.50},
		{"quote_tail_ms", loadgen.ClassQuote, s.QuoteTail},
		{"batch_p50_ms", loadgen.ClassBatch, 0.50},
		{"purchase_p50_ms", loadgen.ClassPurchase, 0.50},
		{"update_p50_ms", loadgen.ClassUpdate, 0.50},
		{"update_tail_ms", loadgen.ClassUpdate, s.UpdateTail},
	} {
		var vals []float64
		var ns []int
		for _, w := range wins {
			p, ok := percentile(w.latencies(m.class), m.level)
			if !ok {
				return fmt.Errorf("%s: a window's %d samples leave fewer than %d beyond p%g; lengthen the run", m.name, p.N, minBeyond, m.level*100)
			}
			vals = append(vals, ms(p.Value))
			ns = append(ns, p.N)
		}
		rep.set(m.name, median(vals), "ms")
		rep.note("%s = median over %d windows of p%g of %v %s requests: %.3f ms", m.name, len(wins), m.level*100, ns, m.class, vals)
	}
	mb := make([]float64, len(peaks))
	for i, p := range peaks {
		mb[i] = p / (1 << 20)
	}
	rep.set("heap_mb", median(mb), "MB")
	rep.note("peak live heap per window: %.1f MB", mb)
	tp := merged(wins)
	sent := tp.Res.TotalSent()
	rep.set("cpu_per_req_us", float64(cpu)/float64(sent)/1e3, "us")
	rep.attempted += sent
	rep.failed += tp.failed()
	rep.set("failed_ppm", float64(tp.failed())*1e6/float64(sent), "ppm")
	return nil
}

// merged pools phases into one for counts and pooled distributions.
func merged(ps []*phase) *phase {
	out := &phase{Rate: ps[0].Rate, Interval: ps[0].Interval, Res: &loadgen.Result{Classes: map[loadgen.Class]*loadgen.ClassResult{}}}
	for _, p := range ps {
		out.Reqs = append(out.Reqs, p.Reqs...)
		out.Res.VersionRegressions += p.Res.VersionRegressions
		for c, cr := range p.Res.Classes {
			d := out.Res.Classes[c]
			if d == nil {
				d = &loadgen.ClassResult{Status: map[int]int{}}
				out.Res.Classes[c] = d
			}
			d.Sent += cr.Sent
			d.OK += cr.OK
			d.Shed += cr.Shed
			d.Errors += cr.Errors
			d.Stale += cr.Stale
			for st, n := range cr.Status {
				d.Status[st] += n
			}
		}
	}
	return out
}

// evalRung measures open-loop runs at one rate against the workload's
// limits: tails over the pooled samples, backlog in any run.
func evalRung(s *spec, ps ...*phase) rung {
	p := merged(ps)
	q, _ := highestTail(p.latencies(loadgen.ClassQuote))
	u, _ := highestTail(p.latencies(loadgen.ClassUpdate))
	r := rung{
		Rate:        p.Rate,
		QuoteTail:   q,
		UpdateTail:  u,
		FailedShare: float64(p.failed()) / float64(p.Res.TotalSent()),
	}
	for _, x := range ps {
		r.LagGrowth = max(r.LagGrowth, x.lagGrowth())
	}
	r.Backlog = r.LagGrowth > maxLagGrowth
	return r
}

// maxLagGrowth is the send-lag growth (seconds per second) above which a
// run counts as a growing backlog: offered load more than 2% above what
// the server completes.
const maxLagGrowth = 0.02
