// Command perfbench is the repository's benchmark. It runs one serving
// workload against the durable in-process server over loopback HTTP,
// then the offline calibration leg, checks the outputs, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: the end-to-end metrics of an untraced run (--trace 0), or
// the per-layer metrics of a traced run (--trace 1), which replays the
// workload's request sequence down a ladder of layers with spans around
// each call. See NOTES.md for the workloads, metrics and layers.
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, output checks and notes.
type report struct {
	metrics   map[string]metric
	notes     []string
	failures  []string
	attempted int
	failed    int
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) value(name string) float64 { return r.metrics[name].Value }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records an output check; a failed one fails the run.
func (r *report) check(name string, ok bool, format string, args ...any) {
	status := "ok"
	if !ok {
		status = "FAILED"
		r.failures = append(r.failures, name)
	}
	r.note("check %s: %s (%s)", name, status, fmt.Sprintf(format, args...))
}

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in its
// order; TestBenchmarkJSONMatches keeps the two in step. The gated
// end-to-end metrics are the ones that stay steady on a host whose CPU
// is shared: CPU time rather than wall time, live heap, and revenue.
// The client-side latencies follow the host's CPU steal too closely to
// gate (NOTES.md); traced runs record them with the layers.
var endToEnd = []string{
	"setup_s", "cpu_per_req_us", "recover_cpu_s", "calibrate_cpu_s", "heap_mb", "revenue_norm",
}

var perLayer = func() []string {
	out := []string{
		"quote_p50_ms", "quote_tail_ms", "batch_p50_ms", "purchase_p50_ms",
		"update_p50_ms", "update_tail_ms", "failed_ppm", "setup_wall_s",
		"recover_s", "calibrate_s",
		"loadgen.lag_p50_us", "loadgen.lag_p99_us", "loadgen.late_share",
		"serve.quote_self_us", "serve.update_self_us", "serve.shed_share",
		"store.append_us", "store.fsync_per_update", "store.wal_bytes_per_update",
		"store.snapshot_ms", "store.snapshots", "store.load_ms",
		"market.quote_us", "market.quote_self_us", "market.conflict_hit_ratio",
		"market.batch_us", "market.purchase_us", "market.update_us",
		"market.update_self_us", "market.compact_ms", "market.epochs", "market.drain_ms",
		"market.slots_per_row",
		"support.conflictset_us", "support.advance_us", "support.plans_rebased",
		"support.plans_invalidated", "support.compact_ms", "support.generate_s",
		"support.build_s", "support.pruned_share", "support.fallback_share",
		"plan.fetch_us", "plan.hit_share", "plan.fold_share", "plan.compile_share",
		"plan.stale_plans", "plan.pending_batches", "plan.remap_carried_share",
		"relational.normalize_us", "relational.apply_us", "relational.compact_ms",
		"relational.eval_us", "pricing.price_us", "valuation.apply_ms",
	}
	for _, alg := range roster {
		out = append(out, "engine.price_s."+alg)
	}
	return append(out, "trace.overhead_share")
}()

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: serve-read | serve-churn")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 30, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: print the per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for data directories and span files")
	flag.Parse()
	o.trace = traceFlag == 1
	s, ok := specs[o.workload]
	if !ok || o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds (workloads: serve-read, serve-churn)\n", o.workload)
		os.Exit(2)
	}
	rep, err := run(s, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	if err := emit(os.Stdout, rep, names); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if len(rep.failures) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: output checks failed: %s\n", strings.Join(rep.failures, ", "))
		os.Exit(1)
	}
}

// calPasses is how many times a run repeats the calibration leg.
const calPasses = 3

// run executes one workload in a private work directory.
func run(s *spec, o options) (*report, error) {
	runtime.GOMAXPROCS(lanes)
	log.SetOutput(io.Discard) // the server logs each boot and recovery
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.workdir = dir
	rep := newReport()
	rep.note("workload %s, seed %d, %ds timed at %.0f req/s, GOMAXPROCS = shards = lanes = connections = %d",
		s.Name, o.seed, o.seconds, s.Rate, lanes)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// The calibration leg runs calPasses times, once before the serving
	// phase and the rest after it; calibrate_s is the median pass.
	var fits, cpus, norms []float64
	calibrate := func(t *tracer) error {
		runtime.GC()
		fit, cpu, norm, err := calibratePass(o, rep, t, len(fits) == 0)
		cpus = append(cpus, cpu.Seconds())
		fits, norms = append(fits, fit.Seconds()), append(norms, norm)
		return err
	}
	if err := calibrate(tr); err != nil {
		return nil, err
	}
	runtime.GC()
	if err := runServing(s, o, rep, tr); err != nil {
		return nil, err
	}
	for len(fits) < calPasses {
		if err := calibrate(nil); err != nil {
			return nil, err
		}
	}
	rep.set("calibrate_s", median(fits), "s")
	rep.set("calibrate_cpu_s", median(cpus), "s")
	rep.set("revenue_norm", norms[0], "share")
	rep.check("revenue identical on every calibration pass", slices.Min(norms) == slices.Max(norms), "%v", norms)
	rep.note("calibration passes: wall %.3f s, CPU %.3f s", fits, cpus)
	if tr != nil {
		path := filepath.Join(filepath.Dir(dir), fmt.Sprintf("spans-%s-%d.jsonl", s.Name, o.seed))
		if err := writeSpans(path, tr.spans); err != nil {
			return nil, err
		}
		rep.note("%d spans written to %s", len(tr.spans), path)
	}
	return rep, nil
}

// emit prints the notes and every metric, then the result line with the
// named metrics.
func emit(w io.Writer, rep *report, names []string) error {
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	all := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		all = append(all, n)
	}
	sort.Strings(all)
	for _, n := range all {
		fmt.Fprintf(w, "metric %-32s %14.6g %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	out := map[string]metric{}
	for _, n := range names {
		m, ok := rep.metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = m
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(rep.failures) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
