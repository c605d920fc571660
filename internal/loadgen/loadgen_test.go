package loadgen

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"querypricing/internal/datagen"
	"querypricing/internal/relational"
	"querypricing/internal/workloads"
)

func TestHistQuantiles(t *testing.T) {
	var h Hist
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	// Buckets are ~9% wide, so quantiles land within ~10% of truth.
	checks := []struct {
		q    float64
		want time.Duration
	}{{0.50, 500 * time.Millisecond}, {0.90, 900 * time.Millisecond}, {0.99, 990 * time.Millisecond}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		lo, hi := c.want*85/100, c.want*115/100
		if got < lo || got > hi {
			t.Errorf("Quantile(%g) = %v, want within [%v, %v]", c.q, got, lo, hi)
		}
	}
	if h.Max() != time.Second || h.Min() != time.Millisecond {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	if h.Quantile(1) > h.Max() {
		t.Errorf("p100 %v exceeds max %v", h.Quantile(1), h.Max())
	}
}

func TestHistMergeMatchesCombined(t *testing.T) {
	var a, b, all Hist
	for i := 1; i <= 100; i++ {
		d := time.Duration(i*i) * time.Microsecond
		all.Observe(d)
		if i%2 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
	}
	a.Merge(&b)
	if a.Count() != all.Count() || a.Max() != all.Max() || a.Min() != all.Min() {
		t.Fatal("merge lost observations")
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Errorf("Quantile(%g): merged %v != combined %v", q, a.Quantile(q), all.Quantile(q))
		}
	}
}

func TestHistEmpty(t *testing.T) {
	var h Hist
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty hist must read as zeros")
	}
}

// TestDeterministicSequence: the (class, body) sequence is a pure
// function of the seed — independent of worker count and timing.
func TestDeterministicSequence(t *testing.T) {
	thresholds := [4]float64{0.85, 0.90, 0.95, 1.0}
	seq := func(seed int64) string {
		s := ""
		for k := 0; k < 200; k++ {
			s += string(classOf(thresholds, seed, k)[0])
		}
		return s
	}
	if seq(1) != seq(1) {
		t.Fatal("same seed produced different sequences")
	}
	if seq(1) == seq(2) {
		t.Fatal("different seeds produced identical sequences")
	}
	counts := map[Class]int{}
	for k := 0; k < 10000; k++ {
		counts[classOf(thresholds, 1, k)]++
	}
	if q := counts[ClassQuote]; q < 8200 || q > 8800 {
		t.Errorf("quote share %d/10000, want ≈8500", q)
	}
}

// stubServer fakes marketd's endpoints with counters, returning a
// rising version for quotes and shedding every shedEvery-th request.
type stubServer struct {
	version   atomic.Uint64
	total     atomic.Uint64
	shedEvery uint64

	mu     sync.Mutex
	byPath map[string]int
}

func (s *stubServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := s.total.Add(1)
	s.mu.Lock()
	if s.byPath == nil {
		s.byPath = map[string]int{}
	}
	s.byPath[r.URL.Path]++
	s.mu.Unlock()
	if s.shedEvery > 0 && n%s.shedEvery == 0 {
		w.Header().Set("Retry-After", "1")
		if r.URL.Path == "/quote" || r.URL.Path == "/quote/batch" {
			w.WriteHeader(http.StatusTooManyRequests)
		} else {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		return
	}
	switch r.URL.Path {
	case "/quote":
		fmt.Fprintf(w, `{"Version": %d}`, s.version.Add(1))
	default:
		fmt.Fprint(w, `{}`)
	}
}

func testWorkload() Workload {
	body := []byte(`{"Name":"q"}`)
	return Workload{
		Quotes:    [][]byte{body},
		Batches:   [][]byte{[]byte(`[{"Name":"q"}]`)},
		Updates:   [][]byte{[]byte(`[]`)},
		Purchases: [][]byte{body},
		Budget:    1e18,
	}
}

func TestRunAgainstStub(t *testing.T) {
	stub := &stubServer{shedEvery: 10}
	srv := httptest.NewServer(stub)
	defer srv.Close()

	res, err := Run(Config{
		BaseURL:  srv.URL,
		Rate:     400,
		Duration: 500 * time.Millisecond,
		Seed:     42,
		Workers:  8,
	}, testWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.TotalSent(), int(stub.total.Load()); got != want {
		t.Fatalf("client sent %d, server saw %d", got, want)
	}
	totalShed, totalOK := 0, 0
	for _, c := range Classes {
		cr := res.Class(c)
		if cr.Sent > 0 && cr.OK+cr.Shed+cr.Errors != cr.Sent {
			t.Errorf("%s: ok+shed+err = %d, sent = %d", c, cr.OK+cr.Shed+cr.Errors, cr.Sent)
		}
		totalShed += cr.Shed
		totalOK += cr.OK
	}
	if want := res.TotalSent() / 10; totalShed != want {
		t.Errorf("shed = %d, want %d (every 10th request)", totalShed, want)
	}
	if res.NonShedErrors() != 0 {
		t.Errorf("non-shed errors = %d, want 0:\n%s", res.NonShedErrors(), res)
	}
	if res.VersionRegressions != 0 {
		t.Errorf("version regressions = %d", res.VersionRegressions)
	}
	if res.MaxVersion == 0 {
		t.Error("no versions observed from quote responses")
	}
	if res.Class(ClassQuote).Latency.Count() == 0 {
		t.Error("quote latency histogram is empty")
	}
	codes, counts := res.StatusCounts()
	sum := 0
	for _, n := range counts {
		sum += n
	}
	if sum != res.TotalSent() {
		t.Errorf("status counts sum %d != sent %d (codes %v)", sum, res.TotalSent(), codes)
	}
}

// TestRunSameSeedSameRequests: two runs with the same seed hit the
// server with the identical per-path request counts.
func TestRunSameSeedSameRequests(t *testing.T) {
	counts := func() map[string]int {
		stub := &stubServer{}
		srv := httptest.NewServer(stub)
		defer srv.Close()
		_, err := Run(Config{
			BaseURL:  srv.URL,
			Rate:     500,
			Duration: 300 * time.Millisecond,
			Seed:     7,
			Workers:  4,
		}, testWorkload())
		if err != nil {
			t.Fatal(err)
		}
		return stub.byPath
	}
	a, b := counts(), counts()
	if len(a) == 0 {
		t.Fatal("no requests issued")
	}
	for path, n := range a {
		if b[path] != n {
			t.Errorf("path %s: run A %d requests, run B %d", path, n, b[path])
		}
	}
}

func TestRunConfigValidation(t *testing.T) {
	w := testWorkload()
	if _, err := Run(Config{BaseURL: "http://x", Rate: 0, Duration: time.Second}, w); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := Run(Config{BaseURL: "http://x", Rate: 1, Duration: 0}, w); err == nil {
		t.Error("zero duration accepted")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		mix := Mix{Quote: bad, Batch: 0.05}
		if _, err := Run(Config{BaseURL: "http://127.0.0.1:1", Rate: 1, Duration: time.Second, Mix: mix}, w); err == nil {
			t.Errorf("mix weight %g accepted", bad)
		}
	}
	empty := Workload{Quotes: [][]byte{[]byte(`{}`)}}
	if _, err := Run(Config{BaseURL: "http://x", Rate: 1, Duration: time.Second}, empty); err == nil {
		t.Error("empty pool for weighted class accepted")
	}
}

func TestSLOLinesFormat(t *testing.T) {
	res := &Result{Offered: 100, Elapsed: time.Second, Classes: map[Class]*ClassResult{}}
	cr := &ClassResult{Sent: 100, OK: 99, Errors: 1, Status: map[int]int{200: 99, 500: 1}}
	for i := 0; i < 100; i++ {
		cr.Latency.Observe(time.Millisecond)
	}
	res.Classes[ClassQuote] = cr
	out := res.SLOLines("load")
	for _, want := range []string{
		"Benchmarkslo_load/quote_p50 1 ",
		"Benchmarkslo_load/quote_p99 1 ",
		"Benchmarkslo_load/quote_err_ppm 1 10000 ns/op",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SLO lines missing %q:\n%s", want, out)
		}
	}
}

// TestNewWorkloadIngestBodies: IngestFraction controls how many update
// bodies are row-insert batches, and every generated body — ingest or
// cell-flip — is valid against the source database.
func TestNewWorkloadIngestBodies(t *testing.T) {
	db := datagen.World(datagen.WorldConfig{Countries: 20, Cities: 40, Seed: 3})
	queries := workloads.Skewed(db)[:4]

	for _, frac := range []float64{0, 1} {
		w, err := NewWorkload(db, queries, WorkloadConfig{Seed: 9, Updates: 32, UpdateBatch: 2, IngestFraction: frac})
		if err != nil {
			t.Fatal(err)
		}
		inserts := 0
		for i, body := range w.Updates {
			var changes []relational.CellChange
			if err := json.Unmarshal(body, &changes); err != nil {
				t.Fatalf("frac=%g: body %d does not decode: %v", frac, i, err)
			}
			if err := db.ValidateChanges(changes); err != nil {
				t.Fatalf("frac=%g: body %d invalid against db: %v", frac, i, err)
			}
			for _, c := range changes {
				if c.Op == relational.OpRowInsert {
					inserts++
					if c.Row != -1 || len(c.Vals) != len(db.Table(c.Table).Schema.Cols) {
						t.Fatalf("frac=%g: malformed insert %+v", frac, c)
					}
				}
			}
		}
		if frac == 0 && inserts != 0 {
			t.Fatalf("cell-only workload generated %d inserts", inserts)
		}
		if frac == 1 && inserts != 2*len(w.Updates) {
			t.Fatalf("ingest workload generated %d inserts, want %d", inserts, 2*len(w.Updates))
		}
	}
}

// TestStreamingIngestMixShape: the ingest mix is update-heavy but still
// majority reads, and normalizes cleanly.
func TestStreamingIngestMixShape(t *testing.T) {
	m := StreamingIngestMix()
	if m.Update < 0.2 || m.Quote <= m.Update {
		t.Fatalf("ingest mix shape off: %s", m.String())
	}
	w := m.weights()
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("ingest mix weights sum to %g", sum)
	}
}
