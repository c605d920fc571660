package serve

// End-to-end serving tests over httptest: the restart contract (a second
// boot on the same data directory serves byte-identical quotes without
// recalibrating), and the robustness surface (health/readiness, admission
// shedding, drain, request deadlines).

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testConfig is a small, fast boot: modest support set, two shards.
func testConfig(dir string) Config {
	return Config{
		DataDir:        dir,
		SnapshotEvery:  4,
		Algorithm:      "LPIP",
		SupportSize:    60,
		Shards:         2,
		Seed:           7,
		ValK:           100,
		RequestTimeout: 10 * time.Second,
		MaxInflight:    8,
	}
}

// The doc-comment example query and update, used verbatim.
const (
	countryQuery = `{"Name":"q","Tables":["Country"],` +
		`"Where":[{"Col":{"Table":"Country","Col":"Continent"},"Op":0,"Val":{"K":3,"S":"Asia"}}],` +
		`"Select":[{"Table":"Country","Col":"Name"}]}`
	countryUpdate = `[{"Table":"Country","Row":3,"Col":2,"New":{"K":3,"S":"Europe"}}]`
)

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestRestartServesIdenticalQuotes is the restart contract end to end: a
// server takes an update and a purchase, shuts down cleanly, and its
// successor on the same directory reports restored=true and returns the
// byte-identical quote response at the same version.
func TestRestartServesIdenticalQuotes(t *testing.T) {
	dir := t.TempDir()

	s1, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Routes())

	if code, body := post(t, ts1.URL+"/update", countryUpdate); code != http.StatusOK {
		t.Fatalf("update: %d %s", code, body)
	}
	if code, body := post(t, ts1.URL+"/purchase?budget=1e18", countryQuery); code != http.StatusOK {
		t.Fatalf("purchase: %d %s", code, body)
	}
	code, want := post(t, ts1.URL+"/quote", countryQuery)
	if code != http.StatusOK {
		t.Fatalf("quote: %d %s", code, want)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.Restored() {
		t.Fatal("second boot did not restore from the data directory")
	}
	ts2 := httptest.NewServer(s2.Routes())
	defer ts2.Close()

	code, got := post(t, ts2.URL+"/quote", countryQuery)
	if code != http.StatusOK {
		t.Fatalf("restored quote: %d %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restored quote differs:\n  before restart: %s\n  after restart:  %s", want, got)
	}

	code, stats := get(t, ts2.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, stats)
	}
	var st struct {
		Version  uint64 `json:"version"`
		Sales    int    `json:"sales"`
		Restored bool   `json:"restored"`
	}
	if err := json.Unmarshal(stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.Version != 1 || st.Sales != 1 || !st.Restored {
		t.Fatalf("restored stats: version %d sales %d restored %v, want 1, 1, true", st.Version, st.Sales, st.Restored)
	}
}

// TestServingPolicy exercises the robustness surface on one in-memory
// boot: health/readiness, admission shedding at the concurrency bound,
// drain semantics, and the per-request deadline.
func TestServingPolicy(t *testing.T) {
	cfg := testConfig("") // in-memory: the policy layer is disk-independent
	cfg.MaxInflight = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Routes())
	defer ts.Close()

	t.Run("healthy-and-ready", func(t *testing.T) {
		if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK {
			t.Fatalf("healthz: %d %s", code, body)
		}
		if code, body := get(t, ts.URL+"/readyz"); code != http.StatusOK {
			t.Fatalf("readyz: %d %s", code, body)
		}
	})

	t.Run("sheds-at-concurrency-bound", func(t *testing.T) {
		// Occupy every admission token, as saturating traffic would.
		s.sem <- struct{}{}
		s.sem <- struct{}{}
		defer func() { <-s.sem; <-s.sem }()

		resp, err := http.Post(ts.URL+"/quote", "application/json", strings.NewReader(countryQuery))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated quote: %d, want 429", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("shed response missing Retry-After")
		}
		if code, _ := post(t, ts.URL+"/update", countryUpdate); code != http.StatusServiceUnavailable {
			t.Fatalf("saturated update: %d, want 503", code)
		}
		if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
			t.Fatalf("saturated readyz: %d, want 503", code)
		}

		// The refusals above must be accounted as shed, not errors.
		var buf strings.Builder
		if err := s.Metrics().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			`marketd_http_shed_total{route="/quote",code="429"} 1`,
			`marketd_http_shed_total{route="/update",code="503"} 1`,
		} {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("metrics missing %q", want)
			}
		}
	})

	t.Run("deadline-propagates-into-batch", func(t *testing.T) {
		s.cfg.RequestTimeout = time.Nanosecond
		defer func() { s.cfg.RequestTimeout = 10 * time.Second }()
		code, body := post(t, ts.URL+"/quote/batch", "["+countryQuery+"]")
		if code != http.StatusServiceUnavailable {
			t.Fatalf("expired batch quote: %d %s, want 503", code, body)
		}
	})

	t.Run("drain", func(t *testing.T) {
		// Last: draining is one-way for a server instance.
		s.BeginDrain()
		if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
			t.Fatalf("draining healthz: %d, want 200 (process is alive)", code)
		}
		if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
			t.Fatalf("draining readyz: %d, want 503", code)
		}
		code, _, hdr := postHdr(t, ts.URL+"/update", countryUpdate)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("draining update: %d, want 503", code)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatal("draining refusal missing Retry-After (must classify as shed)")
		}
		// Reads keep serving while the drain runs its course.
		if code, body := post(t, ts.URL+"/quote", countryQuery); code != http.StatusOK {
			t.Fatalf("draining quote: %d %s", code, body)
		}
	})
}

func postHdr(t *testing.T, url, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

// TestPurchaseRejectsNaNBudget: strconv.ParseFloat accepts "NaN", and a
// NaN budget compares false with every price, so it must be refused at
// the wire as a malformed request rather than reach the budget check.
func TestPurchaseRejectsNaNBudget(t *testing.T) {
	s, err := New(testConfig("")) // in-memory: only request validation is under test
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Routes())
	defer ts.Close()

	for _, budget := range []string{"NaN", "nan", "-NaN"} {
		if code, body := post(t, ts.URL+"/purchase?budget="+budget, countryQuery); code != http.StatusBadRequest {
			t.Errorf("budget=%s: %d %s, want 400", budget, code, body)
		}
	}
	code, stats := get(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, stats)
	}
	var st struct {
		Sales int `json:"sales"`
	}
	if err := json.Unmarshal(stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.Sales != 0 {
		t.Fatalf("sales = %d after NaN-budget purchases, want 0", st.Sales)
	}
}
