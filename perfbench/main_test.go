package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

func durs(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(n-i) * time.Millisecond // unsorted on purpose
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if p, ok := percentile(durs(1000), 0.99); !ok || p.Value != 990*time.Millisecond || p.N != 1000 {
		t.Fatalf("p99 of 1000: %+v %v, want 990ms with ten beyond", p, ok)
	}
	if _, ok := percentile(durs(999), 0.99); ok {
		t.Fatal("p99 of 999 samples has only nine beyond it")
	}
	if p, ok := highestTail(durs(500)); !ok || p.Level != 0.95 {
		t.Fatalf("highest tail of 500: %+v, want p95", p)
	}
	if p, ok := highestTail(durs(150)); !ok || p.Level != 0.90 {
		t.Fatalf("highest tail of 150: %+v, want p90", p)
	}
	if _, ok := highestTail(durs(15)); ok {
		t.Fatal("15 samples support no percentile with ten beyond")
	}
}

func TestSLORateStopsAtFirstFailure(t *testing.T) {
	l := limits{Quote: 10 * time.Millisecond, Update: 20 * time.Millisecond, FailedShare: 0.01}
	ok := func(rate float64) rung {
		return rung{Rate: rate, QuoteTail: pct{N: 100, Value: 5 * time.Millisecond}, UpdateTail: pct{N: 100, Value: 5 * time.Millisecond}}
	}
	slow, failing := ok(300), ok(400)
	slow.UpdateTail.Value = 30 * time.Millisecond
	failing.FailedShare = 0.02
	grown := func(rate, growth float64) rung {
		r := ok(rate)
		r.Backlog, r.LagGrowth = true, growth
		return r
	}
	cases := []struct {
		rungs []rung
		want  float64
	}{
		{[]rung{ok(100), ok(200), ok(300)}, 300},
		{[]rung{ok(100), ok(200), slow, ok(400)}, 200},
		{[]rung{ok(100), failing}, 100},
		{[]rung{ok(100), ok(200), grown(500, 0.25)}, 400}, // 500 offered, 400 completed
		{[]rung{ok(100), ok(200), grown(500, 2)}, 200},    // implied capacity below the last pass
		{[]rung{grown(100, 0.5), ok(200)}, 100 / 1.5},
		{[]rung{slow, ok(400)}, 300 * 20.0 / 30}, // first rung over its update limit
		{[]rung{failing, ok(500)}, 0},
		{[]rung{{Rate: 100}, ok(200)}, 0}, // no samples fails
	}
	for i, c := range cases {
		if got := sloRate(c.rungs, l); got != c.want {
			t.Errorf("case %d: slo rate %v, want %v", i, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent
		{Name: "d", Start: 35, End: 38, Parent: 1},  // nested under a
		{Name: "other", Start: 0, End: 5, Parent: -1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 3, 30, 30, 3, 5}
	if !slices.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	if d := diffUs(map[int32]int64{1: 5000, 2: 7000, 3: 1}, map[int32]int64{1: 1000, 2: 3000}); d != 4 {
		t.Fatalf("mean rung difference %v us, want 4", d)
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	var workloads []string
	for n := range specs {
		workloads = append(workloads, n)
	}
	sort.Strings(workloads)
	got := names(b.Workloads)
	sort.Strings(got)
	if !slices.Equal(got, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", got, workloads)
	}
	if got := names(b.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v,\nbenchmark reports %v", got, endToEnd)
	}
	if got := names(b.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v,\nbenchmark reports %v", got, perLayer)
	}
}

// TestSmokeRuns runs every workload at smoke size, untraced and traced,
// and requires every declared metric and every output check.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs boot servers")
	}
	// Smoke-sized runs are too short for ten samples beyond each
	// percentile; that rule has its own test above.
	defer func(n int) { minBeyond = n }(minBeyond)
	minBeyond = 1
	for _, name := range []string{"serve-read", "serve-churn"} {
		s := *specs[name]
		s.Support, s.Rate, s.Ladder = 200, 200, []float64{250}
		s.QuoteTail, s.UpdateTail = 0.9, 0.5
		s.Warmup, s.Replay = time.Second, 120
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 3, seconds: 3, trace: trace, workdir: t.TempDir()}
			rep, err := run(&s, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if len(rep.failures) > 0 {
				t.Fatalf("%s trace=%v: failed checks %v\n%v", name, trace, rep.failures, rep.notes)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if err := emit(io.Discard, rep, want); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if rep.attempted == 0 {
				t.Fatalf("%s trace=%v: nothing attempted", name, trace)
			}
		}
	}
}
