package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
var minBeyond = 10

// pct is one reported percentile: its level, value and the sample count
// it was taken from.
type pct struct {
	Level float64
	Value time.Duration
	N     int
}

// beyond returns how many of n samples rank above the level-quantile
// under the nearest-rank definition.
func beyond(n int, level float64) int {
	return n - int(math.Ceil(level*float64(n)))
}

// quantileOf returns the nearest-rank level-quantile of sorted samples.
func quantileOf(sorted []time.Duration, level float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(level*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// percentile returns the level-quantile of the samples when at least
// minBeyond samples lie above it; ok is false otherwise.
func percentile(samples []time.Duration, level float64) (p pct, ok bool) {
	if beyond(len(samples), level) < minBeyond {
		return pct{Level: level, N: len(samples)}, false
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return pct{Level: level, Value: quantileOf(s, level), N: len(s)}, true
}

// tailLevels are the levels highestTail tries, highest first.
var tailLevels = []float64{0.99, 0.95, 0.90, 0.50}

// highestTail returns the highest of tailLevels that has at least
// minBeyond samples above it; ok is false when even the median has not.
func highestTail(samples []time.Duration) (pct, bool) {
	for _, l := range tailLevels {
		if p, ok := percentile(samples, l); ok {
			return p, true
		}
	}
	return pct{N: len(samples)}, false
}

// rung is one step of the rate ladder: what the run at that offered
// rate showed against the workload's limits.
type rung struct {
	Rate        float64
	QuoteTail   pct
	UpdateTail  pct
	FailedShare float64
	Backlog     bool
	// LagGrowth is how many seconds of send lag the generator gained per
	// second of the run.
	LagGrowth float64
}

// limits are a workload's service-level limits for the ladder.
type limits struct {
	Quote, Update time.Duration
	FailedShare   float64
}

// pass reports whether the rung met every limit: both tails within
// their limit (a tail without enough samples fails), at most the failed
// share, and no growing backlog.
func (r rung) pass(l limits) bool {
	return r.QuoteTail.N > 0 && r.QuoteTail.Value <= l.Quote &&
		r.UpdateTail.N > 0 && r.UpdateTail.Value <= l.Update &&
		r.FailedShare <= l.FailedShare && !r.Backlog
}

// sloRate returns the highest rate of an ascending ladder up to which
// every rung passed, so one lucky rung above a failure does not count.
// When the first failing rung failed on a growing backlog, the rate is
// refined toward it by the capacity the backlog implies: offered R
// against capacity C grows the lag by (R−C)/C seconds per second, so
// C = R/(1+growth). This keeps the ladder's step size out of the result.
// When the first rung itself fails on its tails alone, the rate is that
// rung's scaled down by the factor its worst tail exceeds its limit,
// which stays comparable between runs where a fixed 0 would not. A rung
// that fails more than the allowed share of requests ends the ladder
// unrefined (0 when it is the first).
func sloRate(rungs []rung, l limits) float64 {
	best := 0.0
	for _, r := range rungs {
		switch {
		case r.pass(l):
			best = r.Rate
			continue
		case r.FailedShare > l.FailedShare || r.QuoteTail.N == 0 || r.UpdateTail.N == 0:
		case r.Backlog:
			best = max(best, r.Rate/(1+r.LagGrowth))
		case best == 0:
			best = r.Rate * min(float64(l.Quote)/float64(r.QuoteTail.Value), float64(l.Update)/float64(r.UpdateTail.Value))
		}
		break
	}
	return best
}

// median returns the median of xs (mean of the middle two for an even
// count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// meanUs returns the mean of ds in microseconds; 0 for none.
func meanUs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / 1e3
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
