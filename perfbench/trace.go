package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer: its name, its
// interval in nanoseconds since the tracer's start, the span that caused
// it (-1 for none) and the request it served (-1 for none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
}

// tracer keeps spans in memory until the run writes them out. The traced
// replay has a single caller, so it needs no locking. A nil tracer
// records nothing, which is how the untraced replay runs the same code.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, req int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.base)), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

// end closes the span begin returned.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.base))
}

// call runs fn inside a span.
func (t *tracer) call(name string, parent, req int32, fn func()) {
	i := t.begin(name, parent, req)
	fn()
	t.end(i)
}

// spanSince records a top-level span that started at start and ends now.
func (t *tracer) spanSince(name string, start time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.base)), End: int64(time.Since(t.base)), Parent: -1, Req: -1})
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Overlapping children are merged first, and
// children are clipped to the parent, so concurrent children are not
// subtracted twice.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(kids[int32(i)]))
		for _, k := range kids[int32(i)] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, curLo, curHi := int64(0), int64(-1), int64(-1)
		for _, iv := range ivs {
			if iv[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			} else if iv[1] > curHi {
				curHi = iv[1]
			}
		}
		covered += curHi - curLo
		out[i] = s.dur() - covered
	}
	return out
}

// byReq sums, per request id, the durations of the spans with any of
// the given names.
func byReq(spans []span, names ...string) map[int32]int64 {
	out := map[int32]int64{}
	for _, s := range spans {
		if s.Req >= 0 && slices.Contains(names, s.Name) {
			out[s.Req] += s.dur()
		}
	}
	return out
}

// diffUs returns the mean over requests of outer − inner in
// microseconds: the self time of the layer between two rungs.
func diffUs(outer, inner map[int32]int64) float64 {
	n, sum := 0, int64(0)
	for req, o := range outer {
		if in, ok := inner[req]; ok {
			sum += o - in
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// meanSpanUs returns the mean duration of the spans with one name in
// microseconds, and their count.
func meanSpanUs(spans []span, name string) (float64, int) {
	n, sum := 0, int64(0)
	for _, s := range spans {
		if s.Name == name {
			sum += s.dur()
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(sum) / float64(n) / 1e3, n
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
