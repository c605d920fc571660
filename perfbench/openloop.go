package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"querypricing/internal/loadgen"
)

// The open-loop generator is loadgen.Run. The benchmark wraps its HTTP
// client transport to record, for every request, the goroutine (lane)
// that sent it, when it was sent, when its response body was closed,
// its route, status and a hash of its body. The lane is then identified
// by matching the goroutine's request sequence against the seeded
// arrival sequence, which gives each request its arrival index k and so
// its due time: latency is timed from the due time, and send lag is
// send time minus due time.

// reqRec is one request as the transport saw it. Times are nanoseconds
// since the run's t0. Statuses are loadgen's to count.
type reqRec struct {
	g          uint64
	send, done int64
	path       string
	hash       uint64
}

// recorder is the wrapping transport.
type recorder struct {
	inner http.RoundTripper
	t0    time.Time
	mu    sync.Mutex
	recs  []*reqRec
}

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := &reqRec{g: goid(), send: int64(time.Since(r.t0)), path: req.URL.Path}
	if req.GetBody != nil {
		if b, err := req.GetBody(); err == nil {
			rec.hash = hashReader(b)
		}
	}
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
	resp, err := r.inner.RoundTrip(req)
	if err != nil {
		rec.done = int64(time.Since(r.t0))
		return nil, err
	}
	resp.Body = &doneBody{ReadCloser: resp.Body, rec: rec, t0: r.t0}
	return resp, nil
}

// doneBody stamps the request's completion when loadgen closes the
// response body, after reading it in full.
type doneBody struct {
	io.ReadCloser
	rec *reqRec
	t0  time.Time
}

func (b *doneBody) Close() error {
	if b.rec.done == 0 {
		b.rec.done = int64(time.Since(b.t0))
	}
	return b.ReadCloser.Close()
}

// goid returns the calling goroutine's id. Each loadgen lane is one
// goroutine that sends its arrivals in order, and http.Client calls
// the transport on the caller's goroutine.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

func hashReader(r io.Reader) uint64 {
	h := fnv.New64a()
	io.Copy(h, r)
	return h.Sum64()
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// The arrival sequence: these mirror loadgen's (seed, k) → class, body
// and delete-draw functions, so the benchmark can name the due time of
// every request the generator sent and replay the same sequence in the
// traced run. attribute fails the run if they ever disagree.

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func mixThresholds(m loadgen.Mix) [4]float64 {
	w := [4]float64{m.Quote, m.Batch, m.Update, m.Purchase}
	total := w[0] + w[1] + w[2] + w[3]
	var th [4]float64
	cum := 0.0
	for i := range w {
		cum += w[i] / total
		th[i] = cum
	}
	return th
}

func classOf(th [4]float64, seed int64, k int) loadgen.Class {
	u := float64(splitmix64(uint64(seed)^uint64(k)*0x9e3779b97f4a7c15)>>11) / (1 << 53)
	for i, c := range loadgen.Classes {
		if u < th[i] {
			return c
		}
	}
	return loadgen.Classes[len(loadgen.Classes)-1]
}

func bodyIndex(n int, seed int64, k int) int {
	return int(splitmix64(uint64(seed)*0x2545f4914f6cdd1d+uint64(k)) % uint64(n))
}

func deleteDraw(seed int64, k int) float64 {
	return float64(splitmix64(uint64(seed)*0x9e3779b97f4a7c15+uint64(k)*0xda942042e4dd58b5)>>11) / (1 << 53)
}

// arrival is arrival k of a seeded run: its class, the pooled body it
// carries, and whether it may be sent as a row delete instead.
type arrival struct {
	class     loadgen.Class
	body      []byte
	mayDelete bool
}

func pool(w *loadgen.Workload, c loadgen.Class) [][]byte {
	switch c {
	case loadgen.ClassQuote:
		return w.Quotes
	case loadgen.ClassBatch:
		return w.Batches
	case loadgen.ClassUpdate:
		return w.Updates
	default:
		return w.Purchases
	}
}

func arrivalAt(w *loadgen.Workload, cfg loadgen.Config, th [4]float64, k int) arrival {
	c := classOf(th, cfg.Seed, k)
	p := pool(w, c)
	return arrival{
		class:     c,
		body:      p[bodyIndex(len(p), cfg.Seed+int64(len(c)), k)],
		mayDelete: c == loadgen.ClassUpdate && deleteDraw(cfg.Seed, k) < cfg.DeleteFraction,
	}
}

var routeClass = map[string]loadgen.Class{
	"/quote":       loadgen.ClassQuote,
	"/quote/batch": loadgen.ClassBatch,
	"/update":      loadgen.ClassUpdate,
	"/purchase":    loadgen.ClassPurchase,
}

// timed is one request placed on the schedule.
type timed struct {
	k        int
	class    loadgen.Class
	lag, lat time.Duration
}

// attribute matches every lane goroutine's request sequence to the lane
// whose arrivals it carries (lane L sends k = L, L+W, ...), and returns
// the requests with their arrival index, send lag and latency from due.
func attribute(recs []*reqRec, w *loadgen.Workload, cfg loadgen.Config, total int) ([]timed, error) {
	th := mixThresholds(cfg.Mix)
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	var order []uint64
	byG := map[uint64][]*reqRec{}
	for _, r := range recs {
		if _, ok := byG[r.g]; !ok {
			order = append(order, r.g)
		}
		byG[r.g] = append(byG[r.g], r)
	}
	if len(order) != cfg.Workers {
		return nil, fmt.Errorf("saw %d sending goroutines, want %d lanes", len(order), cfg.Workers)
	}
	matches := func(rs []*reqRec, lane int) bool {
		n := 0
		for k := lane; k < total; k += cfg.Workers {
			n++
		}
		if n != len(rs) {
			return false
		}
		for j, r := range rs {
			a := arrivalAt(w, cfg, th, lane+j*cfg.Workers)
			if routeClass[r.path] != a.class || (r.hash != hashBytes(a.body) && !a.mayDelete) {
				return false
			}
		}
		return true
	}
	taken := make([]bool, cfg.Workers)
	var out []timed
	for _, g := range order {
		rs := byG[g]
		lane := -1
		for l := 0; l < cfg.Workers && lane < 0; l++ {
			if !taken[l] && matches(rs, l) {
				lane = l
			}
		}
		if lane < 0 {
			return nil, fmt.Errorf("goroutine %d's %d requests match no lane's arrival sequence", g, len(rs))
		}
		taken[lane] = true
		for j, r := range rs {
			k := lane + j*cfg.Workers
			due := int64(time.Duration(k) * interval)
			out = append(out, timed{
				k: k, class: routeClass[r.path],
				lag: time.Duration(r.send - due), lat: time.Duration(r.done - due),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out, nil
}

// phase is one open-loop run at a fixed offered rate.
type phase struct {
	Rate     float64
	Interval time.Duration
	Res      *loadgen.Result
	Reqs     []timed
}

// runOpenLoop drives one loadgen run through the recording transport.
func runOpenLoop(baseURL string, w *loadgen.Workload, s *spec, seed int64, rate float64, dur time.Duration) (*phase, error) {
	rec := &recorder{inner: &http.Transport{
		MaxConnsPerHost:     lanes,
		MaxIdleConns:        lanes,
		MaxIdleConnsPerHost: lanes,
	}}
	defer rec.inner.(*http.Transport).CloseIdleConnections()
	cfg := loadgen.Config{
		BaseURL:        baseURL,
		Rate:           rate,
		Duration:       dur,
		Mix:            s.Mix,
		Workers:        lanes,
		Seed:           seed,
		Client:         &http.Client{Transport: rec},
		DeleteFraction: s.DeleteFrac,
	}
	total := int(rate * dur.Seconds())
	rec.t0 = time.Now()
	res, err := loadgen.Run(cfg, *w)
	if err != nil {
		return nil, err
	}
	reqs, err := attribute(rec.recs, w, cfg, total)
	if err != nil {
		return nil, fmt.Errorf("attributing requests to lanes at %.0f req/s: %w", rate, err)
	}
	return &phase{Rate: rate, Interval: time.Duration(float64(time.Second) / rate), Res: res, Reqs: reqs}, nil
}

// latencies returns one class's latencies from due time.
func (p *phase) latencies(c loadgen.Class) []time.Duration {
	var out []time.Duration
	for _, r := range p.Reqs {
		if r.class == c {
			out = append(out, r.lat)
		}
	}
	return out
}

// lags returns every request's send lag.
func (p *phase) lags() []time.Duration {
	out := make([]time.Duration, len(p.Reqs))
	for i, r := range p.Reqs {
		out[i] = r.lag
	}
	return out
}

// lateShare is the share of requests sent more than one interval after
// their due time (loadgen's own definition of late).
func (p *phase) lateShare() float64 {
	late := 0
	for _, r := range p.Reqs {
		if r.lag > p.Interval {
			late++
		}
	}
	return float64(late) / float64(len(p.Reqs))
}

// failed counts transport errors and non-2xx responses, shed included,
// except stale-coordinate delete refusals, which loadgen counts apart.
func (p *phase) failed() int {
	n := 0
	for _, c := range loadgen.Classes {
		cr := p.Res.Class(c)
		n += cr.Sent - cr.OK - cr.Stale
	}
	return n
}

// lagGrowth returns how much the median send lag of the last quarter of
// arrivals exceeds that of the first quarter, per second between the
// two quarters' centres: the generator's backlog growth.
func (p *phase) lagGrowth() float64 {
	q := len(p.Reqs) / 4
	if q == 0 {
		return 0
	}
	first, last := make([]float64, q), make([]float64, q)
	for i := 0; i < q; i++ {
		first[i] = float64(p.Reqs[i].lag)
		last[i] = float64(p.Reqs[len(p.Reqs)-q+i].lag)
	}
	span := time.Duration(p.Reqs[len(p.Reqs)-1-q/2].k-p.Reqs[q/2].k) * p.Interval
	return (median(last) - median(first)) / float64(span)
}
