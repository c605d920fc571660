package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"querypricing/internal/hypergraph"
	"querypricing/internal/loadgen"
	"querypricing/internal/market"
	"querypricing/internal/pricing"
	"querypricing/internal/relational"
	"querypricing/internal/serve"
	"querypricing/internal/store"
	"querypricing/internal/support"
)

// The traced run replays the workload's seeded request sequence
// closed-loop with one caller, once per rung of a layer ladder, each
// rung from a fresh copy of the same calibrated state:
//
//	r1  serve.Server.Routes(), called in-process;
//	r2  store.Manager for writes, market.Broker for reads;
//	r3  an in-memory market.Broker;
//	r4  the benchmark composing the lowest layers itself.
//
// Every call gets a span named after its rung and class (r2.update ...)
// or, in r4, after the module function it calls (plan.fetch ...). The
// self time of a rung's layer is its span minus the next rung's span for
// the same request. Every rung must return the same prices and versions
// for every request.

// The serving layers drain deferred plan rebases in the background
// after each update (Config.BackgroundDrain). The replay makes that
// drain an explicit call after every update at every rung, so the rungs
// stay identical and the drain gets its own span.

// slotRef is a row one of the replay's own inserts landed in.
type slotRef struct {
	Table string
	Row   int
}

// rungOps is one rung's way of serving each request class. Each call
// returns a fingerprint of the priced result for the cross-rung check;
// update also returns the slots its inserts landed in, and whether a
// compaction epoch followed it.
type rungOps interface {
	quote(body []byte, req int32) (string, error)
	batch(body []byte, req int32) (string, error)
	purchase(body []byte, req int32) (string, error)
	update(body []byte, req int32) (fp string, inserts []slotRef, epoch bool, err error)
	drain(req int32)
	close()
}

func quoteFP(q market.Quote) string {
	return fmt.Sprintf("%s:%v/%d@%d", q.Query, q.Price, q.ConflictSize, q.Version)
}

// replay sends arrivals 0..n-1 of the seeded sequence through ops and
// returns each request's fingerprint and its wall time in total.
func replay(ops rungOps, w *loadgen.Workload, cfg loadgen.Config, n int, drain bool) ([]string, time.Duration, error) {
	th := mixThresholds(cfg.Mix)
	var deletable []slotRef
	fps := make([]string, n)
	start := time.Now()
	for k := 0; k < n; k++ {
		a := arrivalAt(w, cfg, th, k)
		req := int32(k)
		var err error
		switch a.class {
		case loadgen.ClassQuote:
			fps[k], err = ops.quote(a.body, req)
		case loadgen.ClassBatch:
			fps[k], err = ops.batch(a.body, req)
		case loadgen.ClassPurchase:
			fps[k], err = ops.purchase(a.body, req)
		case loadgen.ClassUpdate:
			body := a.body
			if a.mayDelete && len(deletable) > 0 {
				body, _ = json.Marshal([]relational.CellChange{relational.RowDelete(deletable[0].Table, deletable[0].Row)})
				deletable = deletable[1:]
			}
			var inserts []slotRef
			var epoch bool
			fps[k], inserts, epoch, err = ops.update(body, req)
			if epoch {
				deletable = deletable[:0] // an epoch renumbered every slot
			}
			deletable = append(deletable, inserts...)
			if drain {
				ops.drain(req)
			}
		}
		if err != nil {
			return nil, 0, fmt.Errorf("arrival %d (%s): %w", k, a.class, err)
		}
	}
	return fps, time.Since(start), nil
}

func decodeQuery(body []byte) (*relational.SelectQuery, error) {
	var q relational.SelectQuery
	err := json.Unmarshal(body, &q)
	return &q, err
}

func decodeBatch(body []byte) ([]*relational.SelectQuery, error) {
	var qs []*relational.SelectQuery
	err := json.Unmarshal(body, &qs)
	return qs, err
}

func decodeChanges(body []byte) ([]relational.CellChange, error) {
	var cs []relational.CellChange
	err := json.Unmarshal(body, &cs)
	return cs, err
}

// dueTables replicates serve's auto-compaction trigger: tables with at
// least 64 slots whose tombstones reach the threshold.
func dueTables(threshold float64, stats []relational.TableStat) []string {
	if threshold <= 0 {
		return nil
	}
	var due []string
	for _, ts := range stats {
		if ts.Slots >= 64 && float64(ts.Tombstones) >= threshold*float64(ts.Slots) {
			due = append(due, ts.Table)
		}
	}
	return due
}

func insertsOf(norm []relational.CellChange) []slotRef {
	var out []slotRef
	for _, c := range norm {
		if c.Op == relational.OpRowInsert {
			out = append(out, slotRef{c.Table, c.Row})
		}
	}
	return out
}

// r1: the serving stack's HTTP handler, in-process.
type serveRung struct {
	srv    *serve.Server
	h      http.Handler
	tr     *tracer
	epochs uint64
	budget string
}

func (r *serveRung) do(class, path string, body []byte, req int32) (*httptest.ResponseRecorder, error) {
	hr := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	r.tr.call("r1."+class, -1, req, func() { r.h.ServeHTTP(rec, hr) })
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return rec, nil
}

func (r *serveRung) quote(body []byte, req int32) (string, error) {
	rec, err := r.do("quote", "/quote", body, req)
	if err != nil {
		return "", err
	}
	var q market.Quote
	err = json.Unmarshal(rec.Body.Bytes(), &q)
	return quoteFP(q), err
}

func (r *serveRung) batch(body []byte, req int32) (string, error) {
	rec, err := r.do("batch", "/quote/batch", body, req)
	if err != nil {
		return "", err
	}
	var qs []market.Quote
	err = json.Unmarshal(rec.Body.Bytes(), &qs)
	fps := make([]string, len(qs))
	for i, q := range qs {
		fps[i] = quoteFP(q)
	}
	return strings.Join(fps, ","), err
}

func (r *serveRung) purchase(body []byte, req int32) (string, error) {
	rec, err := r.do("purchase", "/purchase?budget="+r.budget, body, req)
	if err != nil {
		return "", err
	}
	var p struct{ Receipt market.Receipt }
	err = json.Unmarshal(rec.Body.Bytes(), &p)
	return fmt.Sprintf("%v@%d", p.Receipt.Price, p.Receipt.Version), err
}

func (r *serveRung) update(body []byte, req int32) (string, []slotRef, bool, error) {
	rec, err := r.do("update", "/update", body, req)
	if err != nil {
		return "", nil, false, err
	}
	var u struct {
		Version     uint64
		Inserts     map[string][]int
		Compactions uint64
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &u); err != nil {
		return "", nil, false, err
	}
	var ins []slotRef
	changes, _ := decodeChanges(body) // the server just accepted it
	for _, c := range changes {
		if c.Op == relational.OpRowInsert {
			// Inserts come back per table in batch order.
			ins = append(ins, slotRef{c.Table, u.Inserts[c.Table][0]})
			u.Inserts[c.Table] = u.Inserts[c.Table][1:]
		}
	}
	epoch := u.Compactions != r.epochs
	r.epochs = u.Compactions
	return fmt.Sprint(u.Version), ins, epoch, nil
}

func (r *serveRung) drain(req int32) {
	r.tr.call("r1.drain", -1, req, func() { r.srv.Broker().DrainPlans() })
}

func (r *serveRung) close() { r.srv.Close() }

// brokerRung is r2 (with a store.Manager for writes) and r3 (without).
type brokerRung struct {
	name      string
	b         *market.Broker
	m         *store.Manager // nil on r3
	tr        *tracer
	threshold float64
}

func (r *brokerRung) quote(body []byte, req int32) (string, error) {
	q, err := decodeQuery(body)
	if err != nil {
		return "", err
	}
	var quote market.Quote
	r.tr.call(r.name+".quote", -1, req, func() { quote, err = r.b.Quote(q) })
	return quoteFP(quote), err
}

func (r *brokerRung) batch(body []byte, req int32) (string, error) {
	qs, err := decodeBatch(body)
	if err != nil {
		return "", err
	}
	var quotes []market.Quote
	r.tr.call(r.name+".batch", -1, req, func() { quotes, err = r.b.QuoteBatch(qs) })
	fps := make([]string, len(quotes))
	for i, q := range quotes {
		fps[i] = quoteFP(q)
	}
	return strings.Join(fps, ","), err
}

func (r *brokerRung) purchase(body []byte, req int32) (string, error) {
	q, err := decodeQuery(body)
	if err != nil {
		return "", err
	}
	var rc market.Receipt
	r.tr.call(r.name+".purchase", -1, req, func() {
		if r.m != nil {
			_, rc, err = r.m.Purchase(q, 1e18)
		} else {
			_, rc, err = r.b.Purchase(q, 1e18)
		}
	})
	return fmt.Sprintf("%v@%d", rc.Price, rc.Version), err
}

func (r *brokerRung) update(body []byte, req int32) (string, []slotRef, bool, error) {
	changes, err := decodeChanges(body)
	if err != nil {
		return "", nil, false, err
	}
	var v uint64
	var norm []relational.CellChange
	r.tr.call(r.name+".update", -1, req, func() {
		if r.m != nil {
			v, norm, _, err = r.m.UpdateAssigned(changes)
		} else {
			v, norm, _, err = r.b.UpdateAssigned(changes)
		}
	})
	if err != nil {
		return "", nil, false, err
	}
	epoch := false
	if due := dueTables(r.threshold, r.b.TableStats()); len(due) > 0 {
		r.tr.call(r.name+".compact", -1, req, func() {
			if r.m != nil {
				_, err = r.m.Compact(due)
			} else {
				_, err = r.b.CompactTables(due)
			}
		})
		epoch = err == nil
		if err != nil && !errors.Is(err, market.ErrNothingToCompact) {
			return "", nil, false, err
		}
	}
	return fmt.Sprint(v), insertsOf(norm), epoch, nil
}

func (r *brokerRung) drain(req int32) {
	r.tr.call(r.name+".drain", -1, req, func() { r.b.DrainPlans() })
}

func (r *brokerRung) close() {
	if r.m != nil {
		r.m.Close()
	}
}

// composedRung is r4: the benchmark calls the lowest layers itself.
type composedRung struct {
	db        *relational.Database
	set       *support.Set
	res       pricing.Result
	tr        *tracer
	threshold float64
	// Plan fetch outcomes at r4, and support/plan counts.
	hits, folds, compiles int
	rebased, invalidated  int
	carried, dropped      int
}

// quoteOne is Broker.Quote composed: fetch the plan, compute the
// conflict set, price it.
func (r *composedRung) quoteOne(q *relational.SelectQuery, parent, req int32) (market.Quote, error) {
	var (
		compiled bool
		err      error
		items    []int
		price    float64
	)
	stale := r.set.StalePlans()
	r.tr.call("plan.fetch", parent, req, func() { _, compiled, err = r.set.PlanFor(q) })
	switch {
	case err != nil:
		return market.Quote{}, err
	case compiled:
		r.compiles++
	case r.set.StalePlans() < stale:
		r.folds++
	default:
		r.hits++
	}
	r.tr.call("support.conflictset", parent, req, func() { items, err = support.ConflictSet(r.set, q) })
	if err != nil {
		return market.Quote{}, err
	}
	r.tr.call("pricing.price", parent, req, func() {
		if len(items) > 0 {
			e := hypergraph.Edge{Items: items}
			price = r.res.Price(&e)
		}
	})
	return market.Quote{Query: q.Name, Price: price, ConflictSize: len(items), Informative: len(items) > 0, Version: r.db.Version()}, nil
}

func (r *composedRung) quote(body []byte, req int32) (string, error) {
	q, err := decodeQuery(body)
	if err != nil {
		return "", err
	}
	p := r.tr.begin("r4.quote", -1, req)
	quote, err := r.quoteOne(q, p, req)
	r.tr.end(p)
	return quoteFP(quote), err
}

func (r *composedRung) batch(body []byte, req int32) (string, error) {
	qs, err := decodeBatch(body)
	if err != nil {
		return "", err
	}
	p := r.tr.begin("r4.batch", -1, req)
	defer r.tr.end(p)
	fps := make([]string, len(qs))
	for i, q := range qs {
		quote, err := r.quoteOne(q, p, req)
		if err != nil {
			return "", err
		}
		fps[i] = quoteFP(quote)
	}
	return strings.Join(fps, ","), nil
}

func (r *composedRung) purchase(body []byte, req int32) (string, error) {
	q, err := decodeQuery(body)
	if err != nil {
		return "", err
	}
	p := r.tr.begin("r4.purchase", -1, req)
	defer r.tr.end(p)
	quote, err := r.quoteOne(q, p, req)
	if err != nil {
		return "", err
	}
	r.tr.call("relational.eval", p, req, func() { _, err = q.Eval(r.db) })
	return fmt.Sprintf("%v@%d", quote.Price, quote.Version), err
}

func (r *composedRung) update(body []byte, req int32) (string, []slotRef, bool, error) {
	changes, err := decodeChanges(body)
	if err != nil {
		return "", nil, false, err
	}
	p := r.tr.begin("r4.update", -1, req)
	var (
		norm  []relational.CellChange
		newDB *relational.Database
		st    support.UpdateStats
	)
	r.tr.call("relational.normalize", p, req, func() { norm, err = r.db.NormalizeChanges(changes) })
	if err == nil {
		r.tr.call("relational.apply", p, req, func() { newDB, err = r.db.Apply(norm) })
	}
	if err == nil {
		r.tr.call("support.advance", p, req, func() { r.set, st = r.set.Advance(newDB, norm) })
		r.db = newDB
		r.rebased += st.PlansRebased
		r.invalidated += st.PlansInvalidated
	}
	r.tr.end(p)
	if err != nil {
		return "", nil, false, err
	}
	v := r.db.Version()
	due := dueTables(r.threshold, r.db.TableStats())
	if len(due) == 0 {
		return fmt.Sprint(v), insertsOf(norm), false, nil
	}
	p = r.tr.begin("r4.compact", -1, req)
	defer r.tr.end(p)
	var specs []relational.CompactSpec
	r.tr.call("relational.plancompaction", p, req, func() { specs, err = r.db.PlanCompaction(due) })
	if err != nil || len(specs) == 0 {
		return fmt.Sprint(v), insertsOf(norm), false, err
	}
	var maps *relational.SlotMap
	r.tr.call("relational.compact", p, req, func() { newDB, maps, err = r.db.Compact(specs) })
	if err != nil {
		return "", nil, false, err
	}
	var cst support.CompactStats
	r.tr.call("support.compact", p, req, func() { r.set, cst = r.set.Compact(newDB, maps) })
	r.db = newDB
	r.carried += cst.PlansCarried
	r.dropped += cst.PlansDropped
	return fmt.Sprint(v), insertsOf(norm), true, nil
}

func (r *composedRung) drain(req int32) {
	var st support.UpdateStats
	r.tr.call("r4.drain", -1, req, func() { st = r.set.Drain() })
	r.rebased += st.PlansRebased
	r.invalidated += st.PlansInvalidated
}

func (r *composedRung) close() {}

// replayLadder runs the replay at every rung from copies of the base
// data directory and reports the per-layer metrics.
func replayLadder(s *spec, o options, base string, w *loadgen.Workload, rep *report, tr *tracer) error {
	cfg := loadgen.Config{Mix: s.Mix, Seed: o.seed, DeleteFraction: s.DeleteFrac}
	n := s.Replay
	budget := neturl.QueryEscape(strconv.FormatFloat(w.Budget, 'g', -1, 64))
	var composed *composedRung
	// open starts a rung on its own copy of the base data directory.
	open := func(name, dir string) (rungOps, error) {
		if err := copyDir(base, dir); err != nil {
			return nil, err
		}
		if name == "r1" || name == "r1-untraced" {
			srv, err := serve.New(serverConfig(s, dir, o.seed, nil, false))
			if err != nil {
				return nil, err
			}
			t := tr
			if name == "r1-untraced" {
				t = nil
			}
			return &serveRung{srv: srv, h: srv.Routes(), tr: t, budget: budget, epochs: srv.Broker().Compactions()}, nil
		}
		st, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		res, err := st.Load()
		if err != nil || res.Snapshot == nil {
			st.Close()
			return nil, fmt.Errorf("loading the base state: %v", err)
		}
		snap := res.Snapshot
		if name == "r4" {
			st.Close()
			composed = &composedRung{
				db:        snap.DB,
				set:       &support.Set{DB: snap.DB, Neighbors: snap.Neighbors, Shards: lanes},
				res:       *snap.Pricing,
				tr:        tr,
				threshold: s.CompactAt,
			}
			return composed, nil
		}
		b, err := market.Restore(*snap, marketConfig(o.seed))
		if err != nil {
			st.Close()
			return nil, err
		}
		r := &brokerRung{name: name, b: b, tr: tr, threshold: s.CompactAt}
		if name == "r2" {
			r.m = store.NewManager(b, st, store.ManagerOptions{SnapshotEvery: 64})
		} else {
			st.Close()
		}
		return r, nil
	}

	var results [][]string
	walls := map[string]time.Duration{}
	for _, name := range []string{"r1", "r1-untraced", "r2", "r3", "r4"} {
		dir := filepath.Join(o.workdir, "replay-"+name)
		ops, err := open(name, dir)
		if err != nil {
			return fmt.Errorf("starting %s: %w", name, err)
		}
		fps, wall, err := replay(ops, w, cfg, n, s.Drain)
		ops.close()
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("replay at %s: %w", name, err)
		}
		walls[name] = wall
		results = append(results, fps)
		rep.note("replay %-11s %d requests closed-loop in %.3f s", name, n, wall.Seconds())
	}
	same := true
	for _, fps := range results[1:] {
		for i := range fps {
			same = same && fps[i] == results[0][i]
		}
	}
	rep.check("every rung prices the replay identically", same, "%d requests × %d rungs", n, len(results))

	sp := tr.spans
	rep.set("trace.overhead_share", walls["r1"].Seconds()/walls["r1-untraced"].Seconds()-1, "share")
	// A rung's update includes the compaction epoch it triggered, as the
	// serving handler's does.
	r1u, r2u := byReq(sp, "r1.update"), byReq(sp, "r2.update", "r2.compact")
	r3u, r4u := byReq(sp, "r3.update", "r3.compact"), byReq(sp, "r4.update", "r4.compact")
	rep.set("serve.quote_self_us", diffUs(byReq(sp, "r1.quote"), byReq(sp, "r2.quote")), "us")
	rep.set("serve.update_self_us", diffUs(r1u, r2u), "us")
	rep.set("store.append_us", diffUs(r2u, r3u), "us")
	rep.set("market.update_self_us", diffUs(r3u, r4u), "us")
	// Broker.Quote calls support.ConflictSet, which fetches the plan
	// itself, then prices; r4's separate plan.fetch is not its child.
	rep.set("market.quote_self_us", diffUs(byReq(sp, "r3.quote"), byReq(sp, "support.conflictset", "pricing.price")), "us")
	set := func(metric, spanName string, scale float64, unit string) {
		v, _ := meanSpanUs(sp, spanName)
		rep.set(metric, v*scale, unit)
	}
	set("market.quote_us", "r3.quote", 1, "us")
	set("market.batch_us", "r3.batch", 1, "us")
	set("market.purchase_us", "r3.purchase", 1, "us")
	set("market.update_us", "r3.update", 1, "us")
	set("market.compact_ms", "r3.compact", 1e-3, "ms")
	set("market.drain_ms", "r3.drain", 1e-3, "ms")
	set("support.conflictset_us", "support.conflictset", 1, "us")
	set("support.advance_us", "support.advance", 1, "us")
	set("support.compact_ms", "support.compact", 1e-3, "ms")
	set("plan.fetch_us", "plan.fetch", 1, "us")
	set("relational.normalize_us", "relational.normalize", 1, "us")
	set("relational.apply_us", "relational.apply", 1, "us")
	set("relational.compact_ms", "relational.compact", 1e-3, "ms")
	set("relational.eval_us", "relational.eval", 1, "us")
	set("pricing.price_us", "pricing.price", 1, "us")
	_, updates := meanSpanUs(sp, "r4.update")
	per := func(x int) float64 {
		if updates == 0 {
			return 0
		}
		return float64(x) / float64(updates)
	}
	c := composed
	rep.set("support.plans_rebased", per(c.rebased), "count")
	rep.set("support.plans_invalidated", per(c.invalidated), "count")
	fetches := float64(c.hits + c.folds + c.compiles)
	rep.set("plan.hit_share", float64(c.hits)/fetches, "share")
	rep.set("plan.fold_share", float64(c.folds)/fetches, "share")
	rep.set("plan.compile_share", float64(c.compiles)/fetches, "share")
	if c.carried+c.dropped > 0 {
		rep.set("plan.remap_carried_share", float64(c.carried)/float64(c.carried+c.dropped), "share")
	} else {
		rep.set("plan.remap_carried_share", 0, "share")
	}

	// Self time of every span kind: its duration minus its children's.
	self := selfTimes(sp)
	type agg struct {
		n         int
		total, in int64
	}
	by := map[string]*agg{}
	var names []string
	for i, x := range sp {
		a := by[x.Name]
		if a == nil {
			a = &agg{}
			by[x.Name] = a
			names = append(names, x.Name)
		}
		a.n++
		a.total += x.dur()
		a.in += self[i]
	}
	for _, name := range names {
		a := by[name]
		rep.note("span %-26s n=%6d  mean %10.2f us  self %10.2f us", name, a.n,
			float64(a.total)/float64(a.n)/1e3, float64(a.in)/float64(a.n)/1e3)
	}
	return nil
}
