package market

import (
	"errors"
	"math"
	"sync"
	"testing"

	"querypricing/internal/datagen"
	"querypricing/internal/relational"
	"querypricing/internal/valuation"
	"querypricing/internal/workloads"
)

func newTestBroker(t *testing.T) (*Broker, []*relational.SelectQuery) {
	t.Helper()
	db := datagen.World(datagen.WorldConfig{Countries: 40, Cities: 120, Seed: 1})
	b, err := NewBroker(db, Config{SupportSize: 80, Seed: 2, LPIPCandidates: 6})
	if err != nil {
		t.Fatal(err)
	}
	return b, workloads.Skewed(db)[:25]
}

func TestUncalibratedQuotesZero(t *testing.T) {
	b, qs := newTestBroker(t)
	quote, err := b.Quote(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if quote.Price != 0 {
		t.Fatalf("uncalibrated price = %g, want 0", quote.Price)
	}
	if b.Algorithm() != "" {
		t.Fatal("uncalibrated broker reports an algorithm")
	}
}

func TestCalibrateAndQuote(t *testing.T) {
	b, qs := newTestBroker(t)
	rev, err := b.Calibrate(qs, valuation.Uniform{K: 100}, LPIP)
	if err != nil {
		t.Fatal(err)
	}
	if rev <= 0 {
		t.Fatalf("calibration revenue = %g, want > 0", rev)
	}
	if b.Algorithm() != LPIP {
		t.Fatalf("algorithm = %q, want LPIP", b.Algorithm())
	}
	sawPositive := false
	for _, q := range qs[:10] {
		quote, err := b.Quote(q)
		if err != nil {
			t.Fatal(err)
		}
		if quote.Price < 0 {
			t.Fatalf("negative price %g for %s", quote.Price, q.Name)
		}
		if quote.Price > 0 {
			sawPositive = true
		}
		if !quote.Informative && quote.Price != 0 {
			t.Fatalf("uninformative query %s priced %g", q.Name, quote.Price)
		}
	}
	if !sawPositive {
		t.Fatal("no query received a positive price after calibration")
	}
}

func TestAllAlgorithmsCalibrate(t *testing.T) {
	b, qs := newTestBroker(t)
	for _, algo := range []Algorithm{UBP, UIP, LPIP, CIP, Layering, XOS} {
		rev, err := b.Calibrate(qs, valuation.Uniform{K: 50}, algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if rev < 0 {
			t.Fatalf("%s: negative revenue %g", algo, rev)
		}
	}
	if _, err := b.Calibrate(qs, valuation.Uniform{K: 50}, Algorithm("nope")); err == nil {
		t.Fatal("want error for unknown algorithm")
	}
}

func TestPurchaseFlow(t *testing.T) {
	b, qs := newTestBroker(t)
	if _, err := b.Calibrate(qs, valuation.Uniform{K: 100}, UIP); err != nil {
		t.Fatal(err)
	}
	q := qs[9] // W10: SELECT * FROM Country — expensive
	quote, err := b.Quote(q)
	if err != nil {
		t.Fatal(err)
	}
	if quote.Price <= 0 {
		t.Skipf("W10 priced 0 on this instance; pick a different query")
	}
	// Budget below price, or NaN (which compares false with every
	// price): rejected.
	for _, budget := range []float64{quote.Price / 2, math.NaN()} {
		if _, _, err := b.Purchase(q, budget); !errors.Is(err, ErrBudget) {
			t.Fatalf("purchase with budget %g: error = %v, want ErrBudget", budget, err)
		}
	}
	if b.Revenue() != 0 {
		t.Fatal("failed purchase must not add revenue")
	}
	// Sufficient budget: answer delivered, revenue recorded.
	ans, receipt, err := b.Purchase(q, quote.Price*2)
	if err != nil {
		t.Fatal(err)
	}
	if ans == nil || len(ans.Rows) == 0 {
		t.Fatal("purchase returned no answer")
	}
	if math.Abs(receipt.Price-quote.Price) > 1e-9 {
		t.Fatalf("receipt price %g != quote %g", receipt.Price, quote.Price)
	}
	if math.Abs(b.Revenue()-quote.Price) > 1e-9 {
		t.Fatalf("revenue = %g, want %g", b.Revenue(), quote.Price)
	}
	if len(b.Sales()) != 1 {
		t.Fatalf("sales log length = %d, want 1", len(b.Sales()))
	}
}

// TestQuoteArbitrageFreeness checks the two arbitrage conditions of Section
// 3.1 on live quotes: a determined (narrower) query never costs more, and a
// combined query never costs more than the sum of its parts.
func TestQuoteArbitrageFreeness(t *testing.T) {
	db := datagen.World(datagen.WorldConfig{Countries: 40, Cities: 120, Seed: 3})
	b, err := NewBroker(db, Config{SupportSize: 100, Seed: 4, LPIPCandidates: 6})
	if err != nil {
		t.Fatal(err)
	}
	qs := workloads.Skewed(db)[:20]
	if _, err := b.Calibrate(qs, valuation.Uniform{K: 100}, LPIP); err != nil {
		t.Fatal(err)
	}

	// Information arbitrage: narrow is determined by wide.
	narrow := &relational.SelectQuery{Name: "narrow", Tables: []string{"Country"},
		Select: []relational.ColRef{{Table: "Country", Col: "Name"}}}
	wide := &relational.SelectQuery{Name: "wide", Tables: []string{"Country"},
		Select: []relational.ColRef{{Table: "Country", Col: "Name"}, {Table: "Country", Col: "Population"}}}
	qn, err := b.Quote(narrow)
	if err != nil {
		t.Fatal(err)
	}
	qw, err := b.Quote(wide)
	if err != nil {
		t.Fatal(err)
	}
	if qn.Price > qw.Price+1e-9 {
		t.Fatalf("information arbitrage: narrow %g > wide %g", qn.Price, qw.Price)
	}

	// Combination arbitrage: CS(combined) = CS(a) U CS(b), and any additive
	// price of a union is at most the sum of the parts' prices.
	qa := &relational.SelectQuery{Name: "a", Tables: []string{"Country"},
		Select: []relational.ColRef{{Table: "Country", Col: "Continent"}}}
	qb := &relational.SelectQuery{Name: "b", Tables: []string{"Country"},
		Select: []relational.ColRef{{Table: "Country", Col: "Region"}}}
	qab := &relational.SelectQuery{Name: "ab", Tables: []string{"Country"},
		Select: []relational.ColRef{{Table: "Country", Col: "Continent"}, {Table: "Country", Col: "Region"}}}
	pa, err := b.Quote(qa)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Quote(qb)
	if err != nil {
		t.Fatal(err)
	}
	pab, err := b.Quote(qab)
	if err != nil {
		t.Fatal(err)
	}
	if pab.Price > pa.Price+pb.Price+1e-9 {
		t.Fatalf("combination arbitrage: combined %g > %g + %g", pab.Price, pa.Price, pb.Price)
	}
}

func TestQuoteBatchMatchesSerial(t *testing.T) {
	b, qs := newTestBroker(t)
	if _, err := b.Calibrate(qs, valuation.Uniform{K: 100}, LPIP); err != nil {
		t.Fatal(err)
	}
	batch, err := b.QuoteBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(qs) {
		t.Fatalf("batch length = %d, want %d", len(batch), len(qs))
	}
	for i, q := range qs {
		serial, err := b.Quote(q)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != serial {
			t.Errorf("query %d (%s): batch quote %+v != serial %+v", i, q.Name, batch[i], serial)
		}
	}
	if quotes, err := b.QuoteBatch(nil); err != nil || quotes != nil {
		t.Errorf("empty batch = (%v, %v), want (nil, nil)", quotes, err)
	}
}

// TestConcurrentQuotesDuringCalibrate hammers lock-free quoting — single
// quotes, batches, and purchases — while the broker recalibrates with a
// rotating algorithm roster. Run with -race: the point is that snapshot
// swaps are the only coordination between quoting and calibration.
func TestConcurrentQuotesDuringCalibrate(t *testing.T) {
	b, qs := newTestBroker(t)
	if _, err := b.Calibrate(qs, valuation.Uniform{K: 100}, UIP); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch g % 3 {
				case 0:
					if _, err := b.Quote(qs[(g+i)%len(qs)]); err != nil {
						errs <- err
						return
					}
				case 1:
					batch := qs[(g+i)%(len(qs)-4) : (g+i)%(len(qs)-4)+4]
					if _, err := b.QuoteBatch(batch); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, _, err := b.Purchase(qs[(g+i)%len(qs)], 1e12); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}

	// Recalibrate continuously while the quoters run: algorithms rotate so
	// successive snapshots have different pricing-function shapes (flat
	// price, item weights, XOS weight sets).
	algos := []Algorithm{UBP, UIP, Layering, LPIP}
	for i := 0; i < 8; i++ {
		if _, err := b.Calibrate(qs, valuation.Uniform{K: 50 + float64(i)}, algos[i%len(algos)]); err != nil {
			t.Errorf("calibrate %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if b.Algorithm() == "" {
		t.Fatal("broker lost its calibration")
	}
}

func TestConcurrentQuotes(t *testing.T) {
	b, qs := newTestBroker(t)
	if _, err := b.Calibrate(qs, valuation.Uniform{K: 100}, UIP); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%4 == 0 {
				if _, _, err := b.Purchase(qs[i%len(qs)], 1e12); err != nil {
					errs <- err
				}
				return
			}
			if _, err := b.Quote(qs[i%len(qs)]); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(b.Sales()) != 8 {
		t.Fatalf("sales = %d, want 8", len(b.Sales()))
	}
}

// TestShardedQuoteDuringRecalibrate quotes concurrently through a
// recalibration of an explicitly sharded broker and asserts the quotes a
// sharded broker produces are identical to a single-shard broker's (the
// conflict-set byte-identity guarantee surfacing at the market layer).
// Run with -race it also pins the set's plan cache and the shards'
// footprint indexes as safe under concurrent quotes and calibration.
func TestShardedQuoteDuringRecalibrate(t *testing.T) {
	db := datagen.World(datagen.WorldConfig{Countries: 40, Cities: 120, Seed: 1})
	qs := workloads.Skewed(db)[:25]
	sharded, err := NewBroker(db, Config{SupportSize: 80, Seed: 2, Shards: 4, LPIPCandidates: 6})
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewBroker(db, Config{SupportSize: 80, Seed: 2, Shards: -1, LPIPCandidates: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*Broker{sharded, single} {
		if _, err := b.Calibrate(qs, valuation.Uniform{K: 100}, UIP); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	errs := make(chan error, 16)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sharded.Quote(qs[(g+i)%len(qs)]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for i := 0; i < 4; i++ {
		if _, err := sharded.Calibrate(qs, valuation.Uniform{K: 80 + float64(i)}, UIP); err != nil {
			t.Errorf("recalibrate %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Same support sample, same calibration: quotes must agree bit-exactly.
	if _, err := sharded.Calibrate(qs, valuation.Uniform{K: 100}, UIP); err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		qa, err := sharded.Quote(q)
		if err != nil {
			t.Fatal(err)
		}
		qb, err := single.Quote(q)
		if err != nil {
			t.Fatal(err)
		}
		if qa.Price != qb.Price || qa.ConflictSize != qb.ConflictSize {
			t.Fatalf("query %s: sharded quote %+v, single-shard %+v", q.Name, qa, qb)
		}
	}
}
