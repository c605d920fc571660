package plan

import (
	"testing"

	"querypricing/internal/datagen"
	"querypricing/internal/relational"
	"querypricing/internal/workloads"
)

// TestCalibrationWorkloadPlans compiles every query of the four
// calibration datasets — at the sizes perfbench's calibration leg uses,
// through a shared index pool as support sets compile them — and checks
// that each plan's base fingerprint, which every probe-able plan derives
// from its own base state, equals Eval's. The counts are pinned so a
// workload change that silently drops queries shows up here.
func TestCalibrationWorkloadPlans(t *testing.T) {
	world := func() *relational.Database {
		return datagen.World(datagen.WorldConfig{Countries: 239, Cities: 600, Seed: 1})
	}
	datasets := []struct {
		name    string
		db      *relational.Database
		queries func(*relational.Database) []*relational.SelectQuery
	}{
		{"world-skewed", world(), workloads.Skewed},
		{"world-uniform", world(), func(db *relational.Database) []*relational.SelectQuery { return workloads.Uniform(db, 1000) }},
		{"ssb", datagen.SSB(datagen.SSBConfig{Customers: 600, Suppliers: 300, Parts: 300, LineOrders: 4000, Seed: 1}), workloads.SSB},
		{"tpch", datagen.TPCH(datagen.TPCHConfig{Parts: 400, Suppliers: 50, Customers: 150, Orders: 1200, Seed: 1}), workloads.TPCH},
	}
	compiled, aggregates := 0, 0
	for _, d := range datasets {
		pool := NewIndexPool(d.db)
		for _, q := range d.queries(d.db) {
			p, err := compile(d.db, q, pool)
			if err != nil {
				t.Fatalf("%s %s: %v", d.name, q.Name, err)
			}
			res, err := q.Eval(d.db)
			if err != nil {
				t.Fatalf("%s %s: %v", d.name, q.Name, err)
			}
			if p.BaseFingerprint() != res.Fingerprint() {
				t.Errorf("%s %s: plan fingerprint %x, Eval %x", d.name, q.Name, p.BaseFingerprint(), res.Fingerprint())
			}
			compiled++
			if p.mode == modeAggregate && !p.noProbe {
				aggregates++
			}
		}
	}
	if compiled != 2907 || aggregates != 942 {
		t.Fatalf("compiled %d queries with %d probe-able aggregate plans, want 2907 and 942", compiled, aggregates)
	}
}
