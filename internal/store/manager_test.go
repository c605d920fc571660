package store

// Manager-level policy tests: automatic snapshot cadence, validation
// keeping rejected updates out of the WAL, and receipt durability on the
// purchase path. The crash/degradation matrix is in fault_test.go.

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"querypricing/internal/relational"
)

// TestSnapshotEveryCoalescesWAL: with SnapshotEvery=2 every second durable
// update rolls a snapshot, so the WAL never holds more than one update and
// restart replays at most one record.
func TestSnapshotEveryCoalescesWAL(t *testing.T) {
	db, qs := scenario(t, "skewed")
	b := calibratedBroker(t, db, qs)
	rng := rand.New(rand.NewSource(31))

	dir := filepath.Join(t.TempDir(), "data")
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Load(); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(b, st, ManagerOptions{SnapshotEvery: 2})

	for i := 0; i < 5; i++ {
		if _, _, err := mgr.Update(randomChanges(rng, b.DB(), 1)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		stats := st.Stats()
		if stats.WALRecords > 1 {
			t.Fatalf("after update %d: %d WAL records, want <=1 (snapshot cadence 2)", i, stats.WALRecords)
		}
	}
	// Updates 2 and 4 rolled snapshots, so the newest snapshot is at
	// version 4 and the WAL holds only update 5.
	if got := st.Stats().SnapshotVersion; got != 4 {
		t.Fatalf("snapshot version %d, want 4", got)
	}
	st.Close()

	st2, restored, res := reopen(t, dir, 1)
	defer st2.Close()
	if res.ReplayedUpdates != 1 {
		t.Fatalf("replayed %d updates, want 1", res.ReplayedUpdates)
	}
	assertSameBroker(t, "snapshot-every", b, restored, qs)
}

// TestInvalidUpdateLeavesWALUntouched: validation runs before the WAL
// append, so a rejected batch leaves no durable trace — the log never
// holds a record replay would refuse.
func TestInvalidUpdateLeavesWALUntouched(t *testing.T) {
	db, qs := scenario(t, "uniform")
	b := calibratedBroker(t, db, qs)

	dir := filepath.Join(t.TempDir(), "data")
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Load(); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(b, st, ManagerOptions{})

	before := st.Stats()
	bad := []relational.CellChange{{Table: "no_such_table", Row: 0, Col: 0, New: relational.Int(1)}}
	if _, _, err := mgr.Update(bad); err == nil {
		t.Fatal("invalid update accepted")
	}
	after := st.Stats()
	if after.LastSeq != before.LastSeq || after.WALBytes != before.WALBytes {
		t.Fatalf("rejected update reached the WAL: seq %d->%d bytes %d->%d",
			before.LastSeq, after.LastSeq, before.WALBytes, after.WALBytes)
	}
	if deg, _ := mgr.Degraded(); deg {
		t.Fatal("validation failure degraded the store (it is a client error, not a disk error)")
	}
	if b.Version() != 0 {
		t.Fatalf("invalid update advanced the broker to %d", b.Version())
	}
}

// TestNonFiniteUpdateRefusedWithoutDegrading: NaN and ±Inf are refused at
// validation, a client error. Before validation refused them they reached
// the WAL append, whose JSON encoding cannot represent them, and the
// failure flipped the market read-only as if the disk had failed.
func TestNonFiniteUpdateRefusedWithoutDegrading(t *testing.T) {
	db, qs := scenario(t, "uniform")
	b := calibratedBroker(t, db, qs)

	dir := filepath.Join(t.TempDir(), "data")
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Load(); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(b, st, ManagerOptions{})

	country := b.DB().Table("Country")
	col := country.Schema.ColIndex("SurfaceArea")
	for i, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ins := append([]relational.Value(nil), country.Rows[0]...)
		ins[col] = relational.Float(f)
		for _, bad := range [][]relational.CellChange{
			{{Table: "Country", Row: i, Col: col, New: relational.Float(f)}},
			{relational.RowInsert("Country", ins...)},
		} {
			before := st.Stats()
			_, _, err := mgr.Update(bad)
			if err == nil {
				t.Fatalf("update writing %v accepted", f)
			}
			if errors.Is(err, ErrDegraded) {
				t.Fatalf("update writing %v: %v; a bad value is not a disk failure", f, err)
			}
			if deg, msg := mgr.Degraded(); deg {
				t.Fatalf("update writing %v degraded the store: %s", f, msg)
			}
			if after := st.Stats(); after.LastSeq != before.LastSeq || after.WALBytes != before.WALBytes {
				t.Fatalf("refused update writing %v reached the WAL", f)
			}
		}
	}
	if b.Version() != 0 {
		t.Fatalf("refused updates advanced the broker to %d", b.Version())
	}
	// Writes still go through.
	if _, _, err := mgr.Update([]relational.CellChange{{Table: "Country", Row: 0, Col: col, New: relational.Float(1e308)}}); err != nil {
		t.Fatalf("finite update after the refusals: %v", err)
	}
	if _, _, err := mgr.Purchase(qs[0], 1e18); err != nil {
		t.Fatalf("purchase after the refusals: %v", err)
	}
}

// TestPurchaseReceiptDurable: a receipt handed to a buyer survives a
// restart that never got a closing snapshot — it is WAL-logged before the
// purchase returns.
func TestPurchaseReceiptDurable(t *testing.T) {
	db, qs := scenario(t, "tpch")
	b := calibratedBroker(t, db, qs)

	dir := filepath.Join(t.TempDir(), "data")
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Load(); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(b, st, ManagerOptions{})

	ans, receipt, err := mgr.Purchase(qs[0], 1e18)
	if err != nil {
		t.Fatal(err)
	}
	if ans == nil {
		t.Fatal("purchase returned no answer")
	}
	st.Close() // no final snapshot: the receipt exists only in the WAL

	st2, restored, res := reopen(t, dir, 1)
	defer st2.Close()
	if res.ReplayedReceipts != 1 {
		t.Fatalf("replayed %d receipts, want 1", res.ReplayedReceipts)
	}
	sales := restored.Sales()
	// Compare When via time.Equal: the JSON round-trip drops the original
	// timestamp's monotonic clock reading, which == would see.
	if len(sales) != 1 || sales[0].Query != receipt.Query || sales[0].Price != receipt.Price ||
		sales[0].Version != receipt.Version || !sales[0].When.Equal(receipt.When) {
		t.Fatalf("recovered sales %+v, want exactly %+v", sales, receipt)
	}
	if got := restored.Revenue(); got != receipt.Price {
		t.Fatalf("recovered revenue %v, want %v", got, receipt.Price)
	}
}

// TestManagerCloseMakesReplayEmpty: Close takes a final snapshot, so the
// next startup replays nothing.
func TestManagerCloseMakesReplayEmpty(t *testing.T) {
	db, qs := scenario(t, "ssb")
	b := calibratedBroker(t, db, qs)
	rng := rand.New(rand.NewSource(33))

	dir := filepath.Join(t.TempDir(), "data")
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(b, st, ManagerOptions{})
	for i := 0; i < 3; i++ {
		if _, _, err := mgr.Update(randomChanges(rng, b.DB(), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := mgr.Purchase(qs[0], 1e18); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	st2, restored, res := reopen(t, dir, 1)
	defer st2.Close()
	if res.ReplayedUpdates != 0 || res.ReplayedReceipts != 0 {
		t.Fatalf("replay after clean Close: %d updates, %d receipts; want 0, 0",
			res.ReplayedUpdates, res.ReplayedReceipts)
	}
	assertSameBroker(t, "clean-close", b, restored, qs)
}
