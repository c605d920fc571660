package store

// DML durability: insert/delete batches written ahead to the WAL replay
// exactly-once into a byte-identical broker, record format stamps match
// the batch contents on disk, and snapshots round-trip tombstone layouts
// (dead slots stay dead, slot indices stay stable) so row identity
// survives restarts.

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"querypricing/internal/relational"
)

// randomDML draws a mixed batch honoring Apply's batch rules. The first
// two changes are an insert and (when the live-row floor allows) a
// delete by construction, so every batch a durability test routes
// through a kill point or a WAL segment exercises insert and delete
// records; the rest are random cell updates, inserts and deletes in the
// same mix the market-layer generator uses. Inserts are left
// un-normalized (Row -1), the way clients submit them and the way the
// Manager logs them. Tables keep at least three live rows.
func randomDML(rng *rand.Rand, db *relational.Database, n int) []relational.CellChange {
	names := db.TableNames()
	var out []relational.CellChange
	type rc struct {
		table string
		row   int
	}
	usedCell := make(map[[2]interface{}]bool)
	touched := make(map[rc]bool)
	deleted := make(map[rc]bool)
	pendingDeletes := make(map[string]int)
	mkInsert := func(tn string) relational.CellChange {
		tab := db.Table(tn)
		vals := make([]relational.Value, len(tab.Schema.Cols))
		for ci := range vals {
			domain := db.ActiveDomain(tn, tab.Schema.Cols[ci].Name)
			if len(domain) == 0 {
				vals[ci] = relational.Null()
			} else {
				vals[ci] = domain[rng.Intn(len(domain))]
			}
		}
		return relational.RowInsert(tn, vals...)
	}
	out = append(out, mkInsert(names[rng.Intn(len(names))]))
	for guard := 0; len(out) < n && guard < 200*n; guard++ {
		tn := names[rng.Intn(len(names))]
		tab := db.Table(tn)
		op := rng.Intn(10)
		if len(out) == 1 {
			op = 9 // second change: force a delete attempt
		}
		switch {
		case op < 6 && tab.NumRows() > 0: // cell update
			row, col := rng.Intn(tab.NumRows()), rng.Intn(len(tab.Schema.Cols))
			k := rc{tn, row}
			if !tab.Alive(row) || deleted[k] || usedCell[[2]interface{}{k, col}] {
				continue
			}
			domain := db.ActiveDomain(tn, tab.Schema.Cols[col].Name)
			if len(domain) == 0 {
				continue
			}
			usedCell[[2]interface{}{k, col}] = true
			touched[k] = true
			out = append(out, relational.CellChange{
				Table: tn, Row: row, Col: col, New: domain[rng.Intn(len(domain))],
			})
		case op < 8: // insert
			out = append(out, mkInsert(tn))
		default: // delete
			if tab.NumRows() == 0 || tab.LiveRows()-pendingDeletes[tn] <= 3 {
				continue
			}
			row := rng.Intn(tab.NumRows())
			k := rc{tn, row}
			if !tab.Alive(row) || deleted[k] || touched[k] {
				continue
			}
			deleted[k] = true
			pendingDeletes[tn]++
			out = append(out, relational.RowDelete(tn, row))
		}
	}
	return out
}

// TestDMLWALReplay: mixed insert/delete/update batches logged through
// the Manager replay exactly-once from the WAL into a broker
// byte-identical to the uninterrupted one — and the on-disk records are
// stamped with exactly the format their contents require.
func TestDMLWALReplay(t *testing.T) {
	for _, w := range []string{"skewed", "uniform", "ssb", "tpch"} {
		w := w
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			db, qs := scenario(t, w)
			orig := calibratedBroker(t, db, qs)
			rng := rand.New(rand.NewSource(int64(len(w)) * 71))

			dir := filepath.Join(t.TempDir(), "data")
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Load(); err != nil {
				t.Fatal(err)
			}
			if err := st.WriteSnapshot(orig.Snapshot()); err != nil {
				t.Fatal(err)
			}
			mgr := NewManager(orig, st, ManagerOptions{})
			for i := 0; i < 3; i++ {
				if _, _, err := mgr.Update(randomDML(rng, orig.DB(), 2+rng.Intn(3))); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := mgr.Purchase(qs[0], 1e18); err != nil {
				t.Fatal(err)
			}
			st.Close() // no final snapshot: recovery must come from the WAL

			// Every durable record, whatever its kind, carries walFmt.
			raw, err := os.ReadFile(filepath.Join(dir, walName(0)))
			if err != nil {
				t.Fatal(err)
			}
			recs, _, err := decodeWAL(raw)
			if err != nil {
				t.Fatal(err)
			}
			updates := 0
			for _, rec := range recs {
				if rec.Fmt != walFmt {
					t.Fatalf("%s record seq %d stamped fmt %d, want %d", rec.Kind, rec.Seq, rec.Fmt, walFmt)
				}
				if rec.Kind == recUpdate {
					updates++
				}
			}
			if updates != 3 {
				t.Fatalf("WAL holds %d update records, want 3", updates)
			}

			st2, restored, res := reopen(t, dir, 2)
			defer st2.Close()
			if res.ReplayedUpdates != 3 || res.ReplayedReceipts != 1 {
				t.Fatalf("replayed %d updates, %d receipts; want 3, 1", res.ReplayedUpdates, res.ReplayedReceipts)
			}
			assertSameBroker(t, "dml-wal-replay", orig, restored, qs)

			// Replay is idempotent across reopenings: nothing was consumed.
			st3, again, _ := reopen(t, dir, 1)
			defer st3.Close()
			assertSameBroker(t, "dml-wal-replay-again", orig, again, qs)
		})
	}
}

// TestSnapshotTombstoneRoundTrip: a snapshot of a database holding dead
// slots and appended rows restores the exact slot layout — tombstones
// included — so post-restart updates address the same row identities.
func TestSnapshotTombstoneRoundTrip(t *testing.T) {
	db, qs := scenario(t, "tpch")
	orig := calibratedBroker(t, db, qs)
	rng := rand.New(rand.NewSource(31))

	dir := filepath.Join(t.TempDir(), "data")
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(orig.Snapshot()); err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(orig, st, ManagerOptions{})
	for i := 0; i < 3; i++ {
		if _, _, err := mgr.Update(randomDML(rng, orig.DB(), 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, restored, res := reopen(t, dir, 2)
	defer st2.Close()
	if res.ReplayedUpdates != 0 {
		t.Fatalf("clean snapshot replayed %d updates", res.ReplayedUpdates)
	}
	for _, name := range orig.DB().TableNames() {
		ot, rt := orig.DB().Table(name), restored.DB().Table(name)
		if ot.NumRows() != rt.NumRows() || ot.LiveRows() != rt.LiveRows() {
			t.Fatalf("%s: slots/live %d/%d restored as %d/%d",
				name, ot.NumRows(), ot.LiveRows(), rt.NumRows(), rt.LiveRows())
		}
		for i := 0; i < ot.NumRows(); i++ {
			if ot.Alive(i) != rt.Alive(i) {
				t.Fatalf("%s: slot %d alive=%v restored as %v", name, i, ot.Alive(i), rt.Alive(i))
			}
		}
	}
	assertSameBroker(t, "tombstone-snapshot", orig, restored, qs)

	// Row identity holds across the restart: the same delete applied to
	// both brokers keeps them byte-identical.
	u := randomDML(rng, restored.DB(), 3)
	if _, _, err := orig.Update(u); err != nil {
		t.Fatal(err)
	}
	if _, _, err := restored.Update(u); err != nil {
		t.Fatal(err)
	}
	assertSameBroker(t, "tombstone-snapshot-post-update", orig, restored, qs)
}
