package store

// The fault-injection acceptance suite: a kill-point matrix over the
// persistence protocol — crash mid-WAL-append (torn frame), crash right
// after the WAL fsync (durable but unacknowledged), crash mid-snapshot
// (torn temp file), crash between snapshot rename and WAL rotation —
// crossed with all four workloads. In every cell, the broker recovered
// from the directory must quote byte-identically to an uninterrupted
// broker holding exactly the durable prefix of the history. The batches
// driven through every kill point are mixed DML (randomDML guarantees
// each carries an insert, so every crash lands on an insert-bearing record):
// insert/delete WAL records must replay exactly-once through torn
// tails and interrupted rotations like cell updates always have.

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"querypricing/internal/market"
)

// killPoint describes one scripted crash.
type killPoint struct {
	name  string
	fault Fault
	// inFlightSurvives: whether the update batch being processed when
	// the crash fires must appear in the recovered state (true exactly
	// when the crash lands after the WAL frame is durable).
	inFlightSurvives bool
	// atSnapshot: the fault fires during the mid-test snapshot write
	// rather than during an update append.
	atSnapshot bool
}

// The PathContains values match on file suffixes (".log" = WAL segment,
// ".tmp" = snapshot temp, ".db" = committed snapshot) rather than the
// "wal-"/"snap-" prefixes: t.TempDir embeds the subtest name in every
// path, so a prefix like "wal-" would also match the directory itself.
var killPoints = []killPoint{
	// Crash midway through writing an update's WAL frame: half the frame
	// reaches disk, the CRC rejects it at recovery, the update is gone —
	// correctly, since it was never acknowledged.
	{name: "torn-wal-append",
		fault:            Fault{Op: FaultOpWrite, PathContains: ".log", N: 2, Mode: TornWrite},
		inFlightSurvives: false},
	// Crash immediately after the WAL fsync, before the in-memory apply:
	// the frame is durable, so recovery must include it even though no
	// acknowledgement was ever sent (the classic WAL-vs-memory gap).
	{name: "crash-after-wal-fsync",
		fault:            Fault{Op: FaultOpSync, PathContains: ".log", N: 2, Mode: CrashAfter},
		inFlightSurvives: true},
	// Crash midway through the snapshot temp file: the torn temp is
	// ignored (never renamed), recovery comes from the previous snapshot
	// plus the full WAL.
	{name: "torn-snapshot-temp",
		fault:      Fault{Op: FaultOpWrite, PathContains: ".tmp", N: 2, Mode: TornWrite},
		atSnapshot: true},
	// Crash between the snapshot's commit rename and the WAL rotation:
	// the new snapshot and the old WAL coexist; sequence numbers make
	// replay exactly-once on top of it.
	{name: "crash-after-snapshot-rename",
		fault:      Fault{Op: FaultOpRename, PathContains: ".db", N: 2, Mode: CrashAfter},
		atSnapshot: true},
}

// TestKillPointMatrix drives the persistence protocol into each scripted
// crash on each workload, recovers from the directory with a healthy
// filesystem, and asserts byte-identical quotes against the uninterrupted
// reference.
func TestKillPointMatrix(t *testing.T) {
	for _, w := range []string{"skewed", "uniform", "ssb", "tpch"} {
		w := w
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			db, qs := scenario(t, w)
			for _, kp := range killPoints {
				kp := kp
				t.Run(kp.name, func(t *testing.T) {
					// ref is both the broker being persisted and the
					// uninterrupted reference: a batch is applied to it
					// exactly when the durable history will contain it.
					ref := calibratedBroker(t, db, qs)
					rng := rand.New(rand.NewSource(int64(len(w) + len(kp.name))))

					dir := filepath.Join(t.TempDir(), "data")
					ffs := NewFaultFS(OSFS{})
					ffs.Inject(kp.fault)
					st, err := OpenFS(dir, ffs)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := st.Load(); err != nil {
						t.Fatal(err)
					}
					if err := st.WriteSnapshot(ref.Snapshot()); err != nil {
						t.Fatal(err)
					}

					// Update u1 lands cleanly at every kill point.
					u1 := randomDML(rng, ref.DB(), 3)
					if err := st.AppendUpdate(ref.Version()+1, u1); err != nil {
						t.Fatalf("u1 append: %v", err)
					}
					if _, _, err := ref.Update(u1); err != nil {
						t.Fatal(err)
					}

					if kp.atSnapshot {
						// u2 also lands; the crash fires inside the
						// snapshot write that follows.
						u2 := randomDML(rng, ref.DB(), 3)
						if err := st.AppendUpdate(ref.Version()+1, u2); err != nil {
							t.Fatalf("u2 append: %v", err)
						}
						if _, _, err := ref.Update(u2); err != nil {
							t.Fatal(err)
						}
						if err := st.WriteSnapshot(ref.Snapshot()); err == nil {
							t.Fatal("snapshot write survived its kill point")
						}
					} else {
						// The crash fires inside u2's append.
						u2 := randomDML(rng, ref.DB(), 3)
						err := st.AppendUpdate(ref.Version()+1, u2)
						if err == nil {
							t.Fatal("u2 append survived its kill point")
						}
						if kp.inFlightSurvives {
							// Durable but unacknowledged: recovery will
							// replay it, so the reference includes it.
							if _, _, err := ref.Update(u2); err != nil {
								t.Fatal(err)
							}
						}
					}
					if !ffs.Fired() {
						t.Fatalf("fault script did not fire; ops: %v", ffs.Log())
					}
					if !ffs.Crashed() {
						t.Fatal("kill point did not crash the simulated process")
					}
					// The dead process can do nothing further.
					if err := st.AppendUpdate(ref.Version()+1, randomDML(rng, ref.DB(), 1)); err == nil {
						t.Fatal("append succeeded after the crash")
					}
					st.Close()

					// Recovery with a healthy filesystem.
					st2, restored, _ := reopen(t, dir, 2)
					defer st2.Close()
					assertSameBroker(t, kp.name, ref, restored, qs)

					// The recovered store keeps working: one more durable
					// update, one more recovery.
					u3 := randomDML(rng, restored.DB(), 2)
					if err := st2.AppendUpdate(restored.Version()+1, u3); err != nil {
						t.Fatalf("post-recovery append: %v", err)
					}
					if _, _, err := restored.Update(u3); err != nil {
						t.Fatal(err)
					}
					st2.Close()
					st3, again, _ := reopen(t, dir, 1)
					defer st3.Close()
					assertSameBroker(t, kp.name+"/post-recovery", restored, again, qs)
				})
			}
		})
	}
}

// TestENOSPCRefusesWritesThenHeals: a full disk during a WAL append
// refuses the update (nothing acknowledged, nothing half-applied), the
// partial frame is rolled back, and the store heals on the next append
// once space is available again.
func TestENOSPCRefusesWritesThenHeals(t *testing.T) {
	db, qs := scenario(t, "skewed")
	ref := calibratedBroker(t, db, qs)
	rng := rand.New(rand.NewSource(21))

	dir := filepath.Join(t.TempDir(), "data")
	ffs := NewFaultFS(OSFS{})
	ffs.Inject(Fault{Op: FaultOpWrite, PathContains: ".log", N: 1, Mode: FailENOSPC})
	st, err := OpenFS(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Load(); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(ref.Snapshot()); err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(ref, st, ManagerOptions{})

	u1 := randomChanges(rng, ref.DB(), 2)
	if _, _, err := mgr.Update(u1); !errors.Is(err, ErrDegraded) {
		t.Fatalf("ENOSPC update: %v, want ErrDegraded", err)
	}
	if ref.Version() != 0 {
		t.Fatalf("refused update advanced the broker to version %d", ref.Version())
	}
	if deg, msg := mgr.Degraded(); !deg || msg == "" {
		t.Fatalf("not degraded after ENOSPC (deg=%v msg=%q)", deg, msg)
	}
	// Purchases are refused while degraded.
	if _, _, err := mgr.Purchase(qs[0], 1e18); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded purchase: %v, want ErrDegraded", err)
	}

	// The disk heals; the same update goes through and clears the flag.
	if _, _, err := mgr.Update(u1); err != nil {
		t.Fatalf("healed update: %v", err)
	}
	if deg, _ := mgr.Degraded(); deg {
		t.Fatal("still degraded after successful durable update")
	}
	st.Close()

	st2, restored, _ := reopen(t, dir, 1)
	defer st2.Close()
	assertSameBroker(t, "enospc-heal", ref, restored, qs)
}

// TestBrokenWALRotatesAway: when a failed append cannot be rolled back,
// the segment is fenced (ErrWALBroken) so no record is ever appended
// after a suspect tail — and a snapshot rotation brings the store back.
func TestBrokenWALRotatesAway(t *testing.T) {
	db, qs := scenario(t, "uniform")
	ref := calibratedBroker(t, db, qs)
	rng := rand.New(rand.NewSource(22))

	dir := filepath.Join(t.TempDir(), "data")
	ffs := NewFaultFS(OSFS{})
	ffs.Inject(Fault{Op: FaultOpWrite, PathContains: ".log", N: 1, Mode: ShortWrite})
	ffs.Inject(Fault{Op: FaultOpTruncate, PathContains: ".log", N: 1, Mode: FailIO})
	st, err := OpenFS(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Load(); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(ref.Snapshot()); err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(ref, st, ManagerOptions{})

	u1 := randomChanges(rng, ref.DB(), 2)
	if _, _, err := mgr.Update(u1); !errors.Is(err, ErrDegraded) {
		t.Fatalf("short write update: %v, want ErrDegraded", err)
	}
	// The segment is fenced: even with a healthy disk, appends refuse.
	if _, _, err := mgr.Update(u1); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append on broken WAL: %v, want ErrDegraded", err)
	}
	if !st.Stats().WALBroken {
		t.Fatal("WAL not marked broken")
	}

	// A snapshot rotates to a fresh segment and clears everything.
	if err := mgr.Snapshot(); err != nil {
		t.Fatalf("rotating snapshot: %v", err)
	}
	if st.Stats().WALBroken {
		t.Fatal("WAL still broken after rotation")
	}
	if deg, _ := mgr.Degraded(); deg {
		t.Fatal("still degraded after rotation")
	}
	if _, _, err := mgr.Update(u1); err != nil {
		t.Fatalf("update after rotation: %v", err)
	}
	st.Close()

	st2, restored, _ := reopen(t, dir, 2)
	defer st2.Close()
	assertSameBroker(t, "broken-wal-rotation", ref, restored, qs)
}

// TestRecoveredQuotesDeterministicUnderConcurrency exercises the
// recovered broker under parallel quoting (the -race payoff: restored
// state is as share-safe as built state).
func TestRecoveredQuotesDeterministicUnderConcurrency(t *testing.T) {
	db, qs := scenario(t, "ssb")
	ref := calibratedBroker(t, db, qs)
	rng := rand.New(rand.NewSource(23))

	dir := filepath.Join(t.TempDir(), "data")
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(ref.Snapshot()); err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(ref, st, ManagerOptions{})
	if _, _, err := mgr.Update(randomChanges(rng, ref.DB(), 3)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, restored, _ := reopen(t, dir, 0)
	defer st2.Close()
	want, err := ref.QuoteBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []market.Quote, 4)
	for i := 0; i < 4; i++ {
		go func() {
			got, err := restored.QuoteBatch(qs)
			if err != nil {
				t.Error(err)
			}
			done <- got
		}()
	}
	for i := 0; i < 4; i++ {
		got := <-done
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("concurrent restored quote %d: %+v != %+v", j, got[j], want[j])
			}
		}
	}
}
