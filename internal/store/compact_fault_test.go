package store

// The compaction kill-point matrix: a compaction epoch is one WAL
// record (write-ahead, like updates) plus a best-effort snapshot roll,
// so a crash at any point in that protocol must recover to a state
// byte-identical to an uninterrupted broker holding exactly the durable
// prefix — the epoch is either absent (torn record: never acknowledged)
// or applied exactly once (durable record: replayed through the strict
// spec validation, or absorbed by the committed snapshot and never
// replayed again). Crossed with all four workloads, plus an ENOSPC leg
// at the Manager layer: a full disk refuses the epoch, leaves the
// broker uncompacted, and trips read-only degradation until the disk
// heals.

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"querypricing/internal/market"
)

// compactKillPoint scripts one crash inside the compaction protocol.
type compactKillPoint struct {
	name  string
	fault Fault
	// epochSurvives: the compact record reached durable storage before
	// the crash, so recovery must include the epoch.
	epochSurvives bool
	// atSnapshot: the fault fires inside the post-compaction snapshot
	// write, after the epoch is already durable in the WAL.
	atSnapshot bool
	// replayedEpochs: the ReplayedCompactions count recovery must
	// report (0 when the epoch is torn away or already absorbed by a
	// committed snapshot).
	replayedEpochs int
}

var compactKillPoints = []compactKillPoint{
	// Crash midway through the compact record's WAL frame: the torn
	// record fails its CRC at recovery and the epoch vanishes —
	// correctly, since it was never acknowledged.
	{name: "torn-compact-record",
		fault:         Fault{Op: FaultOpWrite, PathContains: ".log", N: 1, Mode: TornWrite},
		epochSurvives: false, replayedEpochs: 0},
	// Crash immediately after the compact record's fsync, before the
	// in-memory rewrite: the record is durable, so recovery must replay
	// the epoch even though no acknowledgement was sent.
	{name: "crash-after-compact-fsync",
		fault:         Fault{Op: FaultOpSync, PathContains: ".log", N: 1, Mode: CrashAfter},
		epochSurvives: true, replayedEpochs: 1},
	// Crash midway through the post-compaction snapshot temp: the torn
	// temp is ignored, recovery comes from the previous snapshot plus a
	// WAL that includes the epoch — replayed exactly once.
	{name: "torn-post-compaction-snapshot",
		fault:         Fault{Op: FaultOpWrite, PathContains: ".tmp", N: 1, Mode: TornWrite},
		epochSurvives: true, atSnapshot: true, replayedEpochs: 1},
	// Crash between the post-compaction snapshot's commit rename and
	// the WAL rotation: the snapshot already absorbed the epoch, and
	// LastSeq keeps the old WAL's compact record from applying twice.
	{name: "crash-after-post-compaction-rename",
		fault:         Fault{Op: FaultOpRename, PathContains: ".db", N: 1, Mode: CrashAfter},
		epochSurvives: true, atSnapshot: true, replayedEpochs: 0},
}

// churnTombstones drives mixed DML through the store+reference pair
// until the database has tombstones to compact.
func churnTombstones(t *testing.T, st *Store, ref *market.Broker, rng *rand.Rand) {
	t.Helper()
	for i := 0; i < 12; i++ {
		u := randomDML(rng, ref.DB(), 4)
		if err := st.AppendUpdate(ref.Version()+1, u); err != nil {
			t.Fatalf("churn append %d: %v", i, err)
		}
		if _, _, err := ref.Update(u); err != nil {
			t.Fatal(err)
		}
		if specs, err := ref.DB().PlanCompaction(nil); err == nil && len(specs) > 0 && i >= 2 {
			return
		}
	}
	t.Fatal("churn never produced a tombstone")
}

// TestCompactKillPointMatrix drives a compaction epoch into each
// scripted crash on each workload, recovers with a healthy filesystem,
// and asserts byte-identical quotes against the uninterrupted
// reference holding exactly the durable history.
func TestCompactKillPointMatrix(t *testing.T) {
	for _, w := range []string{"skewed", "uniform", "ssb", "tpch"} {
		w := w
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			db, qs := scenario(t, w)
			for _, kp := range compactKillPoints {
				kp := kp
				t.Run(kp.name, func(t *testing.T) {
					ref := calibratedBroker(t, db, qs)
					rng := rand.New(rand.NewSource(int64(len(w) + len(kp.name))))

					dir := filepath.Join(t.TempDir(), "data")
					ffs := NewFaultFS(OSFS{})
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
					churnTombstones(t, st, ref, rng)
					specs, err := ref.DB().PlanCompaction(nil)
					if err != nil || len(specs) == 0 {
						t.Fatalf("PlanCompaction: %d specs, err %v", len(specs), err)
					}

					// Arm the fault only now: the epoch's own writes are
					// the first ones it can see.
					ffs.Inject(kp.fault)
					if kp.atSnapshot {
						// The compact record lands durably; the crash
						// fires inside the snapshot roll that follows.
						if err := st.AppendCompact(ref.Version()+1, specs); err != nil {
							t.Fatalf("compact append: %v", err)
						}
						if _, err := ref.Compact(specs); err != nil {
							t.Fatal(err)
						}
						if err := st.WriteSnapshot(ref.Snapshot()); err == nil {
							t.Fatal("post-compaction snapshot survived its kill point")
						}
					} else {
						if err := st.AppendCompact(ref.Version()+1, specs); err == nil {
							t.Fatal("compact append survived its kill point")
						}
						if kp.epochSurvives {
							// Durable but unacknowledged: recovery will
							// replay it, so the reference applies it.
							if _, err := ref.Compact(specs); err != nil {
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
					st.Close()

					// Recovery with a healthy filesystem.
					st2, restored, res := reopen(t, dir, 2)
					defer st2.Close()
					if res.ReplayedCompactions != kp.replayedEpochs {
						t.Fatalf("replayed %d compactions, want %d", res.ReplayedCompactions, kp.replayedEpochs)
					}
					wantEpochs := uint64(0)
					if kp.epochSurvives {
						wantEpochs = 1
					}
					if restored.Compactions() != wantEpochs {
						t.Fatalf("recovered Compactions() = %d, want %d", restored.Compactions(), wantEpochs)
					}
					assertSameBroker(t, kp.name, ref, restored, qs)

					// The recovered store keeps working: more DML, a
					// fresh epoch, one more recovery.
					churnTombstones(t, st2, restored, rng)
					specs2, err := restored.DB().PlanCompaction(nil)
					if err != nil || len(specs2) == 0 {
						t.Fatalf("post-recovery PlanCompaction: %d specs, err %v", len(specs2), err)
					}
					if err := st2.AppendCompact(restored.Version()+1, specs2); err != nil {
						t.Fatalf("post-recovery compact append: %v", err)
					}
					if _, err := restored.Compact(specs2); err != nil {
						t.Fatal(err)
					}
					st2.Close()
					st3, again, _ := reopen(t, dir, 1)
					defer st3.Close()
					if again.Compactions() != restored.Compactions() {
						t.Fatalf("post-recovery Compactions() = %d, want %d",
							again.Compactions(), restored.Compactions())
					}
					assertSameBroker(t, kp.name+"/post-recovery", restored, again, qs)
				})
			}
		})
	}
}

// TestCompactReplayAfterMoreDML: updates appended after a durable
// compaction epoch replay on top of the compacted (renumbered) slot
// layout — the epoch re-anchors every later record's coordinates.
func TestCompactReplayAfterMoreDML(t *testing.T) {
	db, qs := scenario(t, "skewed")
	ref := calibratedBroker(t, db, qs)
	rng := rand.New(rand.NewSource(67))

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
	churnTombstones(t, st, ref, rng)
	specs, err := ref.DB().PlanCompaction(nil)
	if err != nil || len(specs) == 0 {
		t.Fatalf("PlanCompaction: %d specs, err %v", len(specs), err)
	}
	if err := st.AppendCompact(ref.Version()+1, specs); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Compact(specs); err != nil {
		t.Fatal(err)
	}
	// Post-epoch DML speaks compacted coordinates; replay must too.
	for i := 0; i < 3; i++ {
		u := randomDML(rng, ref.DB(), 3)
		if err := st.AppendUpdate(ref.Version()+1, u); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ref.Update(u); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	st2, restored, res := reopen(t, dir, 2)
	defer st2.Close()
	if res.ReplayedCompactions != 1 {
		t.Fatalf("replayed %d compactions, want 1", res.ReplayedCompactions)
	}
	if restored.Compactions() != 1 {
		t.Fatalf("recovered Compactions() = %d, want 1", restored.Compactions())
	}
	assertSameBroker(t, "compact-then-dml", ref, restored, qs)
}

// TestCompactENOSPCDegradesUncompacted: a full disk during the compact
// record's append refuses the epoch entirely — the broker stays
// uncompacted (tombstones intact, version unchanged), the manager goes
// read-only, and the next successful epoch heals it.
func TestCompactENOSPCDegradesUncompacted(t *testing.T) {
	db, qs := scenario(t, "skewed")
	ref := calibratedBroker(t, db, qs)
	rng := rand.New(rand.NewSource(71))

	dir := filepath.Join(t.TempDir(), "data")
	ffs := NewFaultFS(OSFS{})
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
	for i := 0; i < 12; i++ {
		if _, _, err := mgr.Update(randomDML(rng, ref.DB(), 4)); err != nil {
			t.Fatal(err)
		}
		if specs, err := ref.DB().PlanCompaction(nil); err == nil && len(specs) > 0 && i >= 2 {
			break
		}
	}
	preVersion := ref.Version()
	tombstones := 0
	for _, ts := range ref.TableStats() {
		tombstones += ts.Tombstones
	}
	if tombstones == 0 {
		t.Fatal("churn never produced a tombstone")
	}

	ffs.Inject(Fault{Op: FaultOpWrite, PathContains: ".log", N: 1, Mode: FailENOSPC})
	if _, err := mgr.Compact(nil); !errors.Is(err, ErrDegraded) {
		t.Fatalf("ENOSPC compact: %v, want ErrDegraded", err)
	}
	if ref.Version() != preVersion || ref.Compactions() != 0 {
		t.Fatalf("refused epoch mutated the broker: version %d->%d, compactions %d",
			preVersion, ref.Version(), ref.Compactions())
	}
	after := 0
	for _, ts := range ref.TableStats() {
		after += ts.Tombstones
	}
	if after != tombstones {
		t.Fatalf("refused epoch changed tombstones: %d -> %d", tombstones, after)
	}
	if deg, msg := mgr.Degraded(); !deg || msg == "" {
		t.Fatalf("not degraded after ENOSPC (deg=%v msg=%q)", deg, msg)
	}
	// Quotes still serve while degraded; purchases are refused.
	if _, err := ref.Quote(qs[0]); err != nil {
		t.Fatalf("degraded quote: %v", err)
	}
	if _, _, err := mgr.Purchase(qs[0], 1e18); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded purchase: %v, want ErrDegraded", err)
	}

	// The disk heals: the same epoch goes through and clears the flag.
	if _, err := mgr.Compact(nil); err != nil {
		t.Fatalf("healed compact: %v", err)
	}
	if deg, _ := mgr.Degraded(); deg {
		t.Fatal("still degraded after successful durable epoch")
	}
	st.Close()

	st2, restored, _ := reopen(t, dir, 1)
	defer st2.Close()
	if restored.Compactions() != 1 {
		t.Fatalf("recovered Compactions() = %d, want 1", restored.Compactions())
	}
	assertSameBroker(t, "compact-enospc-heal", ref, restored, qs)
}
