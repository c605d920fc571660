// Package store persists broker state to a data directory so a restarted
// broker serves byte-identical quotes at the pinned version without
// re-running calibration or conflict-set construction — the multi-second
// part of startup. It is the durability layer under cmd/marketd.
//
// The on-disk layout is a classic snapshot + write-ahead log:
//
//   - snap-<version>.db — a checksummed, atomically written snapshot of
//     the full market.BrokerSnapshot (versioned base database, support
//     neighbors, calibrated pricing, sales log), named by the database
//     version it captures;
//   - wal-<epoch>.log — an append-only, CRC-framed log of the update
//     batches and sale receipts that happened after the snapshot of
//     version <epoch>. Every record carries a store-wide sequence number
//     (LSN); snapshots record the last sequence they absorbed, so replay
//     is exactly-once even across interrupted snapshot rotations.
//
// Recovery (Load) picks the newest snapshot that passes its checksum —
// falling back to the previous one if the newest was torn by a crash —
// replays every WAL segment at or after its epoch, drops a torn tail at
// the first corrupt frame exactly as a crashed append would require, and
// returns a BrokerSnapshot ready for market.Restore. All file I/O goes
// through the FS interface; FaultFS (faultfs.go) injects torn writes,
// short writes, ENOSPC and crashes at precise protocol points, and the
// recovery tests assert byte-identity with an uninterrupted broker across
// every kill point. See docs/OPERATIONS.md for the operational story.
package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"querypricing/internal/market"
	"querypricing/internal/relational"
	"querypricing/internal/support"
)

// ErrNoWAL is returned by appends before the store has a snapshot (and
// therefore an active WAL segment): bootstrap must call WriteSnapshot
// first so there is a base state for the log to be relative to.
var ErrNoWAL = errors.New("store: no active WAL (write a snapshot first)")

// ErrWALBroken is returned by appends after a failed append could not be
// rolled back: the segment's tail is suspect, so the store refuses to
// extend it. A successful WriteSnapshot rotates to a fresh segment and
// clears the condition.
var ErrWALBroken = errors.New("store: WAL segment broken; snapshot to rotate")

// Store is a broker state store rooted at one data directory. Methods
// are safe for concurrent use, but the caller must serialize appends
// against the in-memory broker state they describe (store.Manager does).
type Store struct {
	dir string
	fs  FS

	mu        sync.Mutex
	seq       uint64 // last assigned record sequence number
	snapVer   uint64
	snapTime  time.Time
	snapBytes int64
	loaded    bool

	wal        File // active segment, nil before the first snapshot
	walPath    string
	walEpoch   uint64
	walBytes   int64
	walRecords int
	walTime    time.Time // last append (or segment creation)
	walBroken  bool

	// syncObserver, when set, is called after every successful fsync with
	// the op ("wal" for record appends, "snapshot" for snapshot commits)
	// and its duration. Serving layers hook it to export fsync latency;
	// the store itself has no metrics dependency.
	syncObserver func(op string, d time.Duration)
}

// SetSyncObserver installs the fsync-latency hook (nil removes it). Call
// it before the store starts serving appends; the callback runs with the
// store's mutex held and must not call back into the store.
func (s *Store) SetSyncObserver(fn func(op string, d time.Duration)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncObserver = fn
}

// Open opens (creating if needed) a data directory on the real
// filesystem.
func Open(dir string) (*Store, error) { return OpenFS(dir, OSFS{}) }

// OpenFS is Open over an explicit FS implementation (fault injection).
func OpenFS(dir string, fsys FS) (*Store, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	return &Store{dir: dir, fs: fsys}, nil
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// LoadResult describes what recovery found.
type LoadResult struct {
	// Snapshot is the recovered broker state with every intact WAL
	// record already applied: pass it to market.Restore. Nil when the
	// directory holds no snapshot (fresh bootstrap).
	Snapshot *market.BrokerSnapshot
	// SnapshotVersion is the version of the snapshot file recovery
	// started from (Snapshot.Version includes replayed updates on top).
	SnapshotVersion uint64
	// ReplayedUpdates, ReplayedReceipts and ReplayedCompactions count the
	// WAL records applied on top of the snapshot file.
	ReplayedUpdates     int
	ReplayedReceipts    int
	ReplayedCompactions int
	// SkippedSnapshots counts newer snapshot files that failed their
	// checksum and were passed over (torn by a crash mid-write).
	SkippedSnapshots int
	// TornBytes is the total size of WAL tails dropped at corrupt
	// frames, the residue of appends interrupted mid-write.
	TornBytes int64
}

// snapName/walName render and parse the directory's file names.
func snapName(version uint64) string { return fmt.Sprintf("snap-%016x.db", version) }
func walName(epoch uint64) string    { return fmt.Sprintf("wal-%016x.log", epoch) }

func parseArtifact(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	var v uint64
	if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), "%016x", &v); err != nil {
		return 0, false
	}
	return v, true
}

// scan lists the directory's snapshot versions (descending) and WAL
// epochs (ascending).
func (s *Store) scan() (snaps, wals []uint64, err error) {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: reading %s: %w", s.dir, err)
	}
	for _, name := range names {
		if v, ok := parseArtifact(name, "snap-", ".db"); ok {
			snaps = append(snaps, v)
		}
		if v, ok := parseArtifact(name, "wal-", ".log"); ok {
			wals = append(wals, v)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	return snaps, wals, nil
}

// Load recovers the directory's state: newest intact snapshot, plus the
// replayable prefix of every WAL segment at or after its epoch. It also
// arms the store for appends by adopting the newest WAL segment (torn
// tails are truncated away first). Load must be called exactly once,
// before any append; an empty directory yields a nil Snapshot and the
// expectation that the caller bootstraps and calls WriteSnapshot.
func (s *Store) Load() (LoadResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var res LoadResult
	if s.loaded {
		return res, fmt.Errorf("store: Load called twice")
	}
	s.loaded = true

	snaps, wals, err := s.scan()
	if err != nil {
		return res, err
	}
	if len(snaps) == 0 {
		return res, nil // fresh directory: bootstrap
	}

	// Newest snapshot that decodes in full; a torn newest file (crash
	// mid-write never committed by rename, or a corrupted disk) falls
	// back to its predecessor, whose WAL chain still reaches the present.
	var (
		base    market.BrokerSnapshot
		baseSeq uint64
		baseVer uint64
		found   bool
	)
	for _, v := range snaps {
		data, err := s.fs.ReadFile(filepath.Join(s.dir, snapName(v)))
		if err == nil {
			if bs, seq, derr := decodeSnapshot(data); derr == nil {
				base, baseSeq, baseVer, found = bs, seq, v, true
				s.snapBytes = int64(len(data))
				break
			}
		}
		res.SkippedSnapshots++
	}
	if !found {
		return res, fmt.Errorf("store: %s: no snapshot passed validation (%d candidates)", s.dir, len(snaps))
	}
	res.SnapshotVersion = baseVer
	s.snapVer = baseVer
	s.seq = baseSeq
	if _, mtime, err := s.fs.Stat(filepath.Join(s.dir, snapName(baseVer))); err == nil {
		s.snapTime = mtime
	} else {
		s.snapTime = time.Now()
	}

	// Replay the WAL chain: every segment at or after the snapshot's
	// epoch, ascending. Records up to the snapshot's LastSeq are already
	// absorbed; later ones must chain strictly (a gap means a foreign or
	// mangled directory, not a torn write — refuse rather than guess).
	db := base.DB
	for _, epoch := range wals {
		if epoch < baseVer {
			continue
		}
		path := filepath.Join(s.dir, walName(epoch))
		data, err := s.fs.ReadFile(path)
		if err != nil {
			return res, fmt.Errorf("store: reading %s: %w", path, err)
		}
		recs, goodLen, err := decodeWAL(data)
		if err != nil {
			return res, fmt.Errorf("store: %s: %w", path, err)
		}
		res.TornBytes += int64(len(data)) - goodLen
		for _, rec := range recs {
			if rec.Seq <= s.seq {
				continue // absorbed by a later snapshot than this segment
			}
			if rec.Seq != s.seq+1 {
				return res, fmt.Errorf("store: %s: sequence gap: record %d after %d", path, rec.Seq, s.seq)
			}
			switch rec.Kind {
			case recUpdate:
				next, err := db.Apply(rec.Changes)
				if err != nil {
					return res, fmt.Errorf("store: %s: replaying update seq %d: %w", path, rec.Seq, err)
				}
				if next.Version() != rec.Version {
					return res, fmt.Errorf("store: %s: update seq %d produced version %d, record says %d",
						path, rec.Seq, next.Version(), rec.Version)
				}
				db = next
				res.ReplayedUpdates++
			case recReceipt:
				if rec.Receipt == nil {
					return res, fmt.Errorf("store: %s: receipt record seq %d has no receipt", path, rec.Seq)
				}
				base.Sales = append(base.Sales, *rec.Receipt)
				base.Revenue += rec.Receipt.Price
				res.ReplayedReceipts++
			case recCompact:
				// Recompute the epoch's rewrite from its durable specs; the
				// strict validation inside Compact doubles as a consistency
				// check — a record that does not match the replayed state is
				// refused, never misapplied. The support neighbors re-home
				// through the recomputed slot map exactly as the live
				// compaction re-homed them.
				next, maps, err := db.Compact(rec.Specs)
				if err != nil {
					return res, fmt.Errorf("store: %s: replaying compaction seq %d: %w", path, rec.Seq, err)
				}
				if next.Version() != rec.Version {
					return res, fmt.Errorf("store: %s: compaction seq %d produced version %d, record says %d",
						path, rec.Seq, next.Version(), rec.Version)
				}
				base.Neighbors, _, _ = support.RemapNeighbors(base.Neighbors, maps)
				db = next
				base.Compactions++
				res.ReplayedCompactions++
			default:
				return res, fmt.Errorf("store: %s: unknown record kind %q (seq %d)", path, rec.Kind, rec.Seq)
			}
			s.seq = rec.Seq
		}
	}
	base.DB = db
	base.Version = db.Version()

	// Adopt the newest segment for appends, truncating any torn tail so
	// new records extend the intact prefix. The active epoch is the max
	// of the chosen snapshot and the newest segment on disk (the latter
	// wins after a crash between snapshot rename and WAL rotation is
	// repaired by the next WriteSnapshot).
	activeEpoch := baseVer
	if n := len(wals); n > 0 && wals[n-1] > activeEpoch {
		activeEpoch = wals[n-1]
	}
	if err := s.armWALLocked(activeEpoch, true); err != nil {
		return res, err
	}

	out := base
	res.Snapshot = &out
	return res, nil
}

// armWALLocked opens (creating if missing) the segment for epoch as the
// active append target. With truncateTorn set, a torn tail is cut off
// first; otherwise the segment is truncated to empty (rotation after a
// snapshot, whose state already absorbs every record).
func (s *Store) armWALLocked(epoch uint64, truncateTorn bool) error {
	if s.wal != nil {
		_ = s.wal.Close()
		s.wal = nil
	}
	path := filepath.Join(s.dir, walName(epoch))
	size := int64(0)
	if sz, mtime, err := s.fs.Stat(path); err == nil {
		size = sz
		s.walTime = mtime
	} else {
		s.walTime = time.Now()
	}
	if truncateTorn && size > 0 {
		data, err := s.fs.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: reading %s: %w", path, err)
		}
		_, goodLen, err := decodeWAL(data)
		if err != nil {
			return fmt.Errorf("store: %s: %w", path, err)
		}
		if goodLen < int64(len(data)) {
			if err := s.fs.Truncate(path, goodLen); err != nil {
				return fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
			}
		}
		size = goodLen
	} else if !truncateTorn && size > 0 {
		if err := s.fs.Truncate(path, 0); err != nil {
			return fmt.Errorf("store: resetting %s: %w", path, err)
		}
		size = 0
	}
	f, err := s.fs.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("store: opening %s: %w", path, err)
	}
	s.wal, s.walPath, s.walEpoch, s.walBytes, s.walBroken = f, path, epoch, size, false
	s.walRecords = 0
	return nil
}

// WriteSnapshot atomically persists a full broker state and rotates the
// WAL: the snapshot is written to a temp file, fsynced, renamed into
// place and the directory fsynced (the rename is the commit point), then
// a fresh segment for the snapshot's version becomes the append target
// and obsolete artifacts are pruned. On any error before the rename the
// directory still recovers to exactly the pre-call state; after the
// rename, to the new snapshot. A successful rotation clears a broken-WAL
// condition.
func (s *Store) WriteSnapshot(bs market.BrokerSnapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	enc, err := encodeSnapshot(bs, s.seq)
	if err != nil {
		return err
	}
	final := filepath.Join(s.dir, snapName(bs.Version))
	tmp := final + ".tmp"
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", tmp, err)
	}
	if _, err := f.Write(enc); err != nil {
		_ = f.Close()
		return fmt.Errorf("store: writing %s: %w", tmp, err)
	}
	syncStart := time.Now()
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("store: syncing %s: %w", tmp, err)
	}
	if s.syncObserver != nil {
		s.syncObserver("snapshot", time.Since(syncStart))
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: closing %s: %w", tmp, err)
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		return fmt.Errorf("store: committing %s: %w", final, err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("store: syncing %s: %w", s.dir, err)
	}
	s.snapVer, s.snapTime, s.snapBytes = bs.Version, time.Now(), int64(len(enc))

	// Rotate: new records are relative to the snapshot just committed,
	// and any existing content of its segment is already absorbed by it
	// (LastSeq makes replay exactly-once even if this reset is lost to a
	// crash).
	if err := s.armWALLocked(bs.Version, false); err != nil {
		return err
	}
	s.pruneLocked()
	return nil
}

// pruneLocked removes obsolete artifacts: every snapshot older than the
// previous one (the newest is the working state, its predecessor the
// fallback), WAL segments older than the oldest kept snapshot, and stray
// temp files. Failures are ignored — pruning is an optimization, never a
// correctness step.
func (s *Store) pruneLocked() {
	snaps, wals, err := s.scan()
	if err != nil {
		return
	}
	keepFrom := uint64(0)
	if len(snaps) > 0 {
		keepFrom = snaps[0]
		if len(snaps) > 1 {
			keepFrom = snaps[1]
		}
	}
	for _, v := range snaps {
		if v < keepFrom {
			_ = s.fs.Remove(filepath.Join(s.dir, snapName(v)))
		}
	}
	for _, e := range wals {
		if e < keepFrom {
			_ = s.fs.Remove(filepath.Join(s.dir, walName(e)))
		}
	}
	// Stray temp files are snapshot writes a crash interrupted before
	// their rename; the mutex serializes snapshot writes, so by this
	// point none is live.
	if names, err := s.fs.ReadDir(s.dir); err == nil {
		for _, name := range names {
			if strings.HasSuffix(name, ".tmp") {
				_ = s.fs.Remove(filepath.Join(s.dir, name))
			}
		}
	}
}

// appendLocked durably appends one framed record, assigning it the next
// sequence number and stamping it walFmt. A failed write is rolled back by truncating the
// segment to its pre-append size; if even that fails the segment is
// marked broken and every further append fails with ErrWALBroken until a
// snapshot rotates it away.
func (s *Store) appendLocked(rec walRecord) error {
	if s.wal == nil {
		return ErrNoWAL
	}
	if s.walBroken {
		return ErrWALBroken
	}
	rec.Seq, rec.Fmt = s.seq+1, walFmt
	frame, err := encodeWALRecord(rec)
	if err != nil {
		return err
	}
	if _, werr := s.wal.Write(frame); werr != nil {
		if terr := s.fs.Truncate(s.walPath, s.walBytes); terr != nil {
			s.walBroken = true
			return fmt.Errorf("store: WAL append failed (%v) and rollback failed: %w", werr, terr)
		}
		return fmt.Errorf("store: WAL append: %w", werr)
	}
	syncStart := time.Now()
	if serr := s.wal.Sync(); serr != nil {
		// The frame may or may not have reached disk; it is intact either
		// way (CRC decides at recovery), but we cannot acknowledge it.
		if terr := s.fs.Truncate(s.walPath, s.walBytes); terr != nil {
			s.walBroken = true
			return fmt.Errorf("store: WAL sync failed (%v) and rollback failed: %w", serr, terr)
		}
		return fmt.Errorf("store: WAL sync: %w", serr)
	}
	if s.syncObserver != nil {
		s.syncObserver("wal", time.Since(syncStart))
	}
	s.seq = rec.Seq
	s.walBytes += int64(len(frame))
	s.walRecords++
	s.walTime = time.Now()
	return nil
}

// AppendUpdate durably logs one update batch before it is applied in
// memory (write-ahead): version is the database version the batch will
// produce. Returns only after the record is fsynced.
func (s *Store) AppendUpdate(version uint64, changes []relational.CellChange) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(walRecord{Kind: recUpdate, Version: version, Changes: changes})
}

// AppendCompact durably logs one compaction epoch before it is applied
// in memory (write-ahead): version is the database version the
// compaction will produce, specs the per-table rewrite it was planned
// with. Returns only after the record is fsynced.
func (s *Store) AppendCompact(version uint64, specs []relational.CompactSpec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(walRecord{Kind: recCompact, Version: version, Specs: specs})
}

// AppendReceipt durably logs one completed sale.
func (s *Store) AppendReceipt(r market.Receipt) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(walRecord{Kind: recReceipt, Receipt: &r})
}

// Stats is a point-in-time view of the store's on-disk state, surfaced
// by marketd's /stats endpoint.
type Stats struct {
	Dir             string  `json:"dir"`
	SnapshotVersion uint64  `json:"snapshot_version"`
	SnapshotAgeSec  float64 `json:"snapshot_age_sec"`
	SnapshotBytes   int64   `json:"snapshot_bytes"`
	WALEpoch        uint64  `json:"wal_epoch"`
	WALBytes        int64   `json:"wal_bytes"`
	WALRecords      int     `json:"wal_records"`
	WALAgeSec       float64 `json:"wal_age_sec"`
	WALBroken       bool    `json:"wal_broken"`
	LastSeq         uint64  `json:"last_seq"`
}

// Stats reports the store's current on-disk state. WAL age is time since
// the last append (or since the segment was adopted); record counts are
// appends to the active segment this process lifetime.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Dir:             s.dir,
		SnapshotVersion: s.snapVer,
		SnapshotBytes:   s.snapBytes,
		WALEpoch:        s.walEpoch,
		WALBytes:        s.walBytes,
		WALRecords:      s.walRecords,
		WALBroken:       s.walBroken,
		LastSeq:         s.seq,
	}
	if !s.snapTime.IsZero() {
		st.SnapshotAgeSec = time.Since(s.snapTime).Seconds()
	}
	if s.wal != nil && !s.walTime.IsZero() {
		st.WALAgeSec = time.Since(s.walTime).Seconds()
	}
	return st
}

// Close releases the active WAL segment. The store is unusable after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		err := s.wal.Close()
		s.wal = nil
		return err
	}
	return nil
}
