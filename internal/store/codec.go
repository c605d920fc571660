package store

// On-disk encodings. Two artifact kinds live in a data directory (see
// docs/OPERATIONS.md):
//
//   - snapshot files, snap-<version:016x>.db: one checksummed JSON
//     document holding a complete market.BrokerSnapshot (base database,
//     support neighbors, calibrated pricing, sales log). Written
//     atomically: temp file + fsync + rename + directory fsync.
//   - WAL segments, wal-<epoch:016x>.log: an append-only sequence of
//     length-prefixed, CRC-checked JSON records (updates and receipts)
//     that happened after the snapshot of version <epoch>.
//
// Both use JSON for the payloads on purpose: the state is small relative
// to the cost of recomputing it (calibration), the encoding round-trips
// float64 exactly (shortest-form rendering), and a human can inspect a
// data directory with standard tools when recovery goes wrong.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"querypricing/internal/market"
	"querypricing/internal/pricing"
	"querypricing/internal/relational"
	"querypricing/internal/support"
)

// snapMagic heads every snapshot file; the trailing digit is the format
// version.
const snapMagic = "QPSNAP1"

// snapshotDoc is the JSON document inside a snapshot file.
type snapshotDoc struct {
	Version uint64
	// LastSeq is the sequence number of the last WAL record this
	// snapshot absorbs: replay skips records at or below it, making
	// recovery exactly-once even when a crash leaves a pre-rotation WAL
	// segment behind.
	LastSeq         uint64
	Tables          []tableDoc
	Neighbors       []support.Neighbor
	Shards          int
	Algorithm       string
	Pricing         *pricingDoc
	ForecastRevenue float64
	Sales           []market.Receipt
	Revenue         float64
	// Compactions is the lifetime count of compaction epochs absorbed by
	// this snapshot. omitempty keeps pre-compaction snapshot files
	// byte-identical until the first epoch lands; after it, a snapshot
	// carrying the field is (deliberately) refused by older binaries —
	// the same forward-incompatibility discipline as a WAL fmt bump.
	Compactions uint64 `json:",omitempty"`
}

// tableDoc flattens a relational table (Database's fields are private by
// design; the store speaks a stable DTO instead).
type tableDoc struct {
	Name string
	Cols []colDoc
	Rows [][]relational.Value
}

// colDoc is one schema column.
type colDoc struct {
	Name string
	Kind uint8
}

// pricingDoc is the calibrated pricing function: exactly the fields of
// pricing.Result a restored broker needs to price bundles (runtime
// diagnostics are dropped).
type pricingDoc struct {
	Algorithm   string
	Revenue     float64
	BundlePrice float64
	Weights     []float64   `json:",omitempty"`
	WeightSets  [][]float64 `json:",omitempty"`
	Extra       string      `json:",omitempty"`
}

// encodeSnapshot renders a BrokerSnapshot as a snapshot file: a one-line
// header carrying the payload's CRC32 and length, then the JSON payload.
func encodeSnapshot(bs market.BrokerSnapshot, lastSeq uint64) ([]byte, error) {
	doc := snapshotDoc{
		Version:         bs.Version,
		LastSeq:         lastSeq,
		Neighbors:       bs.Neighbors,
		Shards:          bs.Shards,
		Algorithm:       string(bs.Algorithm),
		ForecastRevenue: bs.ForecastRevenue,
		Sales:           bs.Sales,
		Revenue:         bs.Revenue,
		Compactions:     bs.Compactions,
	}
	for _, name := range bs.DB.TableNames() {
		t := bs.DB.Table(name)
		td := tableDoc{Name: name, Rows: t.Rows}
		for _, c := range t.Schema.Cols {
			td.Cols = append(td.Cols, colDoc{Name: c.Name, Kind: uint8(c.Kind)})
		}
		doc.Tables = append(doc.Tables, td)
	}
	if bs.Pricing != nil {
		doc.Pricing = &pricingDoc{
			Algorithm:   bs.Pricing.Algorithm,
			Revenue:     bs.Pricing.Revenue,
			BundlePrice: bs.Pricing.BundlePrice,
			Weights:     bs.Pricing.Weights,
			WeightSets:  bs.Pricing.WeightSets,
			Extra:       bs.Pricing.Extra,
		}
	}
	payload, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("store: encoding snapshot: %w", err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s %08x %d\n", snapMagic, crc32.ChecksumIEEE(payload), len(payload))
	buf.Write(payload)
	return buf.Bytes(), nil
}

// decodeSnapshot parses and verifies a snapshot file, rebuilding the
// broker snapshot (including the versioned database) and the last WAL
// sequence it absorbs. Any truncation, checksum mismatch or structural
// problem is an error: a snapshot is valid in full or not at all.
func decodeSnapshot(data []byte) (market.BrokerSnapshot, uint64, error) {
	var bs market.BrokerSnapshot
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return bs, 0, fmt.Errorf("store: snapshot: missing header")
	}
	var magic string
	var sum uint32
	var n int
	if _, err := fmt.Sscanf(string(data[:nl]), "%s %x %d", &magic, &sum, &n); err != nil || magic != snapMagic {
		return bs, 0, fmt.Errorf("store: snapshot: bad header %q", string(data[:nl]))
	}
	payload := data[nl+1:]
	if len(payload) != n {
		return bs, 0, fmt.Errorf("store: snapshot: payload is %d bytes, header says %d (truncated write)", len(payload), n)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return bs, 0, fmt.Errorf("store: snapshot: checksum %08x != header %08x (corrupt)", got, sum)
	}
	var doc snapshotDoc
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return bs, 0, fmt.Errorf("store: snapshot: %w", err)
	}
	db := relational.NewDatabaseAtVersion(doc.Version)
	for _, td := range doc.Tables {
		cols := make([]relational.Column, len(td.Cols))
		for i, c := range td.Cols {
			cols[i] = relational.Column{Name: c.Name, Kind: relational.Kind(c.Kind)}
		}
		t := relational.NewTable(relational.NewSchema(td.Name, cols...))
		t.Rows = td.Rows
		db.AddTable(t)
	}
	bs = market.BrokerSnapshot{
		Version:         doc.Version,
		DB:              db,
		Neighbors:       doc.Neighbors,
		Shards:          doc.Shards,
		Algorithm:       market.Algorithm(doc.Algorithm),
		ForecastRevenue: doc.ForecastRevenue,
		Sales:           doc.Sales,
		Revenue:         doc.Revenue,
		Compactions:     doc.Compactions,
	}
	if doc.Pricing != nil {
		bs.Pricing = &pricing.Result{
			Algorithm:   doc.Pricing.Algorithm,
			Revenue:     doc.Pricing.Revenue,
			BundlePrice: doc.Pricing.BundlePrice,
			Weights:     doc.Pricing.Weights,
			WeightSets:  doc.Pricing.WeightSets,
			Extra:       doc.Pricing.Extra,
		}
	}
	return bs, doc.LastSeq, nil
}

// WAL record kinds.
const (
	recUpdate  = "update"
	recReceipt = "receipt"
	recCompact = "compact"
)

// walFmt is the WAL record schema version every record is written with.
// Older stores stamped cell-only update records 0 (absent from their
// JSON), records carrying row inserts or deletes 1, and compaction epoch
// records 2; each version only added optional fields, so one decoder reads
// every stamp up to walFmt. A record stamped above walFmt was written by a
// newer store than this binary and is refused, with a version number the
// operator can act on.
const walFmt = 2

// walRecord is one WAL entry. Update records carry the version the batch
// produced (base version + 1 at append time), so replay can both order
// and deduplicate them against the snapshot they follow; receipt records
// carry the version the sale was pinned at inside the receipt itself.
type walRecord struct {
	// Seq is the record's store-wide sequence number (LSN): strictly
	// increasing across segments, never reused. Replay applies a record
	// exactly when its Seq follows the state built so far.
	Seq  uint64
	Kind string
	// Fmt is the record's schema version: walFmt for every record this
	// binary writes, 0 or 1 on records older stores wrote.
	Fmt     uint64                  `json:",omitempty"`
	Version uint64                  `json:",omitempty"`
	Changes []relational.CellChange `json:",omitempty"`
	Receipt *market.Receipt         `json:",omitempty"`
	// Specs is a compaction epoch's per-table rewrite description
	// (compact records only). The specs fully determine the old→new slot
	// map, so replay recomputes the identical rewrite — and the strict
	// validation inside Database.Compact doubles as a consistency check
	// against the replayed state.
	Specs []relational.CompactSpec `json:",omitempty"`
}

// validateRecordFmt enforces the record-schema contract on a decoded
// record: an unknown future format is refused outright, and a compact
// record must carry its specs.
func validateRecordFmt(rec walRecord) error {
	if rec.Fmt > walFmt {
		return fmt.Errorf("store: record seq %d has format %d, newest this binary understands is %d (written by a newer store?)",
			rec.Seq, rec.Fmt, walFmt)
	}
	if rec.Kind == recCompact && len(rec.Specs) == 0 {
		return fmt.Errorf("store: compact record seq %d carries no specs", rec.Seq)
	}
	return nil
}

// walFrameOverhead is the per-record framing cost: a 4-byte big-endian
// payload length and a 4-byte CRC32 of the payload.
const walFrameOverhead = 8

// maxWALRecord bounds a single record's payload; a length field beyond it
// is treated as corruption, not an allocation request.
const maxWALRecord = 1 << 28

// encodeWALRecord frames one record: length, CRC32, JSON payload.
func encodeWALRecord(rec walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encoding WAL record: %w", err)
	}
	out := make([]byte, walFrameOverhead+len(payload))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[walFrameOverhead:], payload)
	return out, nil
}

// decodeWAL parses a WAL segment, returning every intact record and the
// byte offset of the end of the last one. A torn or short final write —
// a truncated frame, or a frame whose checksum fails — ends the log
// there, exactly like a crash mid-append would; records past a corrupt
// frame are unreachable by construction and dropped with it.
func decodeWAL(data []byte) (recs []walRecord, goodLen int64, err error) {
	off := 0
	for off < len(data) {
		if len(data)-off < walFrameOverhead {
			break // torn frame header
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		sum := binary.BigEndian.Uint32(data[off+4 : off+8])
		if n > maxWALRecord || off+walFrameOverhead+n > len(data) {
			break // torn payload
		}
		payload := data[off+walFrameOverhead : off+walFrameOverhead+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt payload
		}
		var rec walRecord
		if e := json.Unmarshal(payload, &rec); e != nil {
			// A CRC-valid frame that does not parse is a writer bug, not a
			// torn write; surface it rather than silently dropping data.
			return recs, int64(off), fmt.Errorf("store: WAL record at offset %d: %w", off, e)
		}
		if e := validateRecordFmt(rec); e != nil {
			// Same reasoning: the CRC passed, so this is not a torn write.
			return recs, int64(off), fmt.Errorf("store: WAL record at offset %d: %w", off, e)
		}
		recs = append(recs, rec)
		off += walFrameOverhead + n
	}
	return recs, int64(off), nil
}
