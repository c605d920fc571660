package store

// WAL record schema contract: every record this binary writes carries
// walFmt, one decoder reads every older stamp, and decode refuses a
// record from a newer store.

import (
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"querypricing/internal/relational"
)

// TestDMLRecordRoundTrips: an insert/delete record carries Op and Vals
// through the frame intact.
func TestDMLRecordRoundTrips(t *testing.T) {
	rec := walRecord{
		Seq: 4, Kind: recUpdate, Fmt: walFmt, Version: 8,
		Changes: []relational.CellChange{
			relational.RowInsert("T", relational.Int(5), relational.Str("x")),
			relational.RowDelete("U", 2),
		},
	}
	frame, err := encodeWALRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := decodeWAL(frame)
	if err != nil || len(recs) != 1 {
		t.Fatalf("decode: recs=%d err=%v", len(recs), err)
	}
	got := recs[0]
	if got.Fmt != walFmt || len(got.Changes) != 2 {
		t.Fatalf("decoded fmt=%d changes=%d", got.Fmt, len(got.Changes))
	}
	if got.Changes[0].Op != relational.OpRowInsert || len(got.Changes[0].Vals) != 2 {
		t.Fatalf("insert did not round-trip: %+v", got.Changes[0])
	}
	if got.Changes[1].Op != relational.OpRowDelete || got.Changes[1].Table != "U" || got.Changes[1].Row != 2 {
		t.Fatalf("delete did not round-trip: %+v", got.Changes[1])
	}
}

// TestDecodeRefusesFutureFormat: a CRC-valid record stamped with a
// format this binary does not know is an error, not a torn tail — the
// operator must not silently lose a newer store's records.
func TestDecodeRefusesFutureFormat(t *testing.T) {
	frame, err := encodeWALRecord(walRecord{Seq: 1, Kind: recUpdate, Fmt: walFmt + 1, Version: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = decodeWAL(frame)
	if err == nil || !strings.Contains(err.Error(), "newer store") {
		t.Fatalf("future-format record decoded: err=%v", err)
	}
}

// TestDecodeLegacyFormats: frames as older stores wrote them — a fmt-0
// cell update and receipt (no Fmt key), a fmt-1 insert/delete batch and
// a fmt-2 compaction epoch — decode in one segment, each with its stamp
// and contents intact.
func TestDecodeLegacyFormats(t *testing.T) {
	payloads := []string{
		`{"Seq":1,"Kind":"update","Version":1,"Changes":[{"Table":"T","Row":1,"Col":0,"New":{"K":1,"I":9,"F":0,"S":""}}]}`,
		`{"Seq":2,"Kind":"receipt","Receipt":{"Query":"q","Price":3,"When":"0001-01-01T00:00:00Z","Version":1}}`,
		`{"Seq":3,"Kind":"update","Fmt":1,"Version":2,"Changes":[` +
			`{"Table":"T","Row":-1,"Col":0,"New":{"K":0,"I":0,"F":0,"S":""},"Op":"insert","Vals":[{"K":1,"I":5,"F":0,"S":""}]},` +
			`{"Table":"T","Row":0,"Col":0,"New":{"K":0,"I":0,"F":0,"S":""},"Op":"delete"}]}`,
		`{"Seq":4,"Kind":"compact","Fmt":2,"Version":3,"Specs":[{"table":"T","slots":3,"dead":[0]}]}`,
	}
	var seg []byte
	for _, p := range payloads {
		seg = binary.BigEndian.AppendUint32(seg, uint32(len(p)))
		seg = binary.BigEndian.AppendUint32(seg, crc32.ChecksumIEEE([]byte(p)))
		seg = append(seg, p...)
	}
	recs, n, err := decodeWAL(seg)
	if err != nil || len(recs) != len(payloads) || int(n) != len(seg) {
		t.Fatalf("decode: recs=%d n=%d/%d err=%v", len(recs), n, len(seg), err)
	}
	for i, want := range []uint64{0, 0, 1, 2} {
		if recs[i].Fmt != want || recs[i].Seq != uint64(i+1) {
			t.Fatalf("record %d: seq %d fmt %d, want seq %d fmt %d", i, recs[i].Seq, recs[i].Fmt, i+1, want)
		}
	}
	if c := recs[0].Changes; len(c) != 1 || c[0].Op != relational.OpCellUpdate || c[0].Row != 1 || !c[0].New.Equal(relational.Int(9)) {
		t.Fatalf("fmt-0 cell update: %+v", c)
	}
	if r := recs[1].Receipt; r == nil || r.Query != "q" || r.Price != 3 {
		t.Fatalf("fmt-0 receipt: %+v", r)
	}
	if c := recs[2].Changes; len(c) != 2 || c[0].Op != relational.OpRowInsert || len(c[0].Vals) != 1 || c[1].Op != relational.OpRowDelete {
		t.Fatalf("fmt-1 DML batch: %+v", c)
	}
	if s := recs[3].Specs; len(s) != 1 || s[0].Table != "T" || s[0].Slots != 3 || len(s[0].Dead) != 1 {
		t.Fatalf("fmt-2 compact record: %+v", s)
	}
}
