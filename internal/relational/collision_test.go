package relational

import (
	"bytes"
	"math"
	"testing"
)

// Eval's hash join keys buckets by Value.KeyHash and confirms every hit
// with SameKey, so a hash collision may cost time but never change a
// result. These tests narrow joinKeyMask until every key shares one
// bucket (mask 0) or two (mask 1) and check that Eval's rows — order
// included — are exactly those of the full-width hash.

// withJoinKeyMask narrows Eval's join-key hashes for the rest of the test.
func withJoinKeyMask(t *testing.T, m uint64) {
	t.Helper()
	old := joinKeyMask
	joinKeyMask = m
	t.Cleanup(func() { joinKeyMask = old })
}

// collisionMasks are the hash widths every collision test runs under:
// the real one, every key in one bucket, and two buckets.
var collisionMasks = []uint64{^uint64(0), 0, 1}

// mixedKeyDB holds join keys of every kind side by side: Int(1) next to
// Float(1), -0.0 next to 0.0, the string "1", and NULLs on both sides.
func mixedKeyDB() *Database {
	db := NewDatabase()
	negZero := math.Copysign(0, -1)
	t := NewTable(NewSchema("T",
		Column{"ID", KindInt}, Column{"K", KindFloat}, Column{"R", KindFloat}, Column{"V", KindString}))
	t.Append(Int(1), Int(1), Int(1), Str("a"))
	t.Append(Int(2), Float(1), Float(1), Str("b"))
	t.Append(Int(3), Float(negZero), Int(7), Str("a"))
	t.Append(Int(4), Float(0), Null(), Str("c"))
	t.Append(Int(5), Null(), Int(1), Str("a"))
	t.Append(Int(6), Str("1"), Float(1), Str("b"))
	t.Append(Int(7), Int(2), Int(2), Str("a"))
	db.AddTable(t)
	u := NewTable(NewSchema("U",
		Column{"ID", KindInt}, Column{"K", KindFloat}, Column{"R", KindFloat}, Column{"W", KindString}))
	u.Append(Int(10), Int(1), Float(1), Str("x"))
	u.Append(Int(11), Float(0), Int(7), Str("y"))
	u.Append(Int(12), Null(), Null(), Str("z"))
	u.Append(Int(13), Float(1), Int(1), Str("x"))
	u.Append(Int(14), Str("1"), Float(1), Str("y"))
	u.Append(Int(15), Int(2), Float(2), Str("w"))
	db.AddTable(u)
	return db
}

func cr(t, c string) ColRef { return ColRef{Table: t, Col: c} }

// idPairs projects a two-table join result onto its (T.ID, U.ID) pairs.
func idPairs(t *testing.T, r *Result) [][2]int64 {
	t.Helper()
	var out [][2]int64
	for _, row := range r.Rows {
		out = append(out, [2]int64{row[0].I, row[1].I})
	}
	return out
}

func sameRows(a, b [][]Value) bool {
	if len(a) != len(b) {
		return false
	}
	var ea, eb []byte
	for i := range a {
		ea, eb = ea[:0], eb[:0]
		for _, v := range a[i] {
			ea = v.AppendEncode(ea)
		}
		for _, v := range b[i] {
			eb = v.AppendEncode(eb)
		}
		if !bytes.Equal(ea, eb) {
			return false
		}
	}
	return true
}

// TestEvalJoinUnderKeyHashCollisions pins the hash condition's encoding
// rules — Int(1) and Float(1) do not join, -0.0 joins 0.0, NULL never
// joins — and the residual's coercing Equal, under every mask.
func TestEvalJoinUnderKeyHashCollisions(t *testing.T) {
	db := mixedKeyDB()
	sel := []ColRef{cr("T", "ID"), cr("U", "ID")}
	hashOnly := &SelectQuery{Name: "hash", Tables: []string{"T", "U"},
		Joins:  []JoinCond{{Left: cr("T", "K"), Right: cr("U", "K")}},
		Select: sel}
	withResidual := &SelectQuery{Name: "residual", Tables: []string{"T", "U"},
		Joins: []JoinCond{
			{Left: cr("T", "K"), Right: cr("U", "K")},
			{Left: cr("T", "R"), Right: cr("U", "R")}},
		Select: sel}
	// Hashing on V = W leaves K to the residual, whose coercing Equal
	// joins Int(1) to Float(1).
	residualCrossKind := &SelectQuery{Name: "residual-cross-kind", Tables: []string{"T", "U"},
		Joins: []JoinCond{
			{Left: cr("T", "V"), Right: cr("U", "W")},
			{Left: cr("T", "K"), Right: cr("U", "K")}},
		Select: sel}
	cases := []struct {
		q    *SelectQuery
		want [][2]int64
	}{
		// T1 Int(1) meets U10 Int(1) but not U13 Float(1); T3 -0.0 and T4
		// 0.0 both meet U11 0.0; T5 and U12 (NULL keys) meet nothing.
		{hashOnly, [][2]int64{{1, 10}, {2, 13}, {3, 11}, {4, 11}, {6, 14}, {7, 15}}},
		// Residual R: Int(1) = Float(1) holds, NULL = Int(7) does not.
		{withResidual, [][2]int64{{1, 10}, {2, 13}, {3, 11}, {6, 14}, {7, 15}}},
	}
	for _, m := range collisionMasks {
		withJoinKeyMask(t, m)
		for _, c := range cases {
			got := idPairs(t, mustEval(t, db, c.q))
			if len(got) != len(c.want) {
				t.Fatalf("mask %x, %s: got %v, want %v", m, c.q.Name, got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("mask %x, %s: got %v, want %v", m, c.q.Name, got, c.want)
				}
			}
		}
	}

	db2 := mixedKeyDB()
	db2.Table("U").Rows[0][3] = Str("b") // U10, K Int(1)
	db2.Table("U").Rows[3][3] = Str("a") // U13, K Float(1)
	// T1 (Int(1), V "a") meets U13 (Float(1)); T2 (Float(1), V "b") meets
	// U10 (Int(1)). T3 (-0.0), T5 (NULL), T7 (Int(2)) and T6 (Str "1")
	// reach the residual and fail it.
	want := [][2]int64{{1, 13}, {2, 10}}
	for _, m := range collisionMasks {
		withJoinKeyMask(t, m)
		got := idPairs(t, mustEval(t, db2, residualCrossKind))
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("mask %x: residual-cross-kind got %v, want %v", m, got, want)
		}
	}
}

// TestEvalRowsIdenticalUnderCollisions checks multi-way joins, SELECT *,
// DISTINCT, LIMIT and aggregates row-for-row, in order, against the
// full-width hash.
func TestEvalRowsIdenticalUnderCollisions(t *testing.T) {
	db := mixedKeyDB()
	queries := []*SelectQuery{
		{Name: "star", Tables: []string{"T", "U"},
			Joins: []JoinCond{{Left: cr("U", "K"), Right: cr("T", "K")}}},
		{Name: "three-way", Tables: []string{"T", "U", "T"}, Aliases: []string{"a", "u", "b"},
			Joins: []JoinCond{
				{Left: cr("a", "K"), Right: cr("u", "K")},
				{Left: cr("b", "V"), Right: cr("a", "V")},
				{Left: cr("b", "R"), Right: cr("u", "R")}}},
		{Name: "distinct-limit", Tables: []string{"T", "U"},
			Joins:    []JoinCond{{Left: cr("T", "R"), Right: cr("U", "R")}},
			Select:   []ColRef{cr("U", "W")},
			Distinct: true, Limit: 3},
		{Name: "grouped", Tables: []string{"T", "U"},
			Joins:   []JoinCond{{Left: cr("T", "R"), Right: cr("U", "R")}},
			GroupBy: []ColRef{cr("U", "W")},
			Aggs: []Agg{{Op: AggCount}, {Op: AggSum, Col: cr("T", "ID")},
				{Op: AggMin, Col: cr("T", "K")}, {Op: AggCount, Col: cr("T", "V"), Distinct: true}}},
	}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		want[i] = mustEval(t, db, q)
	}
	for _, m := range collisionMasks[1:] {
		withJoinKeyMask(t, m)
		for i, q := range queries {
			got := mustEval(t, db, q)
			if !sameRows(got.Rows, want[i].Rows) {
				t.Fatalf("mask %x, %s: rows %v, want %v", m, q.Name, got.Rows, want[i].Rows)
			}
			if got.Fingerprint() != want[i].Fingerprint() {
				t.Fatalf("mask %x, %s: fingerprint moved", m, q.Name)
			}
		}
	}
}

// TestKeyHashFollowsEncoding pins KeyHash and SameKey to the canonical
// encoding: equal encodings hash alike and SameKey holds exactly when the
// encodings are identical and not NULL.
func TestKeyHashFollowsEncoding(t *testing.T) {
	vals := []Value{Null(), Int(0), Int(1), Int(-1), Float(0), Float(math.Copysign(0, -1)),
		Float(1), Float(-1), Float(math.Inf(1)), Str(""), Str("1"), Str("abcdefgh"), Str("abcdefghi")}
	for _, a := range vals {
		for _, b := range vals {
			same := bytes.Equal(a.AppendEncode(nil), b.AppendEncode(nil))
			if got := SameKey(a, b); got != (same && !a.IsNull()) {
				t.Fatalf("SameKey(%v %v, %v %v) = %v, encodings equal = %v", a.K, a, b.K, b, got, same)
			}
			if same && a.KeyHash() != b.KeyHash() {
				t.Fatalf("KeyHash(%v) != KeyHash(%v) for identical encodings", a, b)
			}
		}
	}
}
