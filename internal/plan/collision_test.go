package plan

import (
	"math"
	"reflect"
	"testing"

	"querypricing/internal/relational"
)

// Join-index posting lists are keyed by Value.KeyHash and every posting
// is confirmed by its exact encoding, so a hash collision may cost time
// but never change a decision. These tests narrow the key hash until
// every key shares one posting list (mask 0) or two (mask 1) and check
// that base fingerprints, probe outcomes and rebased postings are those
// of the full-width hash.

// collisionMasks are the hash widths the collision tests run under: the
// real one, every key in one list, and two lists.
var collisionMasks = []uint64{^uint64(0), 0, 1}

// mixedKeyDB holds join keys of every kind side by side: Int(1) next to
// Float(1), -0.0 next to 0.0, the string "1", and NULLs on both sides.
func mixedKeyDB() *relational.Database {
	I, F, S, N := relational.Int, relational.Float, relational.Str, relational.Null
	col := func(name string, k relational.Kind) relational.Column { return relational.Column{Name: name, Kind: k} }
	db := relational.NewDatabase()
	t := relational.NewTable(relational.NewSchema("T", col("ID", relational.KindInt),
		col("K", relational.KindFloat), col("R", relational.KindFloat), col("V", relational.KindString)))
	t.Append(I(1), I(1), I(1), S("a"))
	t.Append(I(2), F(1), F(1), S("b"))
	t.Append(I(3), F(math.Copysign(0, -1)), I(7), S("a"))
	t.Append(I(4), F(0), N(), S("c"))
	t.Append(I(5), N(), I(1), S("a"))
	t.Append(I(6), S("1"), F(1), S("b"))
	t.Append(I(7), I(2), I(2), S("a"))
	db.AddTable(t)
	u := relational.NewTable(relational.NewSchema("U", col("ID", relational.KindInt),
		col("K", relational.KindFloat), col("R", relational.KindFloat), col("W", relational.KindString)))
	u.Append(I(10), I(1), F(1), S("b"))
	u.Append(I(11), F(0), I(7), S("y"))
	u.Append(I(12), N(), N(), S("z"))
	u.Append(I(13), F(1), I(1), S("a"))
	u.Append(I(14), S("1"), F(1), S("y"))
	u.Append(I(15), I(2), F(2), S("w"))
	db.AddTable(u)
	return db
}

func mixedKeyQueries() []*relational.SelectQuery {
	ids := []relational.ColRef{ref("T", "ID"), ref("U", "ID")}
	onK := relational.JoinCond{Left: ref("T", "K"), Right: ref("U", "K")}
	onR := relational.JoinCond{Left: ref("T", "R"), Right: ref("U", "R")}
	va := relational.Predicate{Col: ref("T", "V"), Op: relational.OpEq, Val: relational.Str("a")}
	return []*relational.SelectQuery{
		{Name: "hash", Tables: []string{"T", "U"}, Joins: []relational.JoinCond{onK}, Select: ids},
		{Name: "residual", Tables: []string{"T", "U"}, Joins: []relational.JoinCond{onK, onR}, Select: ids},
		{Name: "residual-cross-kind", Tables: []string{"T", "U"}, Select: ids, Joins: []relational.JoinCond{
			{Left: ref("T", "V"), Right: ref("U", "W")}, onK}},
		{Name: "filtered", Tables: []string{"T", "U"}, Joins: []relational.JoinCond{onK},
			Where: []relational.Predicate{va}},
		{Name: "distinct", Tables: []string{"T", "U"}, Joins: []relational.JoinCond{onR},
			Select: []relational.ColRef{ref("U", "W")}, Distinct: true},
		{Name: "grouped", Tables: []string{"T", "U"}, Joins: []relational.JoinCond{onR},
			GroupBy: []relational.ColRef{ref("U", "W")},
			Aggs: []relational.Agg{{Op: relational.AggCount}, {Op: relational.AggSum, Col: ref("T", "ID")},
				{Op: relational.AggMin, Col: ref("T", "K")},
				{Op: relational.AggCount, Col: ref("T", "V"), Distinct: true}}},
		{Name: "three-way", Tables: []string{"T", "U", "T"}, Aliases: []string{"a", "u", "b"},
			Joins: []relational.JoinCond{
				{Left: ref("a", "K"), Right: ref("u", "K")},
				{Left: ref("b", "V"), Right: ref("a", "V")},
				{Left: ref("b", "R"), Right: ref("u", "R")}},
			Select: []relational.ColRef{ref("a", "ID"), ref("u", "ID"), ref("b", "ID")}},
	}
}

// pairsFingerprint is the fingerprint of a (T.ID, U.ID) result.
func pairsFingerprint(pairs [][2]int64) uint64 {
	r := &relational.Result{Cols: []string{"T.ID", "U.ID"}}
	for _, p := range pairs {
		r.Rows = append(r.Rows, []relational.Value{relational.Int(p[0]), relational.Int(p[1])})
	}
	return r.Fingerprint()
}

// probeOutcomes probes every single-cell neighbor of db, in a fixed order.
func probeOutcomes(db *relational.Database, p *Plan) []Outcome {
	var out []Outcome
	for _, table := range db.TableNames() {
		tab := db.Table(table)
		for ri := range tab.Rows {
			for ci := range tab.Schema.Cols {
				for _, nv := range candidateValues(db, table, ci) {
					out = append(out, p.Probe([]CellChange{{Table: table, Row: ri, Col: ci, New: nv}}))
				}
			}
		}
	}
	return out
}

// TestPlansUnchangedUnderKeyHashCollisions compiles the mixed-key queries
// privately and through a pool under every mask and requires the
// full-width base fingerprints and probe outcomes. It also pins the hash
// condition's encoding rules through the fingerprints of hand-computed
// results: Int(1) and Float(1) do not join on the hash condition but do
// on a residual, -0.0 joins 0.0, and NULL never joins.
func TestPlansUnchangedUnderKeyHashCollisions(t *testing.T) {
	db := mixedKeyDB()
	queries := mixedKeyQueries()
	pinned := map[string]uint64{
		"hash":                pairsFingerprint([][2]int64{{1, 10}, {2, 13}, {3, 11}, {4, 11}, {6, 14}, {7, 15}}),
		"residual":            pairsFingerprint([][2]int64{{1, 10}, {2, 13}, {3, 11}, {6, 14}, {7, 15}}),
		"residual-cross-kind": pairsFingerprint([][2]int64{{1, 13}, {2, 10}}),
	}
	wantFP := make([]uint64, len(queries))
	wantOut := make([][]Outcome, len(queries))
	for _, m := range collisionMasks {
		t.Cleanup(SetKeyHashMask(m))
		pool := NewIndexPool(db)
		for i, q := range queries {
			for _, shared := range []*IndexPool{nil, pool} {
				p, err := compile(db, q, shared)
				if err != nil {
					t.Fatalf("%s: %v", q.Name, err)
				}
				res, err := q.Eval(db)
				if err != nil {
					t.Fatal(err)
				}
				if p.BaseFingerprint() != res.Fingerprint() {
					t.Fatalf("mask %x, %s: plan fingerprint %x, Eval %x", m, q.Name, p.BaseFingerprint(), res.Fingerprint())
				}
				if fp, ok := pinned[q.Name]; ok && p.BaseFingerprint() != fp {
					t.Fatalf("mask %x, %s: fingerprint does not match the pinned join result", m, q.Name)
				}
				out := probeOutcomes(db, p)
				if wantOut[i] == nil {
					wantFP[i], wantOut[i] = p.BaseFingerprint(), out
					continue
				}
				if p.BaseFingerprint() != wantFP[i] || !reflect.DeepEqual(out, wantOut[i]) {
					t.Fatalf("mask %x, pooled %v, %s: fingerprint or probe outcomes moved", m, shared != nil, q.Name)
				}
			}
		}
	}
}

// TestRebasedPostingsUnderKeyHashCollisions rebases the mixed-key plans —
// private and pooled — through join-key moves, a -0.0/0.0 rewrite, a
// predicate flip, an insert and a delete, and requires every alias's
// postings to equal a fresh compilation's under every mask.
func TestRebasedPostingsUnderKeyHashCollisions(t *testing.T) {
	I, F, S := relational.Int, relational.Float, relational.Str
	batches := [][]CellChange{
		{{Table: "T", Row: 0, Col: 1, New: F(0)}, {Table: "U", Row: 1, Col: 1, New: F(math.Copysign(0, -1))}},
		{{Table: "U", Row: 3, Col: 1, New: F(2)}, {Table: "T", Row: 6, Col: 2, New: F(7)}},
		{{Table: "T", Row: 2, Col: 3, New: S("b")}, {Table: "U", Row: 5, Col: 2, New: F(1)}},
		{relational.RowInsert("T", I(8), F(1), F(2), S("a")), relational.RowDelete("U", 0)},
		{{Table: "T", Row: 7, Col: 1, New: F(1)}, {Table: "U", Row: 4, Col: 1, New: relational.Null()}},
	}
	for _, m := range collisionMasks {
		t.Cleanup(SetKeyHashMask(m))
		rebased := map[bool]int{}
		db := mixedKeyDB()
		pool := NewIndexPool(db)
		queries := mixedKeyQueries()
		private := make([]*Plan, len(queries))
		pooled := make([]*Plan, len(queries))
		for i, q := range queries {
			var err error
			if private[i], err = compile(db, q, nil); err != nil {
				t.Fatal(err)
			}
			if pooled[i], err = compile(db, q, pool); err != nil {
				t.Fatal(err)
			}
		}
		for bi, changes := range batches {
			newDB := applyUpdate(t, db, changes)
			newPool := pool.Advance(newDB, changes)
			for i, q := range queries {
				fresh, err := Compile(newDB, q)
				if err != nil {
					t.Fatal(err)
				}
				for _, side := range []struct {
					plans  []*Plan
					shared *IndexPool
				}{{private, nil}, {pooled, newPool}} {
					np, ok := side.plans[i].Rebase(newDB, changes, side.shared)
					if !ok {
						side.plans[i] = fresh
						continue
					}
					for ai := range np.aliases {
						if !reflect.DeepEqual(np.aliases[ai].indexes, fresh.aliases[ai].indexes) {
							t.Fatalf("mask %x, batch %d, %s, pooled %v: alias %d postings %v, fresh %v", m, bi, q.Name,
								side.shared != nil, ai, np.aliases[ai].indexes, fresh.aliases[ai].indexes)
						}
					}
					assertPlanEquivalent(t, newDB, np, fresh, q.Name)
					side.plans[i] = np
					rebased[side.shared != nil]++
				}
			}
			db, pool = newDB, newPool
		}
		if rebased[false] == 0 || rebased[true] == 0 {
			t.Fatalf("mask %x: rebases private %d, pooled %d; want both exercised", m, rebased[false], rebased[true])
		}
	}
}
