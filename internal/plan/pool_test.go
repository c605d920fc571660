package plan

// IndexPool.Advance's carry rule: a bare-scan index reaches the successor
// pool only when the batch leaves every cell it hashed unchanged — no
// cell update in its (table, column), no insert or delete in its table —
// and every index a pool serves, carried or rebuilt, equals hashRows over
// the pool's own snapshot.

import (
	"reflect"
	"slices"
	"testing"

	"querypricing/internal/relational"
)

// assertPoolExact checks every bare-scan index the pool holds against a
// from-scratch hashRows over the pool's snapshot.
func assertPoolExact(t testing.TB, p *IndexPool, label string) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, idx := range p.bare {
		want := hashRows(p.db.Table(key.table).Rows, key.col)
		if len(idx) != len(want) {
			t.Fatalf("%s: index %v has %d keys, want %d", label, key, len(idx), len(want))
		}
		for h, rows := range want {
			if !slices.Equal(idx[h], rows) {
				t.Fatalf("%s: index %v posting %x = %v, want %v", label, key, h, idx[h], rows)
			}
		}
	}
}

// sameIndex reports whether two index maps are one map.
func sameIndex(a, b map[uint64][]int32) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// getAll fetches every (table, column) index of the pool's snapshot.
func getAll(p *IndexPool) map[indexPoolKey]map[uint64][]int32 {
	out := make(map[indexPoolKey]map[uint64][]int32)
	for _, name := range p.db.TableNames() {
		tab := p.db.Table(name)
		for ci := range tab.Schema.Cols {
			out[indexPoolKey{name, ci}] = p.get(name, ci, tab.Rows)
		}
	}
	return out
}

func TestPoolCarriesOnlyUntouchedIndexes(t *testing.T) {
	db := testDB()
	pool := NewIndexPool(db)
	prev := getAll(pool)
	steps := []struct {
		name    string
		changes []CellChange
		dropped func(indexPoolKey) bool
	}{
		{"cell update on (T, N)", []CellChange{{Table: "T", Row: 1, Col: 2, New: relational.Int(7)}},
			func(k indexPoolKey) bool { return k == indexPoolKey{"T", 2} }},
		{"insert into T", []CellChange{relational.RowInsert("T", relational.Int(9), relational.Str("q"), relational.Int(1))},
			func(k indexPoolKey) bool { return k.table == "T" }},
		{"delete from U", []CellChange{relational.RowDelete("U", 2)},
			func(k indexPoolKey) bool { return k.table == "U" }},
	}
	for _, st := range steps {
		newDB := applyUpdate(t, db, st.changes)
		next := pool.Advance(newDB, st.changes)
		for key, old := range prev {
			carried, ok := next.bare[key]
			if st.dropped(key) {
				if ok {
					t.Fatalf("%s: index %v carried across a batch that changed it", st.name, key)
				}
				continue
			}
			if !ok || !sameIndex(carried, old) {
				t.Fatalf("%s: untouched index %v not shared with the predecessor", st.name, key)
			}
		}
		assertPoolExact(t, next, st.name+"/carried")
		cur := getAll(next)
		for key, idx := range cur {
			if st.dropped(key) && sameIndex(idx, prev[key]) {
				t.Fatalf("%s: rebuilt index %v is the predecessor's map", st.name, key)
			}
		}
		assertPoolExact(t, next, st.name+"/served")
		assertPoolExact(t, pool, st.name+"/predecessor")
		db, pool, prev = newDB, next, cur
	}
}

// FuzzPoolAdvance drives random cell, insert and delete batches over the
// two-table test database through 1–8 chained Advances, fetching a
// fuzz-chosen subset of indexes on each generation, and checks that every
// index each generation serves — carried or rebuilt — equals hashRows
// over that generation's snapshot, and that advancing leaves the
// predecessor's indexes exact for its own snapshot.
func FuzzPoolAdvance(f *testing.F) {
	f.Add([]byte{3, 0xff, 1, 0, 1, 2, 7, 2, 0x0f, 1, 1, 0, 0, 3})
	f.Add([]byte{8, 0x55, 2, 1, 0, 1, 0, 1, 0xaa, 1, 2, 1, 1, 1, 0x33, 3, 0, 2, 2, 2, 0, 0, 1})
	f.Add([]byte{1, 0x01, 1, 0, 0, 0, 0})
	values := []relational.Value{
		relational.Null(), relational.Int(1), relational.Int(2), relational.Int(5),
		relational.Str("a"), relational.Str("b"), relational.Str("y"),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		db := testDB()
		pool := NewIndexPool(db)
		rounds := 1 + next()%8
		for round := 0; round < rounds; round++ {
			// Fetch the indexes the fuzzer picks, so Advance has some to carry.
			mask := next()
			names := db.TableNames()
			bit := 0
			for _, name := range names {
				tab := db.Table(name)
				for ci := range tab.Schema.Cols {
					if mask&(1<<bit) != 0 {
						pool.get(name, ci, tab.Rows)
					}
					bit++
				}
			}
			var batch []CellChange
			for n := 1 + next()%3; n > 0; n-- {
				name := names[next()%len(names)]
				tab := db.Table(name)
				var c CellChange
				switch next() % 3 {
				case 0:
					c = CellChange{Table: name, Row: next() % tab.NumRows(), Col: next() % len(tab.Schema.Cols)}
					c.New = values[next()%len(values)]
				case 1:
					vals := make([]relational.Value, len(tab.Schema.Cols))
					for ci := range vals {
						vals[ci] = values[next()%len(values)]
					}
					c = relational.RowInsert(name, vals...)
				default:
					c = relational.RowDelete(name, next()%tab.NumRows())
				}
				if db.ValidateChanges(append(slices.Clone(batch), c)) == nil {
					batch = append(batch, c)
				}
			}
			if len(batch) == 0 {
				continue
			}
			newDB, err := db.Apply(batch)
			if err != nil {
				t.Fatalf("round %d: apply %+v: %v", round, batch, err)
			}
			np := pool.Advance(newDB, batch)
			assertPoolExact(t, np, "carried")
			assertPoolExact(t, pool, "predecessor")
			db, pool = newDB, np
		}
		getAll(pool)
		assertPoolExact(t, pool, "served")
	})
}
