package plan

// Cross-generation entry sharing. Every cache generation produced by
// Advance references the same versioned slots in one shared store; a
// successor generation folding a slot forward mutates state an older
// generation can still see. These tests pin the two properties that make
// that sharing safe: an old generation's answers stay byte-identical to a
// fresh compilation on its own snapshot no matter how far successors push
// the shared slots (slots only move forward; an old generation compiles
// privately rather than winding one back), and concurrent Get traffic
// against a mix of generations races Advance and Drain cleanly under
// -race.

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"querypricing/internal/relational"
)

// TestOldGenerationByteIdenticalAfterSharedSlotMutation chains updates
// through Advance, lets every successor generation pull the shared slots
// up to its own version (Get + Drain), and after each round re-asks the
// original generation: its plans must still carry the original snapshot's
// version and stay byte-identical — fingerprint and every probe outcome —
// to a fresh compilation over the original database.
func TestOldGenerationByteIdenticalAfterSharedSlotMutation(t *testing.T) {
	db0 := testDB()
	gen0 := NewCache(db0, 16)
	queries := testQueries()
	fp0 := make(map[string]uint64, len(queries))
	for _, q := range queries {
		p, _, err := gen0.Get(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		fp0[q.Name] = p.BaseFingerprint()
	}

	rng := rand.New(rand.NewSource(83))
	db, cache := db0, gen0
	for round := 0; round < 6; round++ {
		changes := randomChanges(rng, db, 1+rng.Intn(3))
		newDB := applyUpdate(t, db, changes)
		cache, _ = cache.Advance(newDB, changes)
		db = newDB

		// The successor generation mutates the shared slots: half the
		// queries fold forward on use, Drain pushes the rest.
		for _, q := range queries[:len(queries)/2] {
			if _, _, err := cache.Get(q); err != nil {
				t.Fatalf("round %d %s: %v", round, q.Name, err)
			}
		}
		cache.Drain()

		// The original generation must be unaffected: same fingerprints as
		// before any update, versions pinned at the original snapshot, and
		// full probe equivalence with a fresh compilation over db0.
		for _, q := range queries {
			p, _, err := gen0.Get(q)
			if err != nil {
				t.Fatalf("round %d %s: old generation: %v", round, q.Name, err)
			}
			if p.Version() != db0.Version() {
				t.Fatalf("round %d %s: old-generation plan at version %d, want %d",
					round, q.Name, p.Version(), db0.Version())
			}
			if p.BaseFingerprint() != fp0[q.Name] {
				t.Fatalf("round %d %s: old-generation fingerprint %x != original %x",
					round, q.Name, p.BaseFingerprint(), fp0[q.Name])
			}
			fresh, err := Compile(db0, q)
			if err != nil {
				t.Fatal(err)
			}
			assertPlanEquivalent(t, db0, p, fresh, q.Name+"/old-generation")
		}
	}
}

// TestConcurrentCrossGenerationTraffic races Get traffic spread across
// every live generation against a chain of Advances and concurrent Drains
// of the newest generation. Run under -race: the generations share one
// slot store, so this is the memory-model contract of the shared log and
// monotone slot publishing. Every Get must return a plan stamped with its
// own generation's version.
func TestConcurrentCrossGenerationTraffic(t *testing.T) {
	type generation struct {
		db    *relational.Database
		cache *Cache
	}
	db := testDB()
	cache := NewCache(db, 16)
	queries := testQueries()
	for _, q := range queries {
		if _, _, err := cache.Get(q); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
	}

	var (
		mu   sync.RWMutex
		gens = []generation{{db, cache}}
		done = make(chan struct{})
		wg   sync.WaitGroup
	)
	latest := func() generation {
		mu.RLock()
		defer mu.RUnlock()
		return gens[len(gens)-1]
	}
	pick := func(rng *rand.Rand) generation {
		mu.RLock()
		defer mu.RUnlock()
		return gens[rng.Intn(len(gens))]
	}

	readers := runtime.GOMAXPROCS(0)
	if readers < 4 {
		readers = 4
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				g := pick(rng)
				q := queries[rng.Intn(len(queries))]
				p, _, err := g.cache.Get(q)
				if err != nil {
					t.Errorf("%s: %v", q.Name, err)
					return
				}
				if p.Version() != g.db.Version() {
					t.Errorf("%s: generation %d served plan version %d",
						q.Name, g.db.Version(), p.Version())
					return
				}
			}
		}(int64(100 + r))
	}
	wg.Add(1)
	go func() { // drainer: keeps folding the newest generation's slots
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			latest().cache.Drain()
		}
	}()

	rng := rand.New(rand.NewSource(59))
	for round := 0; round < 2*MaxPendingBatches; round++ { // crosses the cap-drain path
		g := latest()
		changes := randomChanges(rng, g.db, 1+rng.Intn(3))
		newDB := applyUpdate(t, g.db, changes)
		newCache, _ := g.cache.Advance(newDB, changes)
		mu.Lock()
		if len(gens) >= 8 {
			gens = append(gens[:1], gens[len(gens)-6:]...) // keep gen0 + recent
		}
		gens = append(gens, generation{newDB, newCache})
		mu.Unlock()
	}
	close(done)
	wg.Wait()

	// Convergence check after the dust settles: the final generation's
	// answers match fresh compilations, and generation 0 still serves its
	// original snapshot.
	final := latest()
	for _, q := range queries {
		p, _, err := final.cache.Get(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		fresh, err := Compile(final.db, q)
		if err != nil {
			t.Fatal(err)
		}
		if p.BaseFingerprint() != fresh.BaseFingerprint() {
			t.Fatalf("%s: final fingerprint %x != fresh %x", q.Name, p.BaseFingerprint(), fresh.BaseFingerprint())
		}
		mu.RLock()
		g0 := gens[0]
		mu.RUnlock()
		p0, _, err := g0.cache.Get(q)
		if err != nil {
			t.Fatalf("%s: gen0: %v", q.Name, err)
		}
		fresh0, err := Compile(g0.db, q)
		if err != nil {
			t.Fatal(err)
		}
		if p0.BaseFingerprint() != fresh0.BaseFingerprint() {
			t.Fatalf("%s: gen0 fingerprint %x != fresh-at-gen0 %x", q.Name, p0.BaseFingerprint(), fresh0.BaseFingerprint())
		}
	}
}

// TestBranchingAdvance forks database history: gen0 advances to dbA and,
// separately, to dbB — the same version reached through different
// changes — and each branch advances once more. Drains and queries of the
// five generations interleave; every generation must answer exactly like
// Compile on its own database, so no branch may serve a plan folded
// through the other branch's changes.
func TestBranchingAdvance(t *testing.T) {
	db0 := testDB()
	gen0 := NewCache(db0, 16)
	queries := testQueries()
	for _, q := range queries {
		if _, _, err := gen0.Get(q); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
	}
	chA := []CellChange{
		{Table: "T", Row: 1, Col: 0, New: relational.Int(5)},
		{Table: "T", Row: 4, Col: 2, New: relational.Int(25)},
	}
	chB := []CellChange{
		{Table: "T", Row: 1, Col: 0, New: relational.Int(3)},
		{Table: "U", Row: 3, Col: 0, New: relational.Int(2)},
	}
	dbA, dbB := applyUpdate(t, db0, chA), applyUpdate(t, db0, chB)
	if dbA.Version() != dbB.Version() {
		t.Fatalf("fork versions %d and %d differ", dbA.Version(), dbB.Version())
	}
	genA, _ := gen0.Advance(dbA, chA)
	genB, _ := gen0.Advance(dbB, chB)
	chA2 := []CellChange{{Table: "T", Row: 2, Col: 1, New: relational.Str("a")}}
	chB2 := []CellChange{{Table: "U", Row: 0, Col: 1, New: relational.Str("y")}}
	dbA2, dbB2 := applyUpdate(t, dbA, chA2), applyUpdate(t, dbB, chB2)
	genA2, _ := genA.Advance(dbA2, chA2)
	genB2, _ := genB.Advance(dbB2, chB2)

	type generation struct {
		name string
		db   *relational.Database
		c    *Cache
	}
	gens := []generation{{"gen0", db0, gen0}, {"A", dbA, genA}, {"B", dbB, genB}, {"A2", dbA2, genA2}, {"B2", dbB2, genB2}}
	for round, order := range [][]int{{2, 1, 4, 0, 3}, {3, 0, 4, 1, 2}, {1, 4, 2, 3, 0}} {
		for i, gi := range order {
			gens[gi].c.Drain()
			g := gens[order[(i+1)%len(order)]]
			for _, q := range queries {
				p, _, err := g.c.Get(q)
				if err != nil {
					t.Fatalf("round %d %s %s: %v", round, g.name, q.Name, err)
				}
				fresh, err := Compile(g.db, q)
				if err != nil {
					t.Fatal(err)
				}
				assertPlanEquivalent(t, g.db, p, fresh, g.name+"/"+q.Name)
			}
		}
	}
}
