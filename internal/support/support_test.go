package support

import (
	"slices"
	"testing"

	"querypricing/internal/datagen"
	"querypricing/internal/relational"
	"querypricing/internal/workloads"
)

func smallWorld(t *testing.T) *relational.Database {
	t.Helper()
	return datagen.World(datagen.WorldConfig{Countries: 40, Cities: 120, Seed: 1})
}

func TestGenerateBasics(t *testing.T) {
	db := smallWorld(t)
	set, err := Generate(db, GenOptions{Size: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if set.Size() != 50 {
		t.Fatalf("size = %d, want 50", set.Size())
	}
	for i, nb := range set.Neighbors {
		if len(nb.Deltas) != 1 {
			t.Fatalf("neighbor %d has %d deltas, want 1", i, len(nb.Deltas))
		}
		d := nb.Deltas[0]
		tab := db.Table(d.Table)
		if tab == nil || d.Row >= tab.NumRows() || d.Col >= len(tab.Schema.Cols) {
			t.Fatalf("neighbor %d has out-of-range delta %+v", i, d)
		}
		if d.New.Equal(tab.Rows[d.Row][d.Col]) {
			t.Fatalf("neighbor %d delta does not change the cell", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	db := smallWorld(t)
	a, err := Generate(db, GenOptions{Size: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(db, GenOptions{Size: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Neighbors {
		da, db2 := a.Neighbors[i].Deltas[0], b.Neighbors[i].Deltas[0]
		if da.Table != db2.Table || da.Row != db2.Row || da.Col != db2.Col || !da.New.Equal(db2.New) {
			t.Fatalf("neighbor %d differs across same-seed runs", i)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	db := smallWorld(t)
	if _, err := Generate(db, GenOptions{Size: 0}); err == nil {
		t.Fatal("want error for zero size")
	}
	if _, err := Generate(db, GenOptions{Size: 5, Tables: []string{"Nope"}}); err == nil {
		t.Fatal("want error for unknown table")
	}
}

func TestViewAppliesDeltasWithoutMutation(t *testing.T) {
	db := smallWorld(t)
	set, err := Generate(db, GenOptions{Size: 30, Seed: 3, DeltasPerNeighbor: 3})
	if err != nil {
		t.Fatal(err)
	}
	before := db.Clone()
	for i := range set.Neighbors {
		nb := &set.Neighbors[i]
		v := set.view(nb)
		for _, d := range nb.Deltas {
			if got := v.Table(d.Table).Rows[d.Row][d.Col]; !got.Equal(d.New) {
				t.Fatalf("neighbor %d: view cell %s[%d][%d] = %v, want %v", i, d.Table, d.Row, d.Col, got, d.New)
			}
		}
	}
	for _, name := range db.TableNames() {
		ta, tb := db.Table(name), before.Table(name)
		for r := range ta.Rows {
			for c := range ta.Rows[r] {
				if !ta.Rows[r][c].Equal(tb.Rows[r][c]) {
					t.Fatalf("%s[%d][%d] mutated by view", name, r, c)
				}
			}
		}
	}
}

func TestBuildHypergraphManual(t *testing.T) {
	// Hand-built database and neighbors with known conflict sets.
	db := relational.NewDatabase()
	tab := relational.NewTable(relational.NewSchema("T",
		relational.Column{Name: "K", Kind: relational.KindInt},
		relational.Column{Name: "V", Kind: relational.KindString},
	))
	tab.Append(relational.Int(1), relational.Str("a"))
	tab.Append(relational.Int(2), relational.Str("b"))
	db.AddTable(tab)

	set := &Set{DB: db, Neighbors: []Neighbor{
		{Deltas: []Delta{{Table: "T", Row: 0, Col: 1, New: relational.Str("x")}}}, // changes V of row 1
		{Deltas: []Delta{{Table: "T", Row: 1, Col: 0, New: relational.Int(9)}}},   // changes K of row 2
		{Deltas: []Delta{{Table: "T", Row: 1, Col: 1, New: relational.Str("c")}}}, // changes V of row 2
	}}

	q1 := &relational.SelectQuery{ // sees only row K=1's V
		Name: "q1", Tables: []string{"T"},
		Where:  []relational.Predicate{{Col: relational.ColRef{Table: "T", Col: "K"}, Op: relational.OpEq, Val: relational.Int(1)}},
		Select: []relational.ColRef{{Table: "T", Col: "V"}},
	}
	q2 := &relational.SelectQuery{ // counts all rows: only K changes nothing... count(*) sees membership via K? no predicates -> nothing can change it except row count (fixed)
		Name: "q2", Tables: []string{"T"},
		Aggs: []relational.Agg{{Op: relational.AggCount}},
	}
	q3 := &relational.SelectQuery{ // sum over K
		Name: "q3", Tables: []string{"T"},
		Aggs: []relational.Agg{{Op: relational.AggSum, Col: relational.ColRef{Table: "T", Col: "K"}}},
	}

	h, stats, err := BuildHypergraph(set, []*relational.SelectQuery{q1, q2, q3}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumItems() != 3 || h.NumEdges() != 3 {
		t.Fatalf("hypergraph shape %s", h)
	}
	// q1's conflict set: neighbor 0 only (changes the V it returns).
	if got := h.Edge(0).Items; len(got) != 1 || got[0] != 0 {
		t.Fatalf("CS(q1) = %v, want [0]", got)
	}
	// q2 counts rows; no delta changes the row count.
	if got := h.Edge(1).Items; len(got) != 0 {
		t.Fatalf("CS(q2) = %v, want empty", got)
	}
	// q3 changes when K changes: neighbor 1.
	if got := h.Edge(2).Items; len(got) != 1 || got[0] != 1 {
		t.Fatalf("CS(q3) = %v, want [1]", got)
	}
	if stats.QueryEvals == 0 {
		t.Fatal("stats not recorded")
	}
}

// TestPruningSound is the critical correctness property: construction with
// pruning enabled must produce exactly the same hypergraph as naive full
// re-evaluation.
func TestPruningSound(t *testing.T) {
	db := datagen.World(datagen.WorldConfig{Countries: 60, Cities: 150, Seed: 4})
	queries := workloads.Skewed(db)
	// Subsample queries to keep the naive pass fast but cover all shapes:
	// every 7th query plus the full base set.
	var qs []*relational.SelectQuery
	qs = append(qs, queries[:35]...)
	for i := 35; i < len(queries); i += 7 {
		qs = append(qs, queries[i])
	}
	set, err := Generate(db, GenOptions{Size: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pruned, pstats, err := BuildHypergraph(set, qs, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	naive, nstats, err := BuildHypergraph(set, qs, BuildOptions{DisablePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.NumEdges() != naive.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", pruned.NumEdges(), naive.NumEdges())
	}
	for i := 0; i < pruned.NumEdges(); i++ {
		pe, ne := pruned.Edge(i).Items, naive.Edge(i).Items
		if len(pe) != len(ne) {
			t.Fatalf("query %s: conflict sizes differ: pruned %d vs naive %d", qs[i].Name, len(pe), len(ne))
		}
		for k := range pe {
			if pe[k] != ne[k] {
				t.Fatalf("query %s: conflict sets differ", qs[i].Name)
			}
		}
	}
	if pstats.PrunedByCols == 0 {
		t.Fatal("footprint pruning never fired; suspicious")
	}
	if pstats.QueryEvals >= nstats.QueryEvals {
		t.Fatalf("pruning did not reduce work: %d vs %d evals", pstats.QueryEvals, nstats.QueryEvals)
	}
}

func TestPruningSoundOnJoins(t *testing.T) {
	db := datagen.SSB(datagen.SSBConfig{Customers: 120, Suppliers: 60, Parts: 60, LineOrders: 250, Seed: 6})
	all := workloads.SSB(db)
	var qs []*relational.SelectQuery
	for i := 0; i < len(all); i += 29 { // sample across templates
		qs = append(qs, all[i])
	}
	set, err := Generate(db, GenOptions{Size: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pruned, _, err := BuildHypergraph(set, qs, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	naive, _, err := BuildHypergraph(set, qs, BuildOptions{DisablePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pruned.NumEdges(); i++ {
		pe, ne := pruned.Edge(i).Items, naive.Edge(i).Items
		if len(pe) != len(ne) {
			t.Fatalf("query %s: conflict sizes differ: pruned %d vs naive %d", qs[i].Name, len(pe), len(ne))
		}
		for k := range pe {
			if pe[k] != ne[k] {
				t.Fatalf("query %s: conflict sets differ", qs[i].Name)
			}
		}
	}
}

func TestHypergraphLabelsAreQueryNames(t *testing.T) {
	db := smallWorld(t)
	qs := workloads.Skewed(db)[:5]
	set, err := Generate(db, GenOptions{Size: 20, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := BuildHypergraph(set, qs, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if h.Edge(i).Label != qs[i].Name {
			t.Fatalf("edge %d label = %q, want %q", i, h.Edge(i).Label, qs[i].Name)
		}
	}
}

func TestConflictSubsetForDeterminedQuery(t *testing.T) {
	// Information arbitrage sanity (Section 3.1): if Q2 determines Q1 (here
	// Q2 returns strictly more columns of the same rows), then CS(Q1) must
	// be a subset of CS(Q2).
	db := smallWorld(t)
	q1 := &relational.SelectQuery{Name: "narrow", Tables: []string{"Country"},
		Select: []relational.ColRef{{Table: "Country", Col: "Name"}}}
	q2 := &relational.SelectQuery{Name: "wide", Tables: []string{"Country"},
		Select: []relational.ColRef{{Table: "Country", Col: "Name"}, {Table: "Country", Col: "Population"}}}
	set, err := Generate(db, GenOptions{Size: 150, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := BuildHypergraph(set, []*relational.SelectQuery{q1, q2}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wide := map[int]bool{}
	for _, j := range h.Edge(1).Items {
		wide[j] = true
	}
	for _, j := range h.Edge(0).Items {
		if !wide[j] {
			t.Fatalf("CS(narrow) contains %d not in CS(wide): information arbitrage violated", j)
		}
	}
}

// TestConflictSetMatchesBatchPath asserts that the read-only online path
// (ConflictSet, overlay views) computes exactly the conflict sets the
// patch-in-place batch path (BuildHypergraph) computes, across a real
// workload including multi-delta neighbors.
func TestConflictSetMatchesBatchPath(t *testing.T) {
	db := smallWorld(t)
	queries := workloads.Skewed(db)[:60]
	for _, deltas := range []int{1, 3} {
		set, err := Generate(db, GenOptions{Size: 60, Seed: 5, DeltasPerNeighbor: deltas})
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := BuildHypergraph(set, queries, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			items, err := ConflictSet(set, q)
			if err != nil {
				t.Fatalf("deltas=%d query %s: %v", deltas, q.Name, err)
			}
			want := h.Edge(qi).Items
			if len(items) != len(want) {
				t.Fatalf("deltas=%d query %s: ConflictSet = %v, batch path = %v", deltas, q.Name, items, want)
			}
			for k := range items {
				if items[k] != want[k] {
					t.Fatalf("deltas=%d query %s: ConflictSet = %v, batch path = %v", deltas, q.Name, items, want)
				}
			}
		}
	}
}

// TestConflictSetLeavesBaseUntouched asserts the online path never mutates
// the shared database (the property lock-free quoting depends on).
func TestConflictSetLeavesBaseUntouched(t *testing.T) {
	db := smallWorld(t)
	queries := workloads.Skewed(db)[:20]
	set, err := Generate(db, GenOptions{Size: 40, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	before := db.Clone()
	for _, q := range queries {
		if _, err := ConflictSet(set, q); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range db.TableNames() {
		bt, at := before.Table(name), db.Table(name)
		if bt.NumRows() != at.NumRows() {
			t.Fatalf("table %s row count changed: %d -> %d", name, bt.NumRows(), at.NumRows())
		}
		for r := range at.Rows {
			for c := range at.Rows[r] {
				if !at.Rows[r][c].Equal(bt.Rows[r][c]) {
					t.Fatalf("table %s cell (%d,%d) mutated by ConflictSet", name, r, c)
				}
			}
		}
	}
}

// TestConflictSetFollowsEditedQuery pins that a query object edited after
// it was quoted is priced by what it says now: quoting Continent='Europe'
// and then re-pointing the same object at 'Asia' must give Asia's conflict
// set, not the plan compiled for Europe.
func TestConflictSetFollowsEditedQuery(t *testing.T) {
	db := smallWorld(t)
	set, err := Generate(db, GenOptions{Size: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	byContinent := func(c string) *relational.SelectQuery {
		return &relational.SelectQuery{
			Name:   "by-continent",
			Tables: []string{"Country"},
			Where: []relational.Predicate{{
				Col: relational.ColRef{Table: "Country", Col: "Continent"},
				Op:  relational.OpEq,
				Val: relational.Str(c),
			}},
		}
	}
	europe, err := ConflictSet(set, byContinent("Europe"))
	if err != nil {
		t.Fatal(err)
	}
	asia, err := ConflictSet(set, byContinent("Asia"))
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(europe, asia) {
		t.Fatalf("Europe and Asia share conflict set %v; the test cannot tell them apart", asia)
	}

	q := byContinent("Europe")
	if got, err := ConflictSet(set, q); err != nil {
		t.Fatal(err)
	} else if !slices.Equal(got, europe) {
		t.Fatalf("Europe: ConflictSet %v, want %v", got, europe)
	}
	q.Where[0].Val = relational.Str("Asia")
	got, err := ConflictSet(set, q)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, asia) {
		t.Fatalf("edited to Asia: ConflictSet %v, want Asia's %v (Europe's is %v)", got, asia, europe)
	}
}

// TestEditedQueryLeavesCachedPlanAlone: a compiled plan owns a copy of
// its query. Editing a quoted LIMIT query object and quoting it again
// must not rewrite the plan cached under the object's old key, so a fresh
// object equal to the original still gets the original conflict set.
func TestEditedQueryLeavesCachedPlanAlone(t *testing.T) {
	db := smallWorld(t)
	set, err := Generate(db, GenOptions{Size: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	byContinent := func(c string) *relational.SelectQuery {
		return &relational.SelectQuery{
			Name:   "by-continent-limited",
			Tables: []string{"Country"},
			Where: []relational.Predicate{{
				Col: relational.ColRef{Table: "Country", Col: "Continent"},
				Op:  relational.OpEq,
				Val: relational.Str(c),
			}},
			Limit: 3,
		}
	}
	q := byContinent("Europe")
	europe, err := ConflictSet(set, q)
	if err != nil {
		t.Fatal(err)
	}
	q.Where[0].Val = relational.Str("Asia")
	asia, err := ConflictSet(set, q)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(europe, asia) {
		t.Fatalf("Europe and Asia share conflict set %v; the test cannot tell them apart", asia)
	}
	got, err := ConflictSet(set, byContinent("Europe"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, europe) {
		t.Fatalf("fresh Europe after editing a quoted object: ConflictSet %v, want %v", got, europe)
	}
}
