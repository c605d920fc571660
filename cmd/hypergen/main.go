// Command hypergen builds the pricing hypergraph of a query workload and
// prints its characteristics (the paper's Table 3) and hyperedge-size
// histogram (Figure 4), plus construction statistics showing the effect of
// conflict-set pruning. With -pruning-ablation it also rebuilds every
// hypergraph without pruning or delta probing and exits 1 unless the two
// builds agree edge by edge.
//
// Usage:
//
//	hypergen -workload skewed
//	hypergen -workload all -support 2000 -scale 2
//	hypergen -workload tpch -support 100 -pruning-ablation
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"querypricing/internal/experiments"
	"querypricing/internal/hypergraph"
	"querypricing/internal/support"
)

func main() {
	var (
		workload = flag.String("workload", "all", "skewed | uniform | tpch | ssb | all")
		scale    = flag.Float64("scale", 1, "dataset scale multiplier")
		supportN = flag.Int("support", 0, "support size (0 = workload default)")
		seed     = flag.Int64("seed", 1, "random seed")
		bins     = flag.Int("bins", 12, "histogram bins")
		ablation = flag.Bool("pruning-ablation", false, "also build without pruning, compare times, and exit 1 unless both builds give the same edges")
	)
	flag.Parse()

	var ws []experiments.Workload
	if *workload == "all" {
		ws = experiments.AllWorkloads
	} else {
		ws = []experiments.Workload{experiments.Workload(*workload)}
	}

	var scs []*experiments.Scenario
	for _, w := range ws {
		sc, err := experiments.Build(experiments.Config{
			Workload: w, Scale: *scale, SupportSize: *supportN, Seed: *seed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hypergen: %v\n", err)
			os.Exit(1)
		}
		scs = append(scs, sc)
		fmt.Println(experiments.FormatHistogram("Figure 4: "+string(w), sc.H, *bins))
		fmt.Printf("construction: %v (%d query evals; pruned %d by columns, %d by predicates)\n\n",
			sc.BuildTime.Round(time.Millisecond), sc.Stats.QueryEvals,
			sc.Stats.PrunedByCols, sc.Stats.PrunedByPred)

		if *ablation {
			start := time.Now()
			naive, nstats, err := support.BuildHypergraph(sc.Set, sc.Queries, support.BuildOptions{DisablePruning: true})
			if err != nil {
				fmt.Fprintf(os.Stderr, "hypergen: naive build: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("pruning ablation: naive rebuild %v with %d evals (pruned build used %d)\n\n",
				time.Since(start).Round(time.Millisecond), nstats.QueryEvals, sc.Stats.QueryEvals)
			if i := firstDifference(sc.H, naive); i >= 0 {
				fmt.Fprintf(os.Stderr, "hypergen: %s: pruned and naive builds differ at edge %d (%s): %v vs %v\n",
					w, i, naive.Edge(i).Label, sc.H.Edge(i).Items, naive.Edge(i).Items)
				os.Exit(1)
			}
		}
	}
	fmt.Println(experiments.FormatStatsTable(scs))
}

// firstDifference returns the index of the first edge whose items differ
// between two hypergraphs built over the same queries (edge i is query i
// in both), or -1 when every edge matches.
func firstDifference(a, b *hypergraph.Hypergraph) int {
	for i := range a.NumEdges() {
		if !slices.Equal(a.Edge(i).Items, b.Edge(i).Items) {
			return i
		}
	}
	return -1
}
