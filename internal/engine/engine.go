// Package engine unifies the paper's pricing algorithms behind a single
// interface and a name-keyed registry. Every algorithm of Section 5 — UBP,
// UIP, LPIP, CIP, Layering, and the XOS combination — is an Algorithm that
// consumes a pricing hypergraph plus a shared Options struct and produces a
// pricing.Result. Callers select algorithms by name (Get, List) instead of
// hard-coding switch statements, so new algorithms plug in without touching
// the broker, the CLIs, or the experiment harness.
package engine

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"querypricing/internal/hypergraph"
	"querypricing/internal/pricing"
)

// Options is the shared knob set passed to every Algorithm. Each algorithm
// reads only the fields it understands and ignores the rest, so one Options
// value can drive a whole roster sweep.
type Options struct {
	// LPIPMaxCandidates caps how many valuation thresholds LPIP tries
	// (0 = all distinct valuations; 1 = only the lowest, which forces
	// every edge).
	LPIPMaxCandidates int
	// CIPEpsilon is the (1+eps) geometric step of CIP's capacity grid
	// (0 = the pricing package default of 0.5).
	CIPEpsilon float64
	// CIPMaxCapacities caps the number of capacities CIP tries (0 = no cap).
	CIPMaxCapacities int
	// XOSComponents names the registered item-pricing algorithms whose
	// weight vectors the XOS algorithm combines. Empty means {LPIP, CIP},
	// the paper's "XOS-LPIP+CIP" series.
	XOSComponents []string
	// XOSWeightSets supplies precomputed component weight vectors for the
	// XOS algorithm. When non-empty, XOS combines them directly instead of
	// running XOSComponents — callers that already priced the components
	// (e.g. a roster sweep) avoid solving their LPs twice.
	XOSWeightSets [][]float64
	// Shards reports the support-set shard count of the instance being
	// priced, carried on the shared option surface so custom algorithms
	// and harness layers can log or act on the partitioning that produced
	// their hypergraph (the broker fills in its resolved count). The
	// built-in pricing algorithms ignore it: they see only the finished
	// hypergraph, whose conflict sets are byte-identical at every count.
	Shards int
}

// Algorithm is one arbitrage-free pricing algorithm.
type Algorithm interface {
	// Name is the registry key and the short name used in the paper's
	// figures (e.g. "LPIP").
	Name() string
	// Price fits the algorithm's pricing function to the instance and
	// reports the revenue it extracts on it.
	Price(h *hypergraph.Hypergraph, opts Options) (pricing.Result, error)
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Algorithm)
	order    []string
)

// Register adds an algorithm to the registry under its name
// (case-insensitively unique). It returns an error on an empty name or a
// duplicate registration.
func Register(a Algorithm) error {
	name := a.Name()
	if name == "" {
		return fmt.Errorf("engine: algorithm has empty name")
	}
	key := strings.ToLower(name)
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[key]; dup {
		return fmt.Errorf("engine: algorithm %q already registered", name)
	}
	registry[key] = a
	order = append(order, name)
	return nil
}

// Get returns the algorithm registered under the name (case-insensitive).
func Get(name string) (Algorithm, error) {
	regMu.RLock()
	a, ok := registry[strings.ToLower(name)]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown algorithm %q (have %s)",
			name, strings.Join(List(), ", "))
	}
	return a, nil
}

// List returns the registered algorithm names in registration order: the
// six built-ins first, in the paper's Section 5 order, then any
// user-registered algorithms.
func List() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, len(order))
	copy(out, order)
	return out
}

// Price is a convenience wrapper: look up the named algorithm and run it.
func Price(name string, h *hypergraph.Hypergraph, opts Options) (pricing.Result, error) {
	a, err := Get(name)
	if err != nil {
		return pricing.Result{}, err
	}
	return a.Price(h, opts)
}

// funcAlgorithm adapts a plain function to the Algorithm interface.
type funcAlgorithm struct {
	name string
	fn   func(*hypergraph.Hypergraph, Options) (pricing.Result, error)
}

func (f funcAlgorithm) Name() string { return f.name }

func (f funcAlgorithm) Price(h *hypergraph.Hypergraph, opts Options) (pricing.Result, error) {
	return f.fn(h, opts)
}

// New wraps a pricing function as a registrable Algorithm.
func New(name string, fn func(*hypergraph.Hypergraph, Options) (pricing.Result, error)) Algorithm {
	return funcAlgorithm{name: name, fn: fn}
}

// xosAlgorithm combines the weight vectors of registered item-pricing
// algorithms into their pointwise-max XOS pricing (Section 5.2).
type xosAlgorithm struct{}

func (xosAlgorithm) Name() string { return "XOS" }

func (xosAlgorithm) Price(h *hypergraph.Hypergraph, opts Options) (pricing.Result, error) {
	if len(opts.XOSWeightSets) > 0 {
		out := pricing.XOS(h, opts.XOSWeightSets...)
		out.Extra = fmt.Sprintf("components=%d precomputed", len(opts.XOSWeightSets))
		return out, nil
	}
	comps := opts.XOSComponents
	if len(comps) == 0 {
		comps = []string{"LPIP", "CIP"}
	}
	start := time.Now()
	lpSolves := 0
	var weightSets [][]float64
	for _, name := range comps {
		if strings.EqualFold(name, "XOS") {
			return pricing.Result{}, fmt.Errorf("engine: XOS cannot be its own component")
		}
		res, err := Price(name, h, opts)
		if err != nil {
			return pricing.Result{}, fmt.Errorf("engine: XOS component %s: %w", name, err)
		}
		lpSolves += res.LPSolves
		if res.Weights == nil {
			return pricing.Result{}, fmt.Errorf("engine: XOS component %s is not an item pricing", name)
		}
		weightSets = append(weightSets, res.Weights)
	}
	out := pricing.XOS(h, weightSets...)
	out.LPSolves = lpSolves
	out.Runtime = time.Since(start)
	out.Extra = "components=" + strings.Join(comps, "+")
	return out, nil
}

func mustRegister(a Algorithm) {
	if err := Register(a); err != nil {
		panic(err)
	}
}

func init() {
	mustRegister(New("UBP", func(h *hypergraph.Hypergraph, _ Options) (pricing.Result, error) {
		return pricing.UniformBundle(h), nil
	}))
	mustRegister(New("UIP", func(h *hypergraph.Hypergraph, _ Options) (pricing.Result, error) {
		return pricing.UniformItem(h), nil
	}))
	mustRegister(New("LPIP", func(h *hypergraph.Hypergraph, opts Options) (pricing.Result, error) {
		return pricing.LPItem(h, pricing.LPItemOptions{MaxCandidates: opts.LPIPMaxCandidates})
	}))
	mustRegister(New("CIP", func(h *hypergraph.Hypergraph, opts Options) (pricing.Result, error) {
		return pricing.Capacity(h, pricing.CapacityOptions{
			Epsilon:       opts.CIPEpsilon,
			MaxCapacities: opts.CIPMaxCapacities,
		})
	}))
	mustRegister(New("Layering", func(h *hypergraph.Hypergraph, _ Options) (pricing.Result, error) {
		return pricing.Layering(h), nil
	}))
	mustRegister(xosAlgorithm{})
}
