package plan

import (
	"sync"

	"querypricing/internal/relational"
)

// Arena is the reusable working memory of the probe hot path. A warm
// conflict-set quote decides thousands of (query, neighbor) pairs, and
// before arenas every decided pair allocated its patch structures, patched
// rows, enumeration tuple and accumulator maps from the heap. An Arena owns
// all of that scratch — patch sets, a bump-allocated row block, the delta
// enumeration runner, the per-mode accumulators, and the overlay/netting
// maps of the aggregate decisions — so a probe that runs through an arena
// performs near-zero heap allocation once the arena has warmed up.
//
// Arenas are NOT safe for concurrent use: each owner (an entry of a
// support-set shard's pooled probe scratch) holds one at a time. Callers
// without a worker identity use the package's internal arena pool through
// Plan.ProbeDelta. All scratch is dead the moment a probe returns; the next
// probe through the same arena reclaims it wholesale.
type Arena struct {
	patches patchSet
	rows    rowArena
	run     runner
	acc     probeAcc
	ov      overlayScratch
	cell    [1]CellChange // ProbeCell's one-change batch
}

// arenaPool backs Plan.ProbeDelta for callers that do not own a worker
// arena; Get/Put keep even those callers allocation-free in steady state.
var arenaPool = sync.Pool{New: func() any { return NewArena() }}

// NewArena returns an empty arena. Buffers grow on demand and are retained
// across probes.
func NewArena() *Arena { return &Arena{} }

// patchSet is a reusable replacement for a freshly allocated
// []*aliasPatch: byAlias[i] is nil until the probe's changes touch alias i,
// at which point it points into the store. reset reclaims every slice
// without freeing its capacity.
type patchSet struct {
	byAlias []*aliasPatch
	store   []aliasPatch
}

// reset prepares the patch set for a plan with n aliases.
func (ps *patchSet) reset(n int) {
	if cap(ps.store) < n {
		ps.store = make([]aliasPatch, n)
		ps.byAlias = make([]*aliasPatch, n)
	}
	ps.store = ps.store[:n]
	ps.byAlias = ps.byAlias[:n]
	for i := range ps.byAlias {
		ps.byAlias[i] = nil
	}
}

// at returns alias i's patch, claiming its store slot on first touch.
func (ps *patchSet) at(i int) *aliasPatch {
	ap := ps.byAlias[i]
	if ap == nil {
		ap = &ps.store[i]
		ap.removedPos = ap.removedPos[:0]
		ap.added = ap.added[:0]
		ap.removedSet = nil
		ps.byAlias[i] = ap
	}
	return ap
}

// rowArena bump-allocates patched row value slices from a shared block.
// Rows live only for the duration of one probe; reset reclaims the whole
// block at the start of the next one.
type rowArena struct {
	block []relational.Value
}

// reset reclaims every row handed out since the previous reset.
func (ra *rowArena) reset() { ra.block = ra.block[:0] }

// row returns a zeroed slice of n values carved from the block. The slice
// has full capacity n and never aliases a previously returned row.
func (ra *rowArena) row(n int) []relational.Value {
	if cap(ra.block)-len(ra.block) < n {
		c := 2 * cap(ra.block)
		if c < 256 {
			c = 256
		}
		if c < n {
			c = n
		}
		ra.block = make([]relational.Value, 0, c)
	}
	l := len(ra.block)
	ra.block = ra.block[:l+n]
	s := ra.block[l : l+n : l+n]
	for i := range s {
		s[i] = relational.Value{}
	}
	return s
}

// probeAcc accumulates the delta enumeration's emissions for one probe,
// replacing the per-probe closures and maps the decisions used to allocate.
// Which fields are live depends on the plan's mode.
type probeAcc struct {
	p *Plan

	// modeProjection: signed projected-row hash aggregates.
	addCnt, remCnt                 int
	addSum, addXor, remSum, remXor uint64

	// modeDistinct: net multiplicity delta per projected-row hash.
	net map[uint64]int

	// modeAggregate: per-group signed value deltas, with the groupDelta
	// structs (and their value slices) recycled across probes.
	deltas  map[string]*groupDelta
	gdStore []*groupDelta
	gdNext  int

	projBuf []byte
	keyBuf  []byte
}

// reset rebinds the accumulator to a plan and clears all per-probe state
// (map capacities and slice backings are retained).
func (acc *probeAcc) reset(p *Plan) {
	acc.p = p
	acc.addCnt, acc.remCnt = 0, 0
	acc.addSum, acc.addXor, acc.remSum, acc.remXor = 0, 0, 0, 0
	switch p.mode {
	case modeDistinct:
		if acc.net == nil {
			acc.net = make(map[uint64]int, 8)
		} else {
			clear(acc.net)
		}
	case modeAggregate:
		if acc.deltas == nil {
			acc.deltas = make(map[string]*groupDelta, 8)
		} else {
			clear(acc.deltas)
		}
		acc.gdNext = 0
	}
}

// group returns the accumulator's delta record for a group key, recycling
// a previously allocated groupDelta when one is free.
func (acc *probeAcc) group(key []byte) *groupDelta {
	if gd, ok := acc.deltas[string(key)]; ok {
		return gd
	}
	n := len(acc.p.aggCols)
	var gd *groupDelta
	if acc.gdNext < len(acc.gdStore) {
		gd = acc.gdStore[acc.gdNext]
		gd.rows = 0
		if cap(gd.removed) < n {
			gd.removed = make([][]relational.Value, n)
			gd.added = make([][]relational.Value, n)
		}
		gd.removed = gd.removed[:n]
		gd.added = gd.added[:n]
		for i := 0; i < n; i++ {
			gd.removed[i] = gd.removed[i][:0]
			gd.added[i] = gd.added[i][:0]
		}
	} else {
		gd = &groupDelta{
			removed: make([][]relational.Value, n),
			added:   make([][]relational.Value, n),
		}
		acc.gdStore = append(acc.gdStore, gd)
	}
	acc.gdNext++
	acc.deltas[string(key)] = gd
	return gd
}

// note folds one emitted tuple into the accumulator.
func (acc *probeAcc) note(tuple [][]relational.Value, sign int) {
	p := acc.p
	switch p.mode {
	case modeProjection:
		h := p.projHash(tuple, &acc.projBuf)
		if sign > 0 {
			acc.addCnt++
			acc.addSum += h
			acc.addXor ^= h
		} else {
			acc.remCnt++
			acc.remSum += h
			acc.remXor ^= h
		}
	case modeDistinct:
		acc.net[p.projHash(tuple, &acc.projBuf)] += sign
	case modeAggregate:
		acc.keyBuf = p.groupKey(tuple, acc.keyBuf[:0])
		gd := acc.group(acc.keyBuf)
		gd.rows += sign
		for ai, at := range p.aggCols {
			if at.col < 0 {
				continue // COUNT(*): row delta is enough
			}
			v := tuple[at.alias][at.col]
			if v.IsNull() {
				continue // SQL aggregates skip NULLs
			}
			if sign > 0 {
				gd.added[ai] = append(gd.added[ai], v)
			} else {
				gd.removed[ai] = append(gd.removed[ai], v)
			}
		}
	}
}

// overlayScratch recycles the maps and slices of the aggregate multiset
// decisions (buildOverlay, netDiff), which run once per touched group of an
// aggregate probe.
type overlayScratch struct {
	overlay     map[string]*ovDelta
	overlayKeys []string
	ovStore     []*ovDelta
	ovNext      int
	encBuf      []byte

	surplus map[string]int
	nrBuf   []relational.Value
	naBuf   []relational.Value
}

// resetOverlay reclaims the overlay map and key list.
func (os *overlayScratch) resetOverlay() {
	if os.overlay == nil {
		os.overlay = make(map[string]*ovDelta, 8)
	} else {
		clear(os.overlay)
	}
	os.overlayKeys = os.overlayKeys[:0]
	os.ovNext = 0
}

// entry returns a recycled ovDelta, allocating when the store is dry.
func (os *overlayScratch) entry() *ovDelta {
	if os.ovNext < len(os.ovStore) {
		e := os.ovStore[os.ovNext]
		os.ovNext++
		*e = ovDelta{}
		return e
	}
	e := &ovDelta{}
	os.ovStore = append(os.ovStore, e)
	os.ovNext++
	return e
}

// resetSurplus reclaims netDiff's scratch.
func (os *overlayScratch) resetSurplus() {
	if os.surplus == nil {
		os.surplus = make(map[string]int, 8)
	} else {
		clear(os.surplus)
	}
	os.nrBuf = os.nrBuf[:0]
	os.naBuf = os.naBuf[:0]
}
