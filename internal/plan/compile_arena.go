package plan

// The compile arena: reusable scratch for plan compilation's base
// enumeration state, the Compile-side sibling of the probe Arena
// (arena.go) and of relational's pooled Eval scratch. Cold construction
// builds thousands of plans back to back — every one hashing its scans
// into join indexes — and the index build's intermediates (the key-hash
// ordinal map, per-row ordinals, per-key counts, carve cursors) die as
// soon as the index is published, so they are pooled here instead of
// reallocated per plan.
//
// The arena is pooled at package level rather than threaded through the
// caller: compilation runs under the plan cache's in-flight deduplication,
// so a caller cannot hand its own arena through Get without
// serializing concurrent compiles; a sync.Pool gives each compiling goroutine a
// private arena with the same warm-reuse behavior.

import "sync"

// compileArena is one goroutine's compilation scratch.
type compileArena struct {
	keys   map[uint64]int32 // join key hash -> bucket ordinal
	counts []int32          // rows per bucket, from the counting pass
	spans  [][]int32        // per-bucket carve cursors into the postings block
	aux    []int32          // per-row bucket ordinals (hashRows) or candidate row indices (indexed filtered scans)
}

var compileArenaPool = sync.Pool{
	New: func() any { return &compileArena{keys: make(map[uint64]int32)} },
}

func getCompileArena() *compileArena {
	return compileArenaPool.Get().(*compileArena)
}

// recycle clears the arena and returns it to the pool. The spans are
// dropped explicitly: they point into the postings block the published
// index now owns, and a pooled arena must not pin it.
func (ar *compileArena) recycle() {
	clear(ar.keys)
	clear(ar.spans[:cap(ar.spans)])
	ar.counts = ar.counts[:0]
	ar.spans = ar.spans[:0]
	ar.aux = ar.aux[:0]
	compileArenaPool.Put(ar)
}
