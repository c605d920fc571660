package relational

// Eval's reusable working memory. A cold Eval over a join materializes
// three kinds of scratch that die the moment the Result is built: the
// per-table filtered scans, the hash-join table with its posting lists,
// and the combined join tuples themselves. On construction-heavy paths
// (plan compilation evaluates every aggregate/LIMIT query once) those
// intermediates dominated allocation by an order of magnitude, so Eval
// now draws them from a pooled evalScratch: tuple storage comes from a
// block arena, the scan and join-output row slices ping-pong between two
// reusable buffers, and the join hash reuses one key-hash map plus one
// postings slab, presized by a counting pass so nothing grows by
// doubling. Results never alias the scratch — every output row is built
// fresh — so the scratch is recycled as soon as Eval returns.

import "sync"

// valBlock is the value-arena block size, in Values. Large enough that a
// typical join allocates a handful of blocks; oversized tuples get a
// private allocation instead of poisoning the block size.
const valBlock = 16384

// valArena hands out []Value tuples carved from reusable blocks. Blocks
// are retained across resets, so a warm Eval's join tuples cost no
// allocation at all.
type valArena struct {
	blocks [][]Value
	bi     int // block currently being carved
	off    int // carve offset into blocks[bi]
}

// alloc returns a full-length []Value of len n backed by the arena.
func (a *valArena) alloc(n int) []Value {
	if n > valBlock {
		return make([]Value, n) // oversized: private, not retained
	}
	for {
		if a.bi < len(a.blocks) {
			blk := a.blocks[a.bi]
			if a.off+n <= len(blk) {
				out := blk[a.off : a.off+n : a.off+n]
				a.off += n
				return out
			}
			a.bi++
			a.off = 0
			continue
		}
		a.blocks = append(a.blocks, make([]Value, valBlock))
	}
}

// reset rewinds the arena, keeping every block for reuse.
func (a *valArena) reset() { a.bi, a.off = 0, 0 }

// joinKeyMask narrows Eval's join-key hashes. It is all ones; collision
// tests clear bits of it so distinct keys share a bucket and only the
// SameKey confirmation tells them apart.
var joinKeyMask = ^uint64(0)

// joinBucket is one key hash's posting list in the scratch join hash: the
// rows whose join keys hash alike, in scan order, carved from the shared
// postings slab and exactly sized by the counting pass.
type joinBucket struct {
	rows [][]Value
	n    int32 // row count from the first pass; len(rows) after the fill
}

// evalScratch is the pooled working memory of one Eval call.
type evalScratch struct {
	vals    valArena
	bufA    [][]Value        // ping-pong buffers: the running join result
	bufB    [][]Value        //   and the one being built from it
	scan    [][]Value        // filtered scan of the table being joined in
	hash    map[uint64]int32 // join key hash -> bucket index; reused, cleared per join
	buckets []joinBucket
	posts   [][]Value // postings slab carved into bucket.rows
	slot    []int32   // per scanned row: its bucket index, -1 for a NULL key
}

// release drops the row references the scratch accumulated (so pooled
// scratches never pin retired database snapshots) and returns it to the
// pool. Scalar value blocks are kept as-is: they hold only copied cell
// values, and rewinding them is what makes a warm Eval allocation-free.
func (s *evalScratch) release() {
	s.vals.reset()
	clear(s.bufA[:cap(s.bufA)])
	clear(s.bufB[:cap(s.bufB)])
	clear(s.scan[:cap(s.scan)])
	clear(s.posts[:cap(s.posts)])
	clear(s.hash)
	b := s.buckets[:cap(s.buckets)]
	for i := range b {
		b[i] = joinBucket{}
	}
	s.bufA, s.bufB, s.scan = s.bufA[:0], s.bufB[:0], s.scan[:0]
	s.posts, s.buckets, s.slot = s.posts[:0], s.buckets[:0], s.slot[:0]
	evalScratchPool.Put(s)
}

var evalScratchPool = sync.Pool{
	New: func() any {
		return &evalScratch{hash: make(map[uint64]int32)}
	},
}
