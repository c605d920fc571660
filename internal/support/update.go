package support

// Live base-database updates. A support set's neighbors are defined as
// deltas against the base database, so when the seller's data advances to
// a new snapshot (relational.Database.Apply) the set itself advances: the
// same neighbors, re-interpreted against the new base. Advance builds the
// successor set without touching the original — concurrent quotes against
// the old snapshot keep their set, caches and plans — and defers all
// compiled-state maintenance:
//
//   - the shards — the partition and every shard's inverted footprint
//     index — are shared outright: both depend only on each neighbor's
//     delta coordinates ((table, row, col) footprints), which an update
//     never moves, so no neighbor is ever re-homed by a base-data change —
//     a deliberate property of footprint-based sharding;
//   - the bare-scan index pool and the set's plan cache advance lazily
//     (plan.IndexPool.Advance, plan.Cache.Advance): the change batch is
//     appended to a pending log, and a plan or index is folded up to the
//     new snapshot — all deferred batches coalesced into one rebase or
//     patch pass — on its first post-update use. Advance cost is
//     therefore independent of how many plans are cached. Drain forces the
//     fold-up eagerly (e.g. from a background goroutine on an idle broker).
//
// A neighbor whose delta an update makes vacuous (the new base value now
// equals the neighbor's) simply stops conflicting — exactly what a fresh
// conflict-set computation over the new base reports, so results stay
// byte-identical to a set literally constructed on the updated database.

import (
	"querypricing/internal/relational"
)

// UpdateStats reports how much compiled state an Advance or Drain touched.
type UpdateStats struct {
	// PlansDeferred counts cached plans carried across an Advance with
	// their delta maintenance deferred to first use (or a Drain).
	PlansDeferred int
	// PlansRebased counts cached plans a Drain delta-maintained onto the
	// set's snapshot — including the amortized eager drain an Advance
	// runs when the pending log hits its cap.
	PlansRebased int
	// PlansInvalidated counts cached plans whose deferred changes escaped
	// delta maintenance; a Drain recompiles them (first use would too).
	PlansInvalidated int
}

// Advance returns the support set re-based onto newDB — the successor
// snapshot produced by applying changes to the set's current database —
// with the same neighbors, the same shards, and every cached plan carried
// over for lazy, coalesced rebasing on first use (see plan.Cache.Advance).
// The receiver is never modified and remains fully usable against the old
// snapshot; conflict sets computed on the advanced set are byte-identical
// to those of a fresh Set built over newDB with the same neighbors.
func (s *Set) Advance(newDB *relational.Database, changes []Delta) (*Set, UpdateStats) {
	shards := s.ensureShards()
	// One defensive copy, shared by the pool's and the cache's pending
	// logs: callers are free to reuse their change slice afterwards.
	ch := append([]Delta(nil), changes...)
	pool := s.pool.Advance(newDB, ch)
	plans, ast := s.plans.Advance(newDB, ch, pool)
	ns := &Set{
		DB:        newDB,
		Neighbors: s.Neighbors,
		Shards:    s.Shards,
		shards:    shards,
		pool:      pool,
		plans:     plans,
	}
	return ns, UpdateStats{
		PlansDeferred:    ast.Deferred,
		PlansRebased:     ast.Rebased,
		PlansInvalidated: ast.Recompiled,
	}
}

// Drain eagerly folds every deferred update batch into the set's cached
// plans, exactly as each plan's first post-update use would: pending
// batches are coalesced into one rebase pass per plan, and plans the
// composite change escapes are recompiled. Safe to run concurrently with
// quotes (shared upgrades deduplicate); an optional background drainer
// calls this so idle brokers converge instead of deferring forever.
func (s *Set) Drain() UpdateStats {
	rebased, recompiled := s.cache().Drain(0)
	return UpdateStats{PlansRebased: rebased, PlansInvalidated: recompiled}
}

// StalePlans reports how many cached plans still carry deferred update
// batches (diagnostics and tests).
func (s *Set) StalePlans() int { return s.cache().StaleLen() }

// PlanStats reports the plan cache's deferred-maintenance state
// (diagnostics; marketd surfaces it under GET /stats and /metrics): how
// many plans it holds, how many of those are still behind the set's
// database snapshot, and how many change batches sit in its pending log
// waiting to be coalesced into them. The counts are a point-in-time
// snapshot: concurrent quotes and drains move plans out of the stale
// count as they fold them forward.
func (s *Set) PlanStats() (plans, stale, pending int) {
	c := s.cache()
	return c.Len(), c.StaleLen(), c.PendingBatches()
}
