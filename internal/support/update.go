package support

// Live base-database updates. A support set's neighbors are defined as
// deltas against the base database, so when the seller's data advances to
// a new snapshot (relational.Database.Apply) the set itself advances: the
// same neighbors, re-interpreted against the new base. Advance builds the
// successor set without touching the original — concurrent quotes against
// the old snapshot keep their set, caches and plans — and defers all
// compiled-state maintenance:
//
//   - the shards — the partition and every shard's footprint postings and
//     cell-update records — are shared outright: they depend only on the
//     neighbors' deltas (their (table, row, col) footprints and new
//     values), which an update never moves, so no neighbor is ever re-homed by a base-data change —
//     a deliberate property of footprint-based sharding;
//   - the set's plan cache advances lazily (plan.Cache.Advance): the
//     change batch is appended to a pending log, and a plan is folded up
//     to the new snapshot — all deferred batches coalesced into one
//     rebase — on its first post-update use, or in the eager drain the
//     cache runs when the log passes plan.MaxPendingBatches. The
//     bare-scan index pool the cache owns carries only the indexes the
//     batch leaves exact and rebuilds every other one from its snapshot
//     (hashRows) on first use; it never patches. Advance cost is
//     therefore independent of how many plans are cached. Drain forces
//     the fold-up eagerly on demand.
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
	// One defensive copy for the cache's pending log: callers are free to
	// reuse their change slice afterwards.
	plans, ast := s.plans.Advance(newDB, append([]Delta(nil), changes...))
	ns := &Set{
		DB:        newDB,
		Neighbors: s.Neighbors,
		Shards:    s.Shards,
		shards:    shards,
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
// quotes (shared upgrades deduplicate). Nothing in serving calls it: an
// idle set keeps its stale plans until their first use or the next cap
// drain. Experiments and benchmarks call it to fold everything at a
// chosen point.
func (s *Set) Drain() UpdateStats {
	rebased, recompiled := s.cache().Drain()
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
