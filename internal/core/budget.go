package core

import (
	"context"
	"sort"
	"time"

	"repro/internal/platform"
)

// Budget bounds the work of one optimization run. The enumeration of
// Algorithm 1 is worst-case exponential without pruning and can still blow
// up with it (the O(kⁿ) regime of Figure 9a on adversarial topologies), so a
// serving deployment needs every run to be bounded in memory, model calls
// and wall-clock time.
//
// Exhausting a budget dimension does not abort the run. Instead the
// enumeration switches into degraded mode: every remaining enumeration is
// additionally truncated to the degradedCap cheapest vectors after pruning
// (and before each concatenation), which collapses the remaining search to a
// near-greedy walk with a small beam. The run then completes quickly and
// returns a valid, executable plan flagged Degraded in Result/Stats. This is
// the graceful half of the latency contract; the hard half is the
// context.Context deadline, which cancels the run outright.
//
// In degraded mode a BoundaryPruner's vectors are ranked by their cost under
// the run's model, scored first if no prune needed them; with a cost-free
// pruner the truncation falls back to insertion order, which stays
// deterministic.
type Budget struct {
	// MaxVectors bounds the plan vectors materialized over the whole run
	// (Stats.VectorsCreated, counting projected concatenation sizes before
	// they are materialized). 0 means unlimited.
	MaxVectors int
	// MaxModelCalls bounds the feature rows sent to the cost oracle
	// (Stats.ModelRows) — the per-row quantity that scalar model calls
	// used to count, so existing budget values keep their meaning under
	// batched inference. Vectors already scored are free. 0 means
	// unlimited.
	MaxModelCalls int
	// SoftDeadline bounds the wall-clock enumeration time, measured from
	// the start of EnumerateFull. Unlike a context deadline it degrades
	// instead of cancelling. 0 means unlimited.
	SoftDeadline time.Duration
	// ForceDegraded starts the run already degraded: every enumeration is
	// truncated to the degraded beam from the first concatenation on, so
	// the run costs a small, bounded amount of work regardless of the plan.
	// This is the serving layer's load-shedding mode — under admission
	// pressure a request is answered with the beam's best-effort plan
	// (DegradeReason "load-shed") instead of being refused outright.
	ForceDegraded bool
}

// ShedReason is the DegradeReason reported by runs degraded up front via
// ForceDegraded rather than by exhausting a budget dimension mid-run.
const ShedReason = "load-shed"

// degradedCap is the degraded-mode beam width: the number of vectors each
// enumeration keeps once the budget is exhausted.
const degradedCap = 8

// The beam is at least as wide as the platform universe, so it never
// truncates a singleton enumeration (one vector per available platform):
// the conversion does not compile once degradedCap drops below it.
const _ = uint(degradedCap - platform.NumPlatforms)

// exhausted returns the name of the first exhausted budget dimension, or ""
// while the run is within budget. projected is the size of the concatenation
// about to be materialized, so a single oversized cartesian product trips
// the budget before allocating, not after.
func (b Budget) exhausted(st *Stats, start time.Time, projected int) string {
	if b.ForceDegraded {
		return ShedReason
	}
	if b.MaxVectors > 0 && st.VectorsCreated+projected > b.MaxVectors {
		return "max-vectors"
	}
	if b.MaxModelCalls > 0 && st.ModelRows >= b.MaxModelCalls {
		return "max-model-calls"
	}
	if b.SoftDeadline > 0 && time.Since(start) >= b.SoftDeadline {
		return "soft-deadline"
	}
	return ""
}

// truncateCheapest keeps the degradedCap cheapest vectors of e (stable on
// cost ties, so the result is deterministic for any Workers setting) and
// counts the discarded rest as pruned.
func truncateCheapest(e *Enumeration, st *Stats) {
	if len(e.Vectors) <= degradedCap {
		return
	}
	e.mat = nil
	sort.SliceStable(e.Vectors, func(i, j int) bool {
		return e.Vectors[i].Cost < e.Vectors[j].Cost
	})
	if st != nil {
		st.Pruned += len(e.Vectors) - degradedCap
	}
	e.Vectors = e.Vectors[:degradedCap]
}

// truncate is truncateCheapest, ranked by the run's model, for an enumeration
// in the run's store: the rows of dropped vectors are released.
func (c *Context) truncate(ctx context.Context, pr Pruner, e *Enumeration, st *Stats) {
	if all := e.Vectors; len(all) > degradedCap {
		c.rank(ctx, pr, e, st)
		truncateCheapest(e, st)
		c.store.release(all[len(e.Vectors):])
	}
}

// rank scores the unscored vectors of e for a degraded beam with the run's
// model when pr is a BoundaryPruner (a cost-free pruner's all cost 0). If ctx
// is cancelled, costs stay partial and the run is abandoned at its next check.
func (c *Context) rank(ctx context.Context, pr Pruner, e *Enumeration, st *Stats) {
	if _, ok := pr.(BoundaryPruner); ok {
		c.predictEnum(ctx, e, st)
	}
}
