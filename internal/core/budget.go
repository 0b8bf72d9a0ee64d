package core

import (
	"sort"
	"time"
)

// Budget bounds the work of one optimization run. The enumeration of
// Algorithm 1 is worst-case exponential without pruning and can still blow
// up with it (the O(kⁿ) regime of Figure 9a on adversarial topologies), so a
// serving deployment needs every run to be bounded in memory, model calls
// and wall-clock time.
//
// Exhausting a budget dimension does not abort the run. Instead the
// enumeration switches into degraded mode: every remaining enumeration is
// additionally truncated to the DegradedCap cheapest vectors after pruning
// (and before each concatenation), which collapses the remaining search to a
// near-greedy walk with a small beam. The run then completes quickly and
// returns a valid, executable plan flagged Degraded in Result/Stats. This is
// the graceful half of the latency contract; the hard half is the
// context.Context deadline, which cancels the run outright.
//
// In degraded mode vectors are ranked by Vector.Cost as last set by the
// pruner (BoundaryPruner and PropertyPruner predict every vector they see);
// with a cost-free pruner the truncation falls back to insertion order,
// which stays deterministic.
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
	// DegradedCap is the number of vectors each enumeration keeps once the
	// budget is exhausted. 0 means the default of 8.
	DegradedCap int
	// ForceDegraded starts the run already degraded: every enumeration is
	// truncated to the DegradedCap beam from the first concatenation on, so
	// the run costs a small, bounded amount of work regardless of the plan.
	// This is the serving layer's load-shedding mode — under admission
	// pressure a request is answered with the beam's best-effort plan
	// (DegradeReason "load-shed") instead of being refused outright.
	ForceDegraded bool
}

// ShedReason is the DegradeReason reported by runs degraded up front via
// ForceDegraded rather than by exhausting a budget dimension mid-run.
const ShedReason = "load-shed"

// Active reports whether any budget dimension is set.
func (b Budget) Active() bool {
	return b.MaxVectors > 0 || b.MaxModelCalls > 0 || b.SoftDeadline > 0 || b.ForceDegraded
}

// cap returns the degraded-mode beam width.
func (b Budget) cap() int {
	if b.DegradedCap > 0 {
		return b.DegradedCap
	}
	return 8
}

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

// truncateCheapest keeps the n cheapest vectors of e (stable on cost ties,
// so the result is deterministic for any Workers setting) and counts the
// discarded rest as pruned.
func truncateCheapest(e *Enumeration, n int, st *Stats) {
	if len(e.Vectors) <= n {
		return
	}
	e.mat = nil
	sort.SliceStable(e.Vectors, func(i, j int) bool {
		return e.Vectors[i].Cost < e.Vectors[j].Cost
	})
	if st != nil {
		st.Pruned += len(e.Vectors) - n
	}
	e.Vectors = e.Vectors[:n]
}

// truncate is truncateCheapest to the degraded beam for an enumeration that
// lives in the run's store: the rows of the vectors it drops are released.
func (c *Context) truncate(e *Enumeration, st *Stats) {
	all := e.Vectors
	truncateCheapest(e, c.Budget.cap(), st)
	c.store.release(all[len(e.Vectors):])
}
