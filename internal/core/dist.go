package core

// This file is the prediction contract of the enumeration. Every vector is
// scored by the model's predictive distribution, from the one kernel every
// CostModel has (PredictBatchDist; a point-only model reports zero spread):
// Vector.Dist carries it, Vector.Cost is its selection score mean + λ·spread,
// and the prune operation (pruneGroups) may keep near-ties whose intervals
// overlap their group winner's. Context.Risk holds the two knobs; its zero
// value — λ=0, keep one per group — is the paper's point-estimate optimizer,
// run by the same code as every other setting.

// CostDist summarizes the model's predictive distribution for one plan
// vector: the mean point estimate (bit-identical to Predict), a nonnegative
// spread (one standard deviation of the model's uncertainty proxy), and a
// central interval [Lo, Hi] containing the mean.
type CostDist struct {
	Mean   float64 `json:"mean"`
	Spread float64 `json:"spread"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
}

// overlaps reports whether the two predictive intervals intersect.
func (d CostDist) overlaps(o CostDist) bool { return d.Lo <= o.Hi && o.Lo <= d.Hi }

// Risk configures uncertainty-aware scoring and pruning for one optimization
// run. The zero value is the paper's point-estimate optimizer.
type Risk struct {
	// Lambda is the risk-aversion weight: vectors are scored (for pruning,
	// degraded-mode truncation and final selection alike) by
	// mean + Lambda·spread. 0 scores by the mean alone.
	Lambda float64
	// KeepOverlap switches boundary pruning from keep-one-per-footprint to
	// keep-near-ties: vectors whose predictive interval overlaps their
	// group winner's survive (up to overlapKept per group), so a plan the
	// model cannot confidently separate from the winner stays in play
	// until more of the plan is merged in and the intervals sharpen.
	KeepOverlap bool
}

// overlapKept is the number of vectors a pruning group retains under
// Risk.KeepOverlap: the winner plus up to three near-ties.
const overlapKept = 4

// score collapses a predictive distribution to the run's selection score.
// λ=0 must return the mean bit-for-bit, so it never computes mean + 0·s: that
// would turn a -0 mean into +0 and an infinite spread into NaN.
func (c *Context) score(d CostDist) float64 {
	s := d.Mean
	if c.Risk.Lambda != 0 {
		s += c.Risk.Lambda * d.Spread
	}
	return s
}
