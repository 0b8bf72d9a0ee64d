package mlmodel

import "repro/internal/vecops"

// Distributional prediction: every model family reports not just a point
// estimate but a (mean, spread, lo, hi) summary of its predictive
// distribution, from one kernel (Model.PredictBatchDist) that computes both.
// The uncertainty summary is derived from intermediate quantities the mean
// needed anyway (or nearly so), and a nil spread column skips it without
// touching the mean's arithmetic:
//
//   - Forest:   spread = population std of the per-tree predictions
//               (bagging disagreement); lo/hi = mean ∓ z·spread.
//   - GBM:      "virtual ensemble" tail: the last K partial boosted sums are
//               K estimates of the target; spread = their population std
//               (boosting convergence noise); lo/hi = mean ∓ z·spread.
//   - Ensemble: spread = population std of the member predictions
//               (training-data disagreement); lo/hi = min/max member,
//               widened to the mean where rounding puts it outside.
//   - Tree:     per-leaf training-target std recorded at fit time;
//               lo/hi = mean ∓ z·spread.
//   - Linear:   global training-residual std (homoscedastic);
//               lo/hi = mean ∓ z·spread.
//   - MLP:      global training-residual std, as Linear.
//   - LogTarget: the inner interval pushed through the monotone
//               expm1-and-clamp transform; spread = half the interval width.
//
// z is chosen so [lo, hi] approximates the central 90% interval under a
// Gaussian spread assumption. Models loaded from legacy artifacts that
// predate the uncertainty fields degrade gracefully to zero spread.

// zInterval is the standard-normal quantile for the central 90% interval.
const zInterval = 1.645

// Matrix is the flat row-major feature matrix of the prediction kernel (an
// alias of vecops.Matrix, so the core enumeration can hand its arena matrices
// to models without importing this package).
type Matrix = vecops.Matrix

// predictOne is every family's Predict: its kernel on a batch of one, mean
// only. It is small enough to inline, so a family's Predict calls its own
// kernel directly and a leaf family's allocates nothing.
func predictOne(m Model, x []float64) (mean [1]float64) {
	m.PredictBatchDist(&Matrix{Data: x, Rows: 1, Cols: len(x)}, mean[:], nil, nil, nil)
	return mean
}

// zBounds fills lo/hi with the symmetric z-interval around mean, unless
// spread is nil.
func zBounds(n int, mean, spread, lo, hi []float64) {
	for i := 0; spread != nil && i < n; i++ {
		d := zInterval * spread[i]
		lo[i] = mean[i] - d
		hi[i] = mean[i] + d
	}
}

// residBounds gives every row the one spread s of a homoscedastic family and
// its z-interval, unless spread is nil.
func residBounds(n int, s float64, mean, spread, lo, hi []float64) {
	for i := 0; spread != nil && i < n; i++ {
		spread[i] = s
	}
	zBounds(n, mean, spread, lo, hi)
}
