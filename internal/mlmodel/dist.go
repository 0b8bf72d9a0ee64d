package mlmodel

import "math"

// Distributional prediction: every model family reports not just a point
// estimate but a (mean, spread, lo, hi) summary of its predictive
// distribution. The mean is ALWAYS bit-identical to the scalar/batch point
// path — the optimizer's determinism and λ=0 parity contracts compare them
// bit for bit — so each family's PredictBatchDist replays the exact
// accumulation order of its PredictBatch (the tree families run the same
// kernel pass for both, flat.go) and derives the uncertainty summary from
// intermediate quantities that were computed anyway (or nearly so):
//
//   - Forest:   spread = population std of the per-tree predictions
//               (bagging disagreement); lo/hi = mean ∓ z·spread.
//   - GBM:      "virtual ensemble" tail: the last K partial boosted sums are
//               K estimates of the target; spread = their population std
//               (boosting convergence noise); lo/hi = mean ∓ z·spread.
//   - Ensemble: spread = population std of the member predictions
//               (training-data disagreement); lo/hi = min/max member.
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

// BatchDistModel is a Model that also reports the uncertainty of its
// predictions: it fills the four parallel output slices for every row of X.
// mean[i] must be bit-identical to PredictBatch's out[i]; spread is
// nonnegative and lo ≤ mean ≤ hi holds row-wise. len of each slice must be
// at least X.Rows. Implementations must be safe for concurrent calls, like
// PredictBatch.
type BatchDistModel interface {
	Model
	PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64)
}

// DistBatcher returns m as a BatchDistModel: natively dist-capable models
// are returned unchanged, point-only models are adapted with zero spread
// (lo = hi = mean), preserving the batched mean path exactly.
func DistBatcher(m Model) BatchDistModel {
	if dm, ok := m.(BatchDistModel); ok {
		return dm
	}
	return pointDist{Batcher(m)}
}

// pointDist adapts a point-only model: the predictive distribution collapses
// to the mean.
type pointDist struct{ BatchModel }

func (p pointDist) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	p.PredictBatch(X, mean)
	for i := 0; i < X.Rows; i++ {
		spread[i] = 0
		lo[i] = mean[i]
		hi[i] = mean[i]
	}
}

// zBounds fills lo/hi with the symmetric z-interval around mean.
func zBounds(n int, mean, spread, lo, hi []float64) {
	for i := 0; i < n; i++ {
		d := zInterval * spread[i]
		lo[i] = mean[i] - d
		hi[i] = mean[i] + d
	}
}

// PredictBatchDist is PredictBatch plus the constant residual spread.
func (l *Linear) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	n := X.Rows
	l.PredictBatch(X, mean)
	for i := 0; i < n; i++ {
		spread[i] = l.ResidStd
	}
	zBounds(n, mean, spread, lo, hi)
}

// PredictBatchDist is PredictBatch plus the constant residual spread.
func (m *MLP) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	n := X.Rows
	m.PredictBatch(X, mean)
	for i := 0; i < n; i++ {
		spread[i] = m.residStd
	}
	zBounds(n, mean, spread, lo, hi)
}

// PredictBatchDist is PredictBatch plus the population std of the member
// predictions as the spread, with the member min/max as the interval.
func (e Ensemble) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	e.predict(X, mean, spread, lo, hi)
}

// predict averages the members' batched predictions in member order and,
// unless spread is nil, folds their disagreement in the same pass — one
// accumulation for both entry points, so their means are bit-identical.
func (e Ensemble) predict(X *Matrix, mean, spread, lo, hi []float64) {
	n := X.Rows
	for i := 0; i < n; i++ {
		mean[i] = 0
	}
	if spread != nil {
		lo0, hi0 := math.Inf(1), math.Inf(-1) // folded down to the member min/max
		if len(e.Models) == 0 {
			lo0, hi0 = 0, 0
		}
		for i := 0; i < n; i++ {
			spread[i], lo[i], hi[i] = 0, lo0, hi0
		}
	}
	if n == 0 || len(e.Models) == 0 {
		return
	}
	buf := scratchPool.Get().(*[]float64)
	defer scratchPool.Put(buf)
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	tmp := (*buf)[:n]
	for _, m := range e.Models {
		Batcher(m).PredictBatch(X, tmp)
		for i, p := range tmp {
			mean[i] += p
			if spread == nil {
				continue
			}
			spread[i] += p * p
			if p < lo[i] {
				lo[i] = p
			}
			if p > hi[i] {
				hi[i] = p
			}
		}
	}
	div := float64(len(e.Models))
	for i := 0; i < n; i++ {
		mean[i] /= div
		if spread != nil {
			spread[i] = stdFromSums(mean[i], spread[i]/div)
		}
	}
}

// PredictBatchDist exponentiates the inner model's distributional estimates.
// The mean takes the same expm1-and-clamp as PredictBatch (bit-identical);
// the interval bounds ride through the monotone transform, and the spread is
// re-derived as half the transformed interval width — a std in log space has
// no fixed meaning in seconds.
func (m LogTarget) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	n := X.Rows
	if n == 0 {
		return
	}
	DistBatcher(m.Inner).PredictBatchDist(X, mean, spread, lo, hi)
	for i := 0; i < n; i++ {
		y := math.Expm1(mean[i])
		if y < 0 {
			y = 0
		}
		l := math.Expm1(lo[i])
		if l < 0 {
			l = 0
		}
		h := math.Expm1(hi[i])
		if h < 0 {
			h = 0
		}
		if l > h {
			l, h = h, l
		}
		if l > y {
			l = y
		}
		if h < y {
			h = y
		}
		mean[i] = y
		lo[i] = l
		hi[i] = h
		spread[i] = (h - l) / 2
	}
}
