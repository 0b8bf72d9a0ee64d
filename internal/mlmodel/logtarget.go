package mlmodel

import "math"

// LogTarget wraps a model fitted on log1p-transformed targets and
// exponentiates its predictions. Runtimes span six orders of magnitude;
// fitting squared error on raw seconds lets the largest jobs dominate every
// split, while the optimizer only needs the model to *order* plans — a goal
// a monotone transform preserves exactly (argmin is invariant).
type LogTarget struct {
	Inner Model
}

// Predict returns expm1 of the inner model's estimate, clamped to be
// nonnegative.
func (m LogTarget) Predict(x []float64) float64 { return predictOne(m, x)[0] }

// PredictBatchDist exponentiates the inner model's estimates. The interval
// bounds ride through the same monotone transform as the mean, and the spread
// is re-derived as half the transformed interval width — a std in log space
// has no fixed meaning in seconds.
func (m LogTarget) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	m.Inner.PredictBatchDist(X, mean, spread, lo, hi)
	for i := 0; i < X.Rows; i++ {
		y := expm1Clamp(mean[i])
		mean[i] = y
		if spread == nil {
			continue
		}
		l, h := expm1Clamp(lo[i]), expm1Clamp(hi[i])
		if l > h {
			l, h = h, l
		}
		if l > y {
			l = y
		}
		if h < y {
			h = y
		}
		lo[i], hi[i], spread[i] = l, h, (h-l)/2
	}
}

// expm1Clamp maps a log-space estimate back to seconds, clamped to be
// nonnegative.
func expm1Clamp(v float64) float64 {
	if v = math.Expm1(v); v < 0 {
		return 0
	}
	return v
}

// LogTargetTrainer fits the wrapped trainer on log1p(y) and returns a
// LogTarget model.
type LogTargetTrainer struct {
	Inner Trainer
}

// Fit transforms the dataset's targets and trains the inner model.
func (t LogTargetTrainer) Fit(d *Dataset) (Model, error) {
	logged := &Dataset{X: d.X, Y: make([]float64, len(d.Y))}
	for i, y := range d.Y {
		logged.Y[i] = math.Log1p(y)
	}
	inner, err := t.Inner.Fit(logged)
	if err != nil {
		return nil, err
	}
	return LogTarget{Inner: inner}, nil
}
