package mlmodel

import (
	"fmt"
	"math"

	"repro/internal/vecops"
)

// Linear is an ordinary-least-squares linear regression model with an
// intercept and optional ridge regularization. It represents the fixed
// linear function form the paper criticizes cost models for assuming
// (Section II) — included both as a pluggable alternative and as the
// ablation baseline.
type Linear struct {
	Weights   []float64
	Intercept float64
	// ResidStd is the population std of the training residuals, recorded
	// by FitLinear as the model's homoscedastic predictive spread. Zero on
	// models loaded from artifacts that predate the field.
	ResidStd float64
}

// Predict returns w·x + b.
func (l *Linear) Predict(x []float64) float64 { return predictOne(l, x)[0] }

// PredictBatchDist is one vecops dot product per row, with the constant
// residual spread.
func (l *Linear) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	for i := 0; i < X.Rows; i++ {
		mean[i] = vecops.Dot(l.Weights, X.Row(i)) + l.Intercept
	}
	residBounds(X.Rows, l.ResidStd, mean, spread, lo, hi)
}

// LinearConfig controls the least-squares fit.
type LinearConfig struct {
	// Ridge is the L2 regularization strength added to the normal
	// equations' diagonal; it also guarantees solvability for collinear
	// features (plan vectors have many). Default 1e-6.
	Ridge float64
}

// FitLinear fits OLS/ridge regression via the normal equations
// (XᵀX + λI)w = XᵀY solved by Gaussian elimination with partial pivoting.
func FitLinear(d *Dataset, cfg LinearConfig) (*Linear, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("mlmodel: cannot fit linear regression on an empty dataset")
	}
	if cfg.Ridge <= 0 {
		cfg.Ridge = 1e-6
	}
	nf := d.NumFeatures()
	dim := nf + 1 // augmented with the intercept column

	// Build the normal equations in an augmented [A | b] matrix.
	a := make([][]float64, dim)
	for i := range a {
		a[i] = make([]float64, dim+1)
	}
	for r := 0; r < d.Len(); r++ {
		x := d.X[r]
		y := d.Y[r]
		for i := 0; i < nf; i++ {
			xi := x[i]
			if xi == 0 {
				continue
			}
			row := a[i]
			for j := i; j < nf; j++ {
				row[j] += xi * x[j]
			}
			row[nf] += xi // intercept column
			row[dim] += xi * y
		}
		a[nf][nf]++ // intercept × intercept
		a[nf][dim] += y
	}
	// Mirror the symmetric lower triangle and add the ridge diagonal. The
	// ridge scales with each feature's own magnitude: plan-vector cells
	// span ~15 orders of magnitude, so an absolute λ is simultaneously
	// negligible for cardinality columns and overwhelming for count
	// columns; a relative λ keeps the system positive definite at every
	// scale (including all-zero columns, via the +1).
	for i := 0; i < dim; i++ {
		for j := 0; j < i; j++ {
			a[i][j] = a[j][i]
		}
		if i < nf {
			a[i][i] += cfg.Ridge * (1 + a[i][i])
		}
	}

	w, err := solveGauss(a)
	if err != nil {
		return nil, err
	}
	l := &Linear{Weights: w[:nf], Intercept: w[nf]}
	var ss float64
	for r := 0; r < d.Len(); r++ {
		e := d.Y[r] - l.Predict(d.X[r])
		ss += e * e
	}
	l.ResidStd = math.Sqrt(ss / float64(d.Len()))
	return l, nil
}

// solveGauss solves the augmented system [A|b] in place by Gaussian
// elimination with partial pivoting.
func solveGauss(a [][]float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Partial pivot: largest absolute value in this column.
		pivot := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, pivot = v, r
			}
		}
		if best == 0 {
			return nil, fmt.Errorf("mlmodel: singular normal equations at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			factor := a[r][col] * inv
			if factor == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				a[r][c] -= factor * a[col][c]
			}
		}
	}
	// Back substitution.
	w := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := a[r][n]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * w[c]
		}
		w[r] = s / a[r][r]
	}
	return w, nil
}

// LinearTrainer adapts FitLinear to the Trainer interface.
type LinearTrainer struct{ Config LinearConfig }

// Fit trains a linear model on d.
func (t LinearTrainer) Fit(d *Dataset) (Model, error) { return FitLinear(d, t.Config) }
