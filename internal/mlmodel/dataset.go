// Package mlmodel implements the regression models Robopt plugs into its
// prune operation: CART regression trees, bagged random forests (the model
// the paper found most robust), ordinary-least-squares linear regression,
// and a small multilayer perceptron (Section VII-A: "we tried linear
// regression, random forests, and neural networks... one can plug any
// regression algorithm"). Everything is stdlib-only and deterministic for a
// fixed seed.
package mlmodel

import (
	"fmt"
	"math"
	"math/rand"
)

// Dataset is a supervised regression dataset: feature rows X and targets Y
// (execution-plan vectors and their runtimes).
type Dataset struct {
	X [][]float64
	Y []float64
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.X) }

// NumFeatures returns the feature dimensionality (0 for an empty set).
func (d *Dataset) NumFeatures() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Append adds one labelled row.
func (d *Dataset) Append(x []float64, y float64) {
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
}

// Merge appends every row of other to d, composing datasets from different
// sources (TDGen generations, execution-feedback logs). The feature widths
// must agree when both datasets are non-empty. Rows are shared with other,
// not copied.
func (d *Dataset) Merge(other *Dataset) error {
	if other == nil || other.Len() == 0 {
		return nil
	}
	if d.Len() > 0 && d.NumFeatures() != other.NumFeatures() {
		return fmt.Errorf("mlmodel: cannot merge datasets with %d and %d features",
			d.NumFeatures(), other.NumFeatures())
	}
	d.X = append(d.X, other.X...)
	d.Y = append(d.Y, other.Y...)
	return nil
}

// Clone returns a deep copy of d's row and label slices (the feature rows
// themselves are shared).
func (d *Dataset) Clone() *Dataset {
	return &Dataset{
		X: append([][]float64(nil), d.X...),
		Y: append([]float64(nil), d.Y...),
	}
}

// Validate checks rectangularity and finiteness.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("mlmodel: %d rows but %d labels", len(d.X), len(d.Y))
	}
	nf := d.NumFeatures()
	for i, row := range d.X {
		if len(row) != nf {
			return fmt.Errorf("mlmodel: row %d has %d features, want %d", i, len(row), nf)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("mlmodel: row %d feature %d is %v", i, j, v)
			}
		}
		if math.IsNaN(d.Y[i]) || math.IsInf(d.Y[i], 0) {
			return fmt.Errorf("mlmodel: label %d is %v", i, d.Y[i])
		}
	}
	return nil
}

// Split partitions the dataset into train and test sets with the given test
// fraction, shuffling with the seeded source. The input is not modified.
func (d *Dataset) Split(testFrac float64, seed int64) (train, test *Dataset) {
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(d.Len())
	nTest := int(float64(d.Len()) * testFrac)
	train, test = &Dataset{}, &Dataset{}
	for i, j := range idx {
		if i < nTest {
			test.Append(d.X[j], d.Y[j])
		} else {
			train.Append(d.X[j], d.Y[j])
		}
	}
	return train, test
}

// Model is a fitted regression model, and the oracle m of the optimizer's
// prune operation: core.CostModel is this interface. PredictBatchDist is a
// family's one prediction kernel; Predict is that kernel on a batch of one.
type Model interface {
	// Predict returns the estimate for feature vector x.
	Predict(x []float64) float64
	// PredictBatchDist fills mean[i] with the estimate for row i of X and,
	// unless spread is nil, spread[i], lo[i] and hi[i] with its predictive
	// distribution (dist.go). spread, lo and hi are either all nil — the
	// cheap point path — or, like mean, all at least X.Rows long. mean is
	// bit-identical either way, and to Predict. Implementations must be safe
	// for concurrent calls (the enumeration chunks one matrix across workers),
	// so per-call scratch lives on the stack or in a pool.
	PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64)
}

// Trainer fits a Model on a dataset.
type Trainer interface {
	Fit(d *Dataset) (Model, error)
}
