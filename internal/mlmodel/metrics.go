package mlmodel

import (
	"math"
	"sort"

	"repro/internal/vecops"
)

// Metrics summarizes regression quality on a held-out set. RankCorr matters
// most for plan selection: the optimizer only needs the model to *order*
// plan vectors correctly (Section IV-A).
type Metrics struct {
	MAE      float64 // mean absolute error
	RMSE     float64 // root mean squared error
	R2       float64 // coefficient of determination
	RankCorr float64 // Spearman rank correlation
	N        int
}

// Evaluate scores model m on dataset d: the dataset rows are flattened into
// one Matrix and scored with a single point-path kernel call.
func Evaluate(m Model, d *Dataset) Metrics {
	n := d.Len()
	if n == 0 {
		return Metrics{}
	}
	pred := make([]float64, n)
	m.PredictBatchDist(vecops.MatrixFromRows(d.X, d.NumFeatures()), pred, nil, nil, nil)
	var absSum, sqSum, yMean float64
	for i := range pred {
		e := pred[i] - d.Y[i]
		absSum += math.Abs(e)
		sqSum += e * e
		yMean += d.Y[i]
	}
	yMean /= float64(n)
	var ssTot float64
	for _, y := range d.Y {
		ssTot += (y - yMean) * (y - yMean)
	}
	r2 := 0.0
	if ssTot > 0 {
		r2 = 1 - sqSum/ssTot
	}
	return Metrics{
		MAE:      absSum / float64(n),
		RMSE:     math.Sqrt(sqSum / float64(n)),
		R2:       r2,
		RankCorr: Spearman(pred, d.Y),
		N:        n,
	}
}

// Spearman returns the Spearman rank correlation between a and b (ties get
// average ranks). It is 1 when the model orders plans exactly like the
// ground truth.
func Spearman(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	ra := ranks(a)
	rb := ranks(b)
	return pearson(ra, rb)
}

func ranks(v []float64) []float64 {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return v[idx[i]] < v[idx[j]] })
	r := make([]float64, n)
	i := 0
	for i < n {
		j := i
		for j+1 < n && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}
