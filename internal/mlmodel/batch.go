package mlmodel

import (
	"math"
	"sync"

	"repro/internal/vecops"
)

// Matrix is the flat row-major feature matrix of the batch inference path
// (an alias of vecops.Matrix, so the core enumeration can hand its arena
// matrices to models without importing this package).
type Matrix = vecops.Matrix

// BatchModel is a Model that can predict a whole feature matrix in one
// call. PredictBatch fills out[i] with the prediction for row i of X and
// must be arithmetically identical to calling Predict on each row — the
// optimizer's determinism contract compares batched and scalar runs bit for
// bit. len(out) must be at least X.Rows. Implementations must be safe for
// concurrent PredictBatch calls (the enumeration chunks one matrix across
// workers), so per-call scratch lives on the stack or comes from scratchPool.
//
// Every model family in this package implements BatchModel natively — Tree,
// Forest and GBM through the one flat-forest kernel (flat.go) — and the
// Batcher adapter lifts third-party scalar models.
type BatchModel interface {
	Model
	PredictBatch(X *Matrix, out []float64)
}

// Batcher returns m as a BatchModel: natively batch-capable models are
// returned unchanged, scalar models are wrapped with a per-row loop.
func Batcher(m Model) BatchModel {
	if bm, ok := m.(BatchModel); ok {
		return bm
	}
	return scalarBatch{m}
}

// scalarBatch adapts a scalar Model to BatchModel row by row.
type scalarBatch struct{ Model }

func (b scalarBatch) PredictBatch(X *Matrix, out []float64) {
	for i := 0; i < X.Rows; i++ {
		out[i] = b.Predict(X.Row(i))
	}
}

// PredictBatch is one vecops dot product per row.
func (l *Linear) PredictBatch(X *Matrix, out []float64) {
	for i := 0; i < X.Rows; i++ {
		out[i] = vecops.Dot(l.Weights, X.Row(i)) + l.Intercept
	}
}

// PredictBatch evaluates the network hidden-unit-major: each hidden unit's
// weight row is loaded once and applied to every row of X. The per-row
// accumulation order over hidden units matches the scalar Predict, so
// results are bit-identical.
func (m *MLP) PredictBatch(X *Matrix, out []float64) {
	n := X.Rows
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		out[i] = 0
	}
	for j, wj := range m.w1 {
		w2j := m.w2[j]
		b1j := m.b1[j]
		for r := 0; r < n; r++ {
			x := X.Row(r)
			s := b1j
			for i, w := range wj {
				s += w * (x[i] - m.xMean[i]) / m.xStd[i]
			}
			out[r] += w2j * math.Tanh(s)
		}
	}
	for r := 0; r < n; r++ {
		out[r] = (out[r]+m.b2)*m.yStd + m.yMean
	}
}

// PredictBatch averages the members' batched predictions in member order,
// matching the scalar Predict's accumulation exactly.
func (e Ensemble) PredictBatch(X *Matrix, out []float64) { e.predict(X, out, nil, nil, nil) }

// scratchPool recycles Ensemble's per-call member buffer, the one batch
// scratch that crosses an interface call and so cannot live on the stack.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

// PredictBatch exponentiates the inner model's batched estimates with the
// same expm1-and-clamp as the scalar Predict.
func (m LogTarget) PredictBatch(X *Matrix, out []float64) {
	n := X.Rows
	if n == 0 {
		return
	}
	Batcher(m.Inner).PredictBatch(X, out)
	for i := 0; i < n; i++ {
		y := math.Expm1(out[i])
		if y < 0 {
			y = 0
		}
		out[i] = y
	}
}
