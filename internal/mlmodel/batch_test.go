package mlmodel_test

import (
	"math/rand"
	"testing"

	"repro/internal/mlmodel"
	"repro/internal/vecops"
)

// TestBatchScalarParity is the cross-family batch/scalar parity property for
// the point-batch spelling the benchmark ledger calls: for every family,
// Batcher(m).PredictBatch on a random matrix is bit-identical to per-row
// Predict, including the empty and single-row batches. Both are the family's
// one kernel, so any difference means the shim stopped being a rename.
func TestBatchScalarParity(t *testing.T) {
	const nf = 8
	rng := rand.New(rand.NewSource(42))
	for _, fam := range distFamilies(t, nf) {
		bm := mlmodel.Batcher(fam.m)
		for _, rows := range []int{0, 1, 5, 33, 128} {
			X := vecops.NewMatrix(rows, nf)
			for i := range X.Data {
				X.Data[i] = rng.Float64() * 10
			}
			out := make([]float64, rows)
			bm.PredictBatch(X, out)
			for i := 0; i < rows; i++ {
				want := fam.m.Predict(X.Row(i))
				if !sameBits(out[i], want) || !sameBits(bm.Predict(X.Row(i)), want) {
					t.Fatalf("%s rows=%d row %d: PredictBatch=%v Predict=%v (must be bit-identical)",
						fam.name, rows, i, out[i], want)
				}
			}
		}
	}
}
