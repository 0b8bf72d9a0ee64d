package mlmodel

// BatchModel, Batcher and DistBatcher are the point-batch spellings the
// benchmark ledger (bench/probes.go) still calls; every Model is its own
// kernel, so they only rename it.
type BatchModel interface {
	Model
	PredictBatch(X *Matrix, out []float64)
}

// Batcher returns m with PredictBatch as its kernel's mean column.
func Batcher(m Model) BatchModel { return batcher{m} }

type batcher struct{ Model }

func (b batcher) PredictBatch(X *Matrix, out []float64) { b.PredictBatchDist(X, out, nil, nil, nil) }

// DistBatcher returns m, its own distributional kernel.
func DistBatcher(m Model) Model { return m }
