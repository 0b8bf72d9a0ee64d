package mlmodel

// Specialize returns m as a scorer of rows that hold only the Schema columns
// cols, ascending (as an enumeration's live columns are), in that order, out
// of a Schema of width columns: bit-identical to m on the Schema-width row
// that holds the same cells and 0 in every other column. An Ensemble and a
// LogTarget specialise what they wrap; a model with its own Specialize (the
// tree families) reads the rows in place; any other model (Linear, MLP) gets
// them expanded to the Schema, blockRows at a time (expanded).
func Specialize(m Model, cols []int, width int) Model {
	switch mm := m.(type) {
	case Ensemble:
		members := make([]Model, len(mm.Models))
		for i, member := range mm.Models {
			members[i] = Specialize(member, cols, width)
		}
		return Ensemble{Models: members}
	case LogTarget:
		return LogTarget{Inner: Specialize(mm.Inner, cols, width)}
	case interface{ Specialize(cols []int) Model }:
		return mm.Specialize(cols)
	}
	return &expanded{m: m, cols: cols, width: width}
}

// expanded is Specialize's fallback: a model of Schema-width rows scoring
// rows of the columns cols. Each block of blockRows rows is written into a
// window off the kernels' stack (takeWindow), width cells a row and 0 outside
// cols, and handed to the model, so it allocates nothing once the stack holds
// a window for every call in flight.
type expanded struct {
	m     Model
	cols  []int
	width int
}

// PredictBatchDist scores X, rows of the columns cols, block by block.
func (e *expanded) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	w := takeWindow(blockRows * e.width)
	defer putWindow(w)
	for first := 0; first < X.Rows; first += blockRows {
		end := min(first+blockRows, X.Rows)
		w.m = Matrix{Data: w.data[:(end-first)*e.width], Rows: end - first, Cols: e.width}
		clear(w.m.Data)
		for r := first; r < end; r++ {
			row, x := w.m.Row(r-first), X.Row(r)
			for j, c := range e.cols {
				row[c] = x[j]
			}
		}
		if spread == nil {
			e.m.PredictBatchDist(&w.m, mean[first:end], nil, nil, nil)
		} else {
			e.m.PredictBatchDist(&w.m, mean[first:end], spread[first:end], lo[first:end], hi[first:end])
		}
	}
}

// Predict returns the estimate for x, a row of the columns cols.
func (e *expanded) Predict(x []float64) float64 { return predictOne(e, x)[0] }
