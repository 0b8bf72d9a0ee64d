package experiments

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/mlmodel"
	"repro/internal/platform"
)

// TestLatencyModelBatchMatchesPredict holds the latency scorer's lockstep
// batch to Predict bit for bit: batches of 1 to 17 rows (every remainder of
// a block of four, twice over), at the live widths of a 20-operator pipeline
// on 2 and 5 platforms, for the full-width scorer on rows expanded with zeros
// and for its specialisation on the compact rows (the Specialize contract
// FuzzEnumerate relies on). The cells are sparse and spread over many
// magnitudes, so summing a row in another order, or into another row's
// accumulator, changes some mean.
func TestLatencyModelBatchMatchesPredict(t *testing.T) {
	h := NewHarness()
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct{ k, live int }{{2, 101}, {5, 188}} {
		full := h.LatencyModel(platform.Subset(c.k)).(latencyModel)
		width := core.MustSchema(platform.Subset(c.k)).Len()
		cols := rng.Perm(width)[:c.live]
		slices.Sort(cols)
		spec := mlmodel.Specialize(full, cols, width).(latencyModel)
		for rows := 1; rows <= 17; rows++ {
			compact := mlmodel.Matrix{Data: make([]float64, rows*c.live), Rows: rows, Cols: c.live}
			wide := mlmodel.Matrix{Data: make([]float64, rows*width), Rows: rows, Cols: width}
			for i := range rows {
				for j, col := range cols {
					if rng.Intn(3) == 0 {
						v := rng.Float64() * math.Pow(10, float64(rng.Intn(19)-6))
						compact.Row(i)[j], wide.Row(i)[col] = v, v
					}
				}
			}
			for _, s := range []struct {
				name  string
				model latencyModel
				X     *mlmodel.Matrix
			}{{"full", full, &wide}, {"specialized", spec, &compact}} {
				mean, spread, lo, hi := make([]float64, rows), make([]float64, rows), make([]float64, rows), make([]float64, rows)
				for i := range rows {
					spread[i], lo[i], hi[i] = math.NaN(), math.NaN(), math.NaN()
				}
				s.model.PredictBatchDist(s.X, mean, spread, lo, hi)
				meanOnly := make([]float64, rows)
				s.model.PredictBatchDist(s.X, meanOnly, nil, nil, nil)
				for i := range rows {
					want := full.Predict(wide.Row(i))
					if own := s.model.Predict(s.X.Row(i)); math.Float64bits(own) != math.Float64bits(want) {
						t.Fatalf("k=%d %s: Predict of row %d is %v, the full scorer's on the expanded row %v", c.k, s.name, i, own, want)
					}
					if math.Float64bits(mean[i]) != math.Float64bits(want) || math.Float64bits(meanOnly[i]) != math.Float64bits(want) {
						t.Errorf("k=%d %s, %d rows: row %d mean %v (mean only: %v), Predict %v", c.k, s.name, rows, i, mean[i], meanOnly[i], want)
					}
					if spread[i] != 0 || math.Float64bits(lo[i]) != math.Float64bits(mean[i]) || math.Float64bits(hi[i]) != math.Float64bits(mean[i]) {
						t.Errorf("k=%d %s, %d rows: row %d spread %v lo %v hi %v, want 0 and mean %v", c.k, s.name, rows, i, spread[i], lo[i], hi[i], mean[i])
					}
				}
			}
		}
	}
}
