package mlmodel

import (
	"fmt"
	"math"
	"sync"
)

// Ensemble averages the predictions of independently trained models.
// Training-data generation is itself randomized (TDGen draws templates,
// plans and profiles from a seed), so single models carry idiosyncratic
// leaf noise; an argmin over thousands of candidate plans amplifies exactly
// that noise (winner's curse). Averaging models trained on independently
// generated datasets cancels it the same way bagging cancels bootstrap
// noise — but at the dataset level, where the variance actually lives.
type Ensemble struct {
	Models []Model
}

// Predict returns the mean of the member predictions.
func (e Ensemble) Predict(x []float64) float64 { return predictOne(e, x)[0] }

// scratchPool recycles the kernel's per-call member buffer, the one scratch
// that crosses an interface call and so cannot live on the stack.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

// PredictBatchDist averages the members' means in member order and, unless
// spread is nil, folds their disagreement in the same pass: the population
// std of the member predictions as the spread, their min and max (widened to
// hold the mean) as the interval. An ensemble without members predicts 0.
func (e Ensemble) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	n := X.Rows
	clear(mean[:n])
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
		m.PredictBatchDist(X, tmp, nil, nil, nil)
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
		if spread == nil {
			continue
		}
		spread[i] = stdFromSums(mean[i], spread[i]/div)
		// A rounded average of equal members can land a unit past them.
		if lo[i] > mean[i] {
			lo[i] = mean[i]
		}
		if hi[i] < mean[i] {
			hi[i] = mean[i]
		}
	}
}

// SaveModel support: an ensemble serializes as its members.
func ensembleEnvelope(e Ensemble) (*modelEnvelope, error) {
	var members []*modelEnvelope
	for _, m := range e.Models {
		env, err := envelope(m)
		if err != nil {
			return nil, err
		}
		members = append(members, env)
	}
	raw, err := marshalJSON(members)
	if err != nil {
		return nil, err
	}
	return &modelEnvelope{Type: "ensemble", Payload: raw}, nil
}

func ensembleFromEnvelope(payload []byte) (Model, error) {
	var members []*modelEnvelope
	if err := unmarshalJSON(payload, &members); err != nil {
		return nil, err
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("mlmodel: ensemble with no members")
	}
	e := Ensemble{}
	for _, env := range members {
		m, err := fromEnvelope(env)
		if err != nil {
			return nil, err
		}
		e.Models = append(e.Models, m)
	}
	return e, e.checkWidths()
}
