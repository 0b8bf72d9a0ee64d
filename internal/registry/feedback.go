package registry

import (
	"fmt"
	"sync"

	"repro/internal/mlmodel"
)

// Feedback is the bounded buffer of execution outcomes a replica has
// observed: each sample is one (plan vector, observed runtime) pair produced
// by actually running a chosen plan. The buffer is a ring — once full, new
// samples overwrite the oldest, so it always holds the most recent execution
// behaviour. GET /modelz/feedback exports it for offline retraining.
type Feedback struct {
	mu   sync.Mutex
	x    [][]float64
	y    []float64
	next int // ring write position
	cap  int
}

// DefaultFeedbackCap bounds the buffer when no capacity is given.
const DefaultFeedbackCap = 4096

// NewFeedback returns a feedback buffer holding at most cap samples
// (DefaultFeedbackCap if cap <= 0).
func NewFeedback(cap int) *Feedback {
	if cap <= 0 {
		cap = DefaultFeedbackCap
	}
	return &Feedback{cap: cap}
}

// Cap returns the buffer capacity.
func (f *Feedback) Cap() int { return f.cap }

// Add records one observed execution. The vector is copied, so callers may
// reuse their slice. Width-inconsistent samples are rejected: they would
// make the exported dataset unreadable.
func (f *Feedback) Add(x []float64, y float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.x) > 0 && len(x) != len(f.x[0]) {
		return fmt.Errorf("registry: feedback sample has %d features, buffer holds %d-feature rows",
			len(x), len(f.x[0]))
	}
	row := append([]float64(nil), x...)
	if len(f.x) < f.cap {
		f.x = append(f.x, row)
		f.y = append(f.y, y)
	} else {
		f.x[f.next] = row
		f.y[f.next] = y
		f.next = (f.next + 1) % f.cap
	}
	return nil
}

// Len returns the number of samples currently buffered.
func (f *Feedback) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.x)
}

// Dataset returns a point-in-time copy of the buffered samples as a
// training dataset, oldest first (rows are shared, the containers are
// copies).
func (f *Feedback) Dataset() *mlmodel.Dataset {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.x)
	ds := &mlmodel.Dataset{X: make([][]float64, 0, n), Y: make([]float64, 0, n)}
	for i := 0; i < n; i++ {
		j := i
		if n == f.cap {
			// A full ring's oldest row sits at the write position.
			j = (f.next + i) % f.cap
		}
		ds.X = append(ds.X, f.x[j])
		ds.Y = append(ds.Y, f.y[j])
	}
	return ds
}
