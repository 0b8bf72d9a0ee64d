package registry_test

import (
	"testing"

	"repro/internal/registry"
)

// feedSpread buffers n samples, marking every fourth with a predictive
// spread well above the rest.
func feedSpread(t *testing.T, fb *registry.Feedback, n int, seed int64) int {
	t.Helper()
	ds := synth(n, 3, seed, func(x []float64) float64 { return 4*x[0] - 2*x[1] + x[2] + 1 }, 0.05)
	high := 0
	for i := 0; i < ds.Len(); i++ {
		spread := 0.1
		if i%4 == 0 {
			spread = 10
			high++
		}
		if err := fb.AddWithSpread(ds.X[i], ds.Y[i], spread); err != nil {
			t.Fatalf("AddWithSpread: %v", err)
		}
	}
	return high
}

// TestRetrainerOversamplesHighSpread: feedback rows the serving model was
// least certain about (spread above the snapshot's mean positive spread) are
// duplicated into the candidate's training set, counted by the
// retrain_oversampled_total metric — and the retraining still promotes.
func TestRetrainerOversamplesHighSpread(t *testing.T) {
	r, fb, p := newRetrainer(t, badLinear(3), 512)
	high := feedSpread(t, fb, 200, 41)
	out, err := r.RetrainOnce(publishTo(p, nil))
	if err != nil {
		t.Fatalf("RetrainOnce: %v", err)
	}
	if !out.Promoted {
		t.Fatalf("expected promotion, got %+v", out)
	}
	over := r.Metrics.Counter("retrain_oversampled_total").Load()
	if over == 0 {
		t.Fatal("no high-spread rows were oversampled")
	}
	// Only training rows are eligible (holdout is never duplicated), so the
	// count is bounded by the high-spread rows fed in.
	if over > int64(high) {
		t.Fatalf("oversampled %d rows, only %d had high spread", over, high)
	}
	if p.Swaps() != 1 {
		t.Errorf("promotion did not swap the provider: swaps = %d", p.Swaps())
	}
}

// TestRetrainerNoSpreadNoOversampling: spread-less feedback (the legacy Add
// path) retrains exactly as before — nothing is duplicated.
func TestRetrainerNoSpreadNoOversampling(t *testing.T) {
	r, fb, p := newRetrainer(t, badLinear(3), 512)
	feed(t, fb, 200, 42)
	out, err := r.RetrainOnce(publishTo(p, nil))
	if err != nil {
		t.Fatalf("RetrainOnce: %v", err)
	}
	if !out.Promoted {
		t.Fatalf("expected promotion, got %+v", out)
	}
	if over := r.Metrics.Counter("retrain_oversampled_total").Load(); over != 0 {
		t.Fatalf("spread-less feedback oversampled %d rows", over)
	}
}

// TestFeedbackSpreadRing: spreads ride the ring with their samples — index
// alignment survives wraparound.
func TestFeedbackSpreadRing(t *testing.T) {
	fb := registry.NewFeedback(4)
	for i := 0; i < 6; i++ {
		x := []float64{float64(i), 0, 0}
		if err := fb.AddWithSpread(x, float64(i), float64(i)*10); err != nil {
			t.Fatalf("AddWithSpread: %v", err)
		}
	}
	ds, spreads, firstSeq := fb.SnapshotSpreads()
	if firstSeq != 2 || ds.Len() != 4 {
		t.Fatalf("ring state: firstSeq=%d len=%d", firstSeq, ds.Len())
	}
	for i := 0; i < ds.Len(); i++ {
		want := ds.X[i][0] * 10
		if spreads[i] != want {
			t.Errorf("row %d: spread %g, want %g", i, spreads[i], want)
		}
	}
}
