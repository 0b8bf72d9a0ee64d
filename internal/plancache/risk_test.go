package plancache

import (
	"testing"

	"repro/internal/core"
)

// TestRiskBand pins the λ→band quantization: λ=0 maps to the empty band (so
// point-estimate keys keep their legacy format), every nonzero λ maps to a
// nonzero band, and λs within an eighth of each other share a band.
func TestRiskBand(t *testing.T) {
	if got := RiskBand(0); got != "" {
		t.Fatalf("RiskBand(0) = %q, want empty (legacy key format)", got)
	}
	cases := []struct {
		lambda float64
		want   string
	}{
		{0.001, "0.125"}, // tiny but nonzero λ must not collapse into the λ=0 band
		{0.1, "0.125"},
		{0.125, "0.125"},
		{0.5, "0.5"},
		{0.55, "0.5"},
		{1, "1"},
		{2.06, "2"},
	}
	for _, cs := range cases {
		if got := RiskBand(cs.lambda); got != cs.want {
			t.Errorf("RiskBand(%g) = %q, want %q", cs.lambda, got, cs.want)
		}
	}
	if RiskBand(0.4) == RiskBand(0.6) {
		t.Errorf("λ=0.4 and λ=0.6 share a band; they should quantize apart")
	}
}

// TestCacheRiskBandIsolation checks that plans optimized under different λ
// bands live in separate cache entries: a risk-averse plan never serves a
// point-estimate request and vice versa, while two λs in the same band share.
func TestCacheRiskBandIsolation(t *testing.T) {
	c := New(Config{})

	point := fab(1, "v1", 3)
	risky := fab(1, "v1", 3)
	risky.RiskLambda = 0.5
	risky.Predicted = 99
	risky.PredictedDist = core.CostDist{Mean: 99, Spread: 3, Lo: 94, Hi: 104}

	if !c.Put(point) || !c.Put(risky) {
		t.Fatal("Put rejected a fresh entry")
	}

	got, ok := c.GetBand(point.Fingerprint, "v1", "")
	if !ok || got.RiskLambda != 0 {
		t.Fatalf("legacy Get returned the wrong band: ok=%v λ=%g", ok, got.RiskLambda)
	}
	got, ok = c.GetBand(point.Fingerprint, "v1", RiskBand(0.5))
	if !ok || got.RiskLambda != 0.5 {
		t.Fatalf("GetBand(0.5) returned the wrong entry: ok=%v λ=%g", ok, got.RiskLambda)
	}
	if got.PredictedDist.Spread != 3 {
		t.Fatalf("cached interval lost: %+v", got.PredictedDist)
	}
	// Same band, different λ float: still a hit.
	if _, ok := c.GetBand(point.Fingerprint, "v1", RiskBand(0.55)); !ok {
		t.Fatal("λ=0.55 missed the 0.5-band entry")
	}
	// Different band: miss.
	if _, ok := c.GetBand(point.Fingerprint, "v1", RiskBand(2)); ok {
		t.Fatal("λ=2 hit the 0.5-band entry")
	}
}
