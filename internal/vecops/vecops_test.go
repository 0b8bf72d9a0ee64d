package vecops_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/vecops"
)

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64() * 100
	}
	return s
}

// widths are the lengths the kernels are checked at: every remainder mod 4,
// a compact row of a plan's live cells (101) and the Schema's full width
// over the five platforms.
func widths() []int {
	return []int{0, 1, 3, 4, 5, 7, 8, 64, 101, 129, 300, core.MustSchema(platform.All()).Len()}
}

func TestAddMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range widths() {
		a, b := randSlice(rng, n), randSlice(rng, n)
		got := make([]float64, n)
		want := make([]float64, n)
		vecops.Add(got, a, b)
		vecops.AddNaive(want, a, b)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: Add[%d] = %g, want %g", n, i, got[i], want[i])
			}
		}
	}
}

// dotLanes is Dot's summation order spelled out: lane j accumulates the
// products of cells i ≡ j (mod 4) below the last multiple of four, the
// lanes are summed 0 to 3, and the remaining cells are added in order.
func dotLanes(a, b []float64) float64 {
	var lane [4]float64
	blocked := len(a) / 4 * 4
	for i := 0; i < blocked; i++ {
		lane[i%4] += a[i] * b[i]
	}
	s := lane[0] + lane[1] + lane[2] + lane[3]
	for i := blocked; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// TestDotMatchesLanes pins Dot bit for bit: a Linear model's predictions
// round exactly as this summation order does.
func TestDotMatchesLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range widths() {
		for trial := 0; trial < 20; trial++ {
			a, b := randSlice(rng, n), randSlice(rng, n)
			got, want := vecops.Dot(a, b), dotLanes(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d: Dot = %v, four-lane reference %v", n, got, want)
			}
		}
	}
}

func TestDot(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 2, 2, 2, 2}
	if got := vecops.Dot(a, b); got != 30 {
		t.Errorf("Dot = %g, want 30", got)
	}
	if got := vecops.Dot(nil, nil); got != 0 {
		t.Errorf("Dot(nil) = %g, want 0", got)
	}
}

// Property: Dot(a,a) is nonnegative.
func TestQuickDotSelfNonnegative(t *testing.T) {
	f := func(xs []float64) bool {
		for i, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				xs[i] = 0
			}
		}
		return vecops.Dot(xs, xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
