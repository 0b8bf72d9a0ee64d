package vecops_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vecops"
)

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64() * 100
	}
	return s
}

func TestAddMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 64, 129, 300} {
		a, b := randSlice(rng, n), randSlice(rng, n)
		got := make([]float64, n)
		want := make([]float64, n)
		if n > 0 {
			vecops.Add(got, a, b)
		}
		vecops.AddNaive(want, a, b)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: Add[%d] = %g, want %g", n, i, got[i], want[i])
			}
		}
	}
}

func TestAddInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 5, 100, 301} {
		a, b := randSlice(rng, n), randSlice(rng, n)
		want := make([]float64, n)
		vecops.AddNaive(want, a, b)
		vecops.AddInPlace(a, b)
		for i := range want {
			if a[i] != want[i] {
				t.Fatalf("n=%d: AddInPlace[%d] = %g, want %g", n, i, a[i], want[i])
			}
		}
	}
}

func TestSumDot(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if got := vecops.Sum(a); got != 15 {
		t.Errorf("Sum = %g, want 15", got)
	}
	b := []float64{2, 2, 2, 2, 2}
	if got := vecops.Dot(a, b); got != 30 {
		t.Errorf("Dot = %g, want 30", got)
	}
	if got := vecops.Dot(nil, nil); got != 0 {
		t.Errorf("Dot(nil) = %g, want 0", got)
	}
	if got := vecops.Sum(nil); got != 0 {
		t.Errorf("Sum(nil) = %g, want 0", got)
	}
}

func TestEqual(t *testing.T) {
	if !vecops.Equal([]float64{1, 2}, []float64{1, 2}) {
		t.Error("Equal(false negative)")
	}
	if vecops.Equal([]float64{1}, []float64{1, 2}) {
		t.Error("Equal accepted different lengths")
	}
	if vecops.Equal([]float64{1, 3}, []float64{1, 2}) {
		t.Error("Equal accepted different values")
	}
}

// Property: Sum(Add(a,b)) == Sum(a) + Sum(b) up to float tolerance.
func TestQuickSumAdditive(t *testing.T) {
	f := func(xs []float64) bool {
		for i, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				xs[i] = 1
			}
		}
		dst := make([]float64, len(xs))
		if len(xs) > 0 {
			vecops.Add(dst, xs, xs)
		}
		lhs := vecops.Sum(dst)
		rhs := 2 * vecops.Sum(xs)
		return math.Abs(lhs-rhs) <= 1e-9*(math.Abs(rhs)+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
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
