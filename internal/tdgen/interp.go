package tdgen

import (
	"fmt"
	"math"
	"sort"
)

// NewImputer fits TDGen's runtime imputation to executed (cardinality,
// runtime) points and returns it as a function of cardinality, never
// negative. It interpolates in log-log space: the cardinality ladder is
// log-spaced over many orders of magnitude, where a degree-5 polynomial in
// raw coordinates oscillates wildly (Runge); runtime-vs-size is close to a
// power law, i.e. nearly linear in log-log, where the paper's piecewise
// degree-5 interpolation is stable.
func NewImputer(cards, runtimes []float64) (func(card float64) float64, error) {
	lx := make([]float64, len(cards))
	for i, x := range cards {
		lx[i] = math.Log(x)
	}
	ly := make([]float64, len(runtimes))
	for i, y := range runtimes {
		ly[i] = math.Log1p(y)
	}
	in, err := newInterpolator(lx, ly)
	if err != nil {
		return nil, err
	}
	return func(card float64) float64 { return math.Expm1(in.At(math.Log(card))) }, nil
}

// interpDegree is the polynomial degree per piece (window size − 1).
const interpDegree = 5

// interpolator imputes runtimes by piecewise polynomial interpolation with
// degree 5 over executed (cardinality, runtime) points (Section VI-B: "we
// use piecewise polynomial interpolation with degree 5 in order to learn the
// function that fits the points of Jr"; footnote 3: "degree 5 was giving us
// better accuracy without sacrificing runtime"). For a query point it picks
// the window of the 6 nearest known points and evaluates the Newton
// divided-difference form of the interpolating polynomial.
type interpolator struct {
	xs []float64
	ys []float64
}

// newInterpolator builds an interpolator over the executed points. Points
// are sorted by x; duplicate x values keep the first y. At least one point
// is required.
func newInterpolator(xs, ys []float64) (*interpolator, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("tdgen: %d x-values but %d y-values", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("tdgen: interpolation needs at least one executed point")
	}
	type pt struct{ x, y float64 }
	pts := make([]pt, len(xs))
	for i := range xs {
		pts[i] = pt{xs[i], ys[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	in := &interpolator{}
	for i, p := range pts {
		if i > 0 && p.x == pts[i-1].x {
			continue
		}
		in.xs = append(in.xs, p.x)
		in.ys = append(in.ys, p.y)
	}
	return in, nil
}

// At returns the interpolated runtime at cardinality x.
func (in *interpolator) At(x float64) float64 {
	n := min(interpDegree+1, len(in.xs))
	lo := in.window(x, n)
	y := newtonEval(in.xs[lo:lo+n], in.ys[lo:lo+n], x)
	if y < 0 {
		// Runtimes are nonnegative; polynomial wiggle below zero is
		// clamped.
		y = 0
	}
	return y
}

// window returns the start index of the n consecutive known points nearest
// to x.
func (in *interpolator) window(x float64, n int) int {
	// Position of the first known x >= query.
	i := sort.SearchFloat64s(in.xs, x)
	lo := i - n/2
	if lo < 0 {
		lo = 0
	}
	if lo+n > len(in.xs) {
		lo = len(in.xs) - n
	}
	return lo
}

// newtonEval computes the Newton divided-difference interpolating polynomial
// through (xs, ys) and evaluates it at x. The inputs must have equal length
// ≥ 1 with strictly increasing xs.
func newtonEval(xs, ys []float64, x float64) float64 {
	n := len(xs)
	coef := make([]float64, n)
	copy(coef, ys)
	// Divided differences in place: coef[j] becomes f[x0..xj].
	for level := 1; level < n; level++ {
		for j := n - 1; j >= level; j-- {
			coef[j] = (coef[j] - coef[j-1]) / (xs[j] - xs[j-level])
		}
	}
	// Horner evaluation of the Newton form.
	y := coef[n-1]
	for j := n - 2; j >= 0; j-- {
		y = y*(x-xs[j]) + coef[j]
	}
	return y
}
