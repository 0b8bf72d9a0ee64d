// Package vecops provides the primitive vector kernels the plan enumeration
// and the linear model run on (the "vectorized execution" of Section IV):
// Add, Dot and the flat Matrix. The kernels operate on flat []float64
// slices, 4-way unrolled over per-block subslices, so a block of four cells
// costs at most one bounds check instead of one per cell and operand. They
// are the Go analogue of the paper's SIMD-friendly primitive operations: the
// architectural win is that merging and pruning plan vectors touches
// contiguous primitive memory instead of chasing object graphs.
package vecops

// Add stores a[i]+b[i] into dst. All three slices must have equal length.
func Add(dst, a, b []float64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d[0] = x[0] + y[0]
		d[1] = x[1] + y[1]
		d[2] = x[2] + y[2]
		d[3] = x[3] + y[3]
	}
	for ; i < n; i++ {
		dst[i] = a[i] + b[i]
	}
}

// Dot returns the inner product of a and b, which must have equal length.
// Four lanes accumulate cells i ≡ 0, 1, 2, 3 (mod 4) of the unrolled
// prefix, then sum in that order before the tail is added: the rounding of
// every Linear prediction depends on that order.
func Dot(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += x[0] * y[0]
		s1 += x[1] * y[1]
		s2 += x[2] * y[2]
		s3 += x[3] * y[3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// AddNaive is the straightforward element loop, kept for the vectorization
// ablation benchmark (BenchmarkAblationVecops).
func AddNaive(dst, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}
