// Package vecops provides the primitive vector kernels the plan enumeration
// runs on (the "vectorized execution" of Section IV). All kernels operate on
// flat []float64 slices, are 4-way unrolled, and hoist bounds checks so the
// compiler can keep the hot loops branch-light. They are the Go analogue of
// the paper's SIMD-friendly primitive operations: the architectural win is
// that merging and pruning plan vectors touches contiguous primitive memory
// instead of chasing object graphs.
package vecops

// Add stores a[i]+b[i] into dst. All three slices must have equal length.
func Add(dst, a, b []float64) {
	n := len(dst)
	_ = a[n-1]
	_ = b[n-1]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] = a[i] + b[i]
		dst[i+1] = a[i+1] + b[i+1]
		dst[i+2] = a[i+2] + b[i+2]
		dst[i+3] = a[i+3] + b[i+3]
	}
	for ; i < n; i++ {
		dst[i] = a[i] + b[i]
	}
}

// Dot returns the inner product of a and b, which must have equal length.
func Dot(a, b []float64) float64 {
	n := len(a)
	if n == 0 {
		return 0
	}
	_ = b[n-1]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// Equal reports whether a and b hold identical values.
func Equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AddNaive is the straightforward element loop, kept for the vectorization
// ablation benchmark (BenchmarkAblationVecops).
func AddNaive(dst, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}
