// Package platform defines the data processing platforms, logical operator
// kinds, UDF complexity classes, and the execution-operator availability
// matrix that the cross-platform optimizer reasons about.
//
// The paper's setting is Rheem running on Java Streams, Apache Spark, Apache
// Flink, Postgres, and GraphX. Here the platforms are descriptors consumed by
// the execution simulator (internal/simulator); their relative regimes (Java:
// zero startup / no parallelism, Spark & Flink: high startup / high
// parallelism, Postgres: relational pushdown only) reproduce the performance
// crossovers the paper's evaluation is built around.
package platform

import "fmt"

// ID identifies a data processing platform. IDs are dense small integers so
// they can index plan-vector feature blocks directly.
type ID uint8

// The platforms used throughout the paper's evaluation (Section VII-A).
const (
	Java ID = iota
	Spark
	Flink
	Postgres
	GraphX
	numPlatforms
)

// NumPlatforms is the number of known platforms.
const NumPlatforms = int(numPlatforms)

var platformNames = [...]string{"Java", "Spark", "Flink", "Postgres", "GraphX"}

// String returns the platform name.
func (p ID) String() string {
	if int(p) < len(platformNames) {
		return platformNames[p]
	}
	return fmt.Sprintf("Platform(%d)", uint8(p))
}

// Valid reports whether p names a known platform.
func (p ID) Valid() bool { return p < numPlatforms }

// ByName returns the platform with the given (case-sensitive) name.
func ByName(name string) (ID, error) {
	for i, n := range platformNames {
		if n == name {
			return ID(i), nil
		}
	}
	return 0, fmt.Errorf("platform: unknown platform %q", name)
}

// All returns all known platforms in ID order.
func All() []ID {
	out := make([]ID, NumPlatforms)
	for i := range out {
		out[i] = ID(i)
	}
	return out
}

// Subset returns the first n platforms in ID order. It is used by the
// scalability experiments (Figures 9 and 10), which vary the number of
// underlying platforms from 2 to 5.
func Subset(n int) []ID {
	if n < 1 || n > NumPlatforms {
		panic(fmt.Sprintf("platform: Subset(%d) out of range [1,%d]", n, NumPlatforms))
	}
	return All()[:n]
}

// CheckCount refuses a platform count the commands' -platforms flag cannot
// take: a deployment optimizes over 2 to NumPlatforms platforms, the first n
// of Subset.
func CheckCount(n int) error {
	if n < 2 || n > NumPlatforms {
		return fmt.Errorf("platform count %d out of range [2,%d]", n, NumPlatforms)
	}
	return nil
}

// Complexity classifies the CPU complexity of an operator's UDF
// (Section IV-A, operator features). The paper assumes four classes.
type Complexity uint8

const (
	// Logarithmic covers near-constant work per tuple (projections, simple
	// predicates). Weight 1, matching the "(1+1)" Filter example in Fig. 5.
	Logarithmic Complexity = iota + 1
	Linear
	Quadratic
	SuperQuadratic
)

var complexityNames = [...]string{"", "Logarithmic", "Linear", "Quadratic", "SuperQuadratic"}

// String returns the complexity class name.
func (c Complexity) String() string {
	if int(c) < len(complexityNames) && c > 0 {
		return complexityNames[c]
	}
	return fmt.Sprintf("Complexity(%d)", uint8(c))
}

// Valid reports whether c is a known complexity class.
func (c Complexity) Valid() bool { return c >= Logarithmic && c <= SuperQuadratic }

// Weight returns the numeric feature weight of the complexity class, used in
// the "sum of UDF complexities" plan-vector cell.
func (c Complexity) Weight() float64 { return float64(c) }

// CostFactor returns the simulator's per-tuple work multiplier for the class.
// It grows faster than Weight so that mis-modelling complexity is expensive,
// as the paper argues for real platforms.
func (c Complexity) CostFactor() float64 {
	switch c {
	case Logarithmic:
		return 0.25
	case Linear:
		return 1
	case Quadratic:
		return 6
	case SuperQuadratic:
		return 20
	default:
		return 1
	}
}
