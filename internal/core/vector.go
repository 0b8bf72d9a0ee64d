package core

import (
	"strings"

	"repro/internal/plan"
)

// Unassigned marks an operator without a platform choice in a vector's
// assignment array (the -1 of the paper's abstract plan vectors).
const Unassigned uint8 = 0xFF

// Vector is a plan vector: the flat feature representation of an execution
// (sub)plan (Section IV-A, Fig. 5). F holds the feature cells laid out by a
// Schema. Assign records, per logical operator, the chosen platform column
// (or Unassigned for operators outside the vector's scope); it is the
// compact stand-in for the per-plan COT and the source of the pruning
// footprint.
type Vector struct {
	F      []float64
	Assign []uint8

	// Cost caches the vector's latest selection score (set by Prune and
	// GetOptimal): the model's runtime prediction, risk-adjusted to
	// mean + λ·spread when the run's Risk.Lambda is nonzero.
	Cost float64

	// Dist is the predictive distribution behind Cost. On models without
	// distributional support it degenerates to Lo = Hi = Mean with zero
	// Spread.
	Dist CostDist

	// scored records that Cost and Dist are the cost oracle's answer for
	// this vector rather than their zero values: a scored vector re-entering
	// predictEnum (the survivors of the last prune, at GetOptimal) is
	// counted as a memo hit and not sent to the model again.
	scored bool
}

// clone returns a copy of v that shares no memory with it.
func (v *Vector) clone() *Vector {
	w := *v
	w.F = append([]float64(nil), v.F...)
	w.Assign = append([]uint8(nil), v.Assign...)
	return &w
}

// Scope returns the set of operators the vector covers.
func (v *Vector) Scope(n int) plan.Bitset {
	b := plan.NewBitset(n)
	for i, a := range v.Assign {
		if a != Unassigned {
			b.Set(plan.OpID(i))
		}
	}
	return b
}

// Abstract is an abstract plan vector: the output of Vectorize (Section
// IV-C(1)). It fixes the plan-structure features but leaves the per-platform
// instantiation open, marking alternative cells with -1.
type Abstract struct {
	F     []float64
	Scope plan.Bitset
}

// footprintKey computes the pruning-footprint key of an assignment over the
// given boundary operators (Section IV-E, Fig. 7). Two vectors in the same
// enumeration have equal keys iff they employ the same platform for every
// boundary operator. Up to 16 boundary operators pack into a uint64 (4 bits
// per operator, at most 15 platforms); larger boundaries fall back to a
// string key. The bool result reports whether the uint64 key is valid.
func footprintKey(assign []uint8, boundary []plan.OpID) (uint64, string, bool) {
	if len(boundary) <= 16 {
		var key uint64
		for _, id := range boundary {
			key = key<<4 | uint64(assign[id]&0xF)
		}
		return key, "", true
	}
	var sb strings.Builder
	sb.Grow(len(boundary))
	for _, id := range boundary {
		sb.WriteByte(assign[id])
	}
	return 0, sb.String(), false
}
