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
	// getOptimal): the model's runtime prediction, risk-adjusted to
	// mean + λ·spread when the run's Risk.Lambda is nonzero.
	Cost float64

	// Dist is the predictive distribution behind Cost. On models without
	// distributional support it degenerates to Lo = Hi = Mean with zero
	// Spread.
	Dist CostDist

	// scored records that Cost and Dist are the cost oracle's answer for
	// this vector rather than their zero values: a scored vector re-entering
	// predictEnum (the survivors of the last prune, at getOptimal) is
	// counted as a memo hit and not sent to the model again.
	scored bool
}

// wide returns a copy of v, a vector of the run, that shares no memory with
// it and holds its features at the Schema's width: what a Result carries out.
func (c *Context) wide(v *Vector) *Vector {
	w := *v
	w.F = make([]float64, c.Schema.Len())
	c.expand(w.F, v.F)
	w.Assign = append([]uint8(nil), v.Assign...)
	return &w
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

// footTable numbers the packed footprints of one prune in first-seen order,
// as a map from footprint to group number would, in an open-addressed table
// (linear probing) whose slots carry the generation that wrote them: a slot
// is live only at the table's current generation, so a prune resets the
// table with one increment instead of clearing it. The table starts at
// footSlots slots and doubles when its groups fill half of it, so a probe
// always ends on a free slot and the table is sized by the most groups one
// prune of the run has formed, not by its vectors.
type footTable struct {
	slots []footSlot
	gen   uint32
	shift uint8 // 64 − log2(len(slots)): a key's home slot is its hash's top bits
	n     int   // groups numbered since reset
}

type footSlot struct {
	key   uint64
	gen   uint32
	group int32
}

const footSlots = 16

// reset starts a new prune: every slot reads free.
func (t *footTable) reset() {
	if t.slots == nil {
		t.slots, t.shift = make([]footSlot, footSlots), 64-4
	}
	t.n = 0
	if t.gen++; t.gen == 0 {
		// The counter wrapped: a never-written slot reads as live at
		// generation 0, and one written 2³² prunes ago at its old one.
		clear(t.slots)
		t.gen = 1
	}
}

// group returns key's group number; a key not seen since reset is numbered
// next, with seen false.
func (t *footTable) group(key uint64) (g int, seen bool) {
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			if 2*(t.n+1) > len(t.slots) {
				t.grow()
				return t.group(key)
			}
			*s = footSlot{key: key, gen: t.gen, group: int32(t.n)}
			t.n++
			return t.n - 1, false
		}
		if s.key == key {
			return int(s.group), true
		}
	}
}

// home is key's first probe slot (Fibonacci hashing).
func (t *footTable) home(key uint64) int { return int((key * 0x9E3779B97F4A7C15) >> t.shift) }

// grow doubles the table and moves the live slots into it.
func (t *footTable) grow() {
	old := t.slots
	t.slots, t.shift = make([]footSlot, 2*len(old)), t.shift-1
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.gen != t.gen {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].gen == t.gen {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
