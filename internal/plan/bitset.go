package plan

import (
	"math/bits"
	"strconv"
	"strings"
)

// Bitset is a fixed-capacity set of operator IDs, used as the scope of a plan
// vector enumeration (Definition 1). Scopes are compared, unioned and
// intersected on every enumeration step, so the representation is a packed
// word slice rather than a map.
type Bitset []uint64

// NewBitset returns an empty bitset able to hold IDs in [0, n).
func NewBitset(n int) Bitset {
	return make(Bitset, (n+63)/64)
}

// FullBitset returns the set of every ID in [0, n): the scope of a whole
// n-operator plan.
func FullBitset(n int) Bitset {
	b := NewBitset(n)
	for id := range OpID(n) {
		b.Set(id)
	}
	return b
}

// Clone returns a copy of b.
func (b Bitset) Clone() Bitset {
	out := make(Bitset, len(b))
	copy(out, b)
	return out
}

// Set adds id to the set.
func (b Bitset) Set(id OpID) { b[id>>6] |= 1 << (uint(id) & 63) }

// Clear removes id from the set.
func (b Bitset) Clear(id OpID) { b[id>>6] &^= 1 << (uint(id) & 63) }

// Has reports whether id is in the set.
func (b Bitset) Has(id OpID) bool {
	w := int(id >> 6)
	return w < len(b) && b[w]&(1<<(uint(id)&63)) != 0
}

// Count returns the number of IDs in the set.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (b Bitset) Empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// UnionInto sets b = b ∪ other. The two sets must have equal capacity.
func (b Bitset) UnionInto(other Bitset) {
	for i := range b {
		b[i] |= other[i]
	}
}

// Union returns a new set b ∪ other.
func (b Bitset) Union(other Bitset) Bitset {
	out := b.Clone()
	out.UnionInto(other)
	return out
}

// Intersects reports whether b ∩ other is non-empty.
func (b Bitset) Intersects(other Bitset) bool {
	for i := range b {
		if b[i]&other[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether the two sets hold the same IDs.
func (b Bitset) Equal(other Bitset) bool {
	if len(b) != len(other) {
		return false
	}
	for i := range b {
		if b[i] != other[i] {
			return false
		}
	}
	return true
}

// IDs returns the member IDs in ascending order.
func (b Bitset) IDs() []OpID {
	out := make([]OpID, 0, b.Count())
	for id := b.Next(0); id >= 0; id = b.Next(id + 1) {
		out = append(out, id)
	}
	return out
}

// Next returns the smallest member that is at least from, or -1 when there
// is none. It walks a set in ascending order without allocating:
//
//	for id := b.Next(0); id >= 0; id = b.Next(id + 1) { ... }
func (b Bitset) Next(from OpID) OpID {
	if from < 0 {
		from = 0
	}
	for wi := int(from >> 6); wi < len(b); wi++ {
		w := b[wi]
		if wi == int(from>>6) {
			w &^= 1<<(uint(from)&63) - 1
		}
		if w != 0 {
			return OpID(wi*64 + bits.TrailingZeros64(w))
		}
	}
	return -1
}

// String renders the set as "{1,4,7}".
func (b Bitset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, id := range b.IDs() {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(int(id)))
	}
	sb.WriteByte('}')
	return sb.String()
}
