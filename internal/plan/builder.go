package plan

import (
	"fmt"
	"strings"

	"repro/internal/platform"
)

// Builder incrementally constructs a logical plan. It is the programmatic
// equivalent of writing a Rheem dataflow: add operators wiring them to their
// producers, optionally mark loop regions, then Build. The JSON decoder
// builds through it too, so it is the one place In/Out adjacency is wired.
//
// Operators, their In/Out lists and (for the decoder) their names are carved
// out of slabs rather than allocated one by one. A slab that fills up is
// followed by a larger one, never reallocated, so pointers and slices handed
// out earlier stay valid; a Builder given an accurate size up front (the
// decoder's) makes one of each.
type Builder struct {
	ops           []*Operator // in ID order
	slab          []Operator  // the operator slab ops currently fills
	edges         []OpID      // the edge slab In and Out lists are carved from
	names         strings.Builder
	loops         map[int]int
	sourceCards   map[OpID]float64
	avgTupleBytes float64
	nextLoop      int
	err           error
}

// defaultSlabOps sizes the first slabs of a Builder that was not told how
// many operators to expect.
const defaultSlabOps = 16

// NewBuilder returns an empty plan builder. avgTupleBytes is the dataset
// feature of Section IV-A (average input tuple size in bytes).
func NewBuilder(avgTupleBytes float64) *Builder {
	return newBuilder(avgTupleBytes, defaultSlabOps, 0)
}

// newBuilder sizes the first slabs for nOps operators whose names total
// nameBytes bytes. A plan's edge slab holds every In list and every Out
// list; a valid plan has about one edge per operator, listed once on each
// side.
func newBuilder(avgTupleBytes float64, nOps, nameBytes int) *Builder {
	b := &Builder{
		ops:           make([]*Operator, 0, nOps),
		slab:          make([]Operator, 0, nOps),
		edges:         make([]OpID, 0, 2*nOps),
		sourceCards:   make(map[OpID]float64, nOps/8+1), // about one operator in eight is a source
		avgTupleBytes: avgTupleBytes,
		nextLoop:      1,
	}
	b.names.Grow(nameBytes)
	return b
}

// Source adds a source operator reading a dataset of `card` tuples.
func (b *Builder) Source(kind platform.Kind, name string, card float64) OpID {
	if !kind.IsSource() && b.err == nil {
		b.err = fmt.Errorf("plan: %s is not a source kind", kind)
	}
	id := b.add(kind, name, platform.Logarithmic, 1, nil)
	b.sourceCards[id] = card
	return id
}

// Add adds an operator of the given kind consuming the listed producers.
// Selectivity is the output/input ratio (ignored by kinds with fixed output
// semantics). The number of producers must match the kind's input arity.
func (b *Builder) Add(kind platform.Kind, name string, udf platform.Complexity, sel float64, in ...OpID) OpID {
	return b.add(kind, name, udf, sel, in)
}

// intern copies name into the builder's name slab and returns it as a
// string, so a decoded plan's names cost one allocation rather than one each.
func (b *Builder) intern(name []byte) string {
	off := b.names.Len()
	b.names.Write(name)
	return b.names.String()[off:]
}

// carve returns an empty list with room for n operator IDs from the edge
// slab. Appending past n spills to the heap like any full slice.
func (b *Builder) carve(n int) []OpID {
	if n == 0 {
		return nil
	}
	if cap(b.edges)-len(b.edges) < n {
		b.edges = make([]OpID, 0, max(n, 2*cap(b.edges)))
	}
	off := len(b.edges)
	b.edges = b.edges[:off+n]
	return b.edges[off : off : off+n]
}

func (b *Builder) add(kind platform.Kind, name string, udf platform.Complexity, sel float64, in []OpID) OpID {
	id := OpID(len(b.ops))
	if len(b.slab) == cap(b.slab) {
		b.slab = make([]Operator, 0, max(defaultSlabOps, 2*cap(b.slab)))
	}
	b.slab = append(b.slab, Operator{
		ID:          id,
		Kind:        kind,
		Name:        name,
		UDF:         udf,
		Selectivity: sel,
		In:          append(b.carve(len(in)), in...),
	})
	op := &b.slab[len(b.slab)-1]
	// Validate requires len(Out) == the kind's output arity, so that is all
	// the room Out is given: a plan that over-subscribes an operator spills
	// to the heap here and is rejected there.
	if kind.Valid() {
		op.Out = b.carve(platform.ArityOf(kind).Out)
	}
	for _, p := range in {
		// Only operators already added can be producers: ID order is a
		// topological order of every plan a Builder makes.
		if int(p) < 0 || int(p) >= len(b.ops) {
			if b.err == nil {
				b.err = fmt.Errorf("plan: op %d (%s) wired to unknown producer %d", id, kind, p)
			}
			continue
		}
		b.ops[p].Out = append(b.ops[p].Out, id)
	}
	b.ops = append(b.ops, op)
	return id
}

// Loop marks the given operators as one iterative region executed
// `iterations` times and returns the region's loop ID.
func (b *Builder) Loop(iterations int, ops ...OpID) int {
	loopID := b.nextLoop
	b.nextLoop++
	if b.loops == nil {
		b.loops = map[int]int{}
	}
	b.loops[loopID] = iterations
	for _, id := range ops {
		if int(id) < 0 || int(id) >= len(b.ops) {
			if b.err == nil {
				b.err = fmt.Errorf("plan: loop references unknown op %d", id)
			}
			continue
		}
		b.ops[id].LoopID = loopID
	}
	return loopID
}

// Peek returns a snapshot of the plan under construction with cardinalities
// propagated but without arity validation (operators added later may still be
// missing consumers). Workload builders use it to express selectivities in
// terms of absolute cardinalities.
func (b *Builder) Peek() (*Logical, error) { return b.logical(false) }

// Build validates the plan, propagates cardinalities, and returns it.
func (b *Builder) Build() (*Logical, error) { return b.logical(true) }

// logical assembles the plan and, in one forward pass in ID order — a
// topological order, since add only wires an operator to earlier ones —
// checks each operator (when validate is set) and propagates its
// cardinalities.
func (b *Builder) logical(validate bool) (*Logical, error) {
	if b.err != nil {
		return nil, b.err
	}
	l := &Logical{
		Ops:           b.ops,
		Loops:         b.loops,
		SourceCards:   b.sourceCards,
		AvgTupleBytes: b.avgTupleBytes,
	}
	for i, o := range b.ops {
		if validate {
			if err := l.checkOp(i, o); err != nil {
				return nil, err
			}
		}
		l.propagate(o)
	}
	if validate {
		if err := l.checkPlan(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// MustBuild is Build that panics on error; intended for the static workload
// definitions and tests.
func (b *Builder) MustBuild() *Logical {
	l, err := b.Build()
	if err != nil {
		panic(err)
	}
	return l
}
