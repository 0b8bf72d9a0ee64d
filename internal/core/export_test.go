package core

import (
	"weak"

	"repro/internal/plan"
)

// Merge is the merge operation (operation 6) into a new vector: mergeInto
// without a scratch or store row to write into, for the merge-algebra tests.
// Its inputs and its result are rows of the run (see Wide).
func (c *Context) Merge(v1, v2 *Vector, info *MergeCtx, st *Stats) *Vector {
	out := &Vector{F: make([]float64, len(c.live)), Assign: make([]uint8, len(v1.Assign))}
	c.mergeInto(out, v1, v2, info, st)
	return out
}

// Boundary is the boundary of the merged scope (MergeInfo derives it from
// the two inputs' boundaries): what a test that concatenates enumerations by
// hand gives the enumeration it builds, so that MergeInfo can read it.
func (m *MergeCtx) Boundary() []plan.OpID { return m.boundary }

// Wide returns the features of v, a vector of the run, at the Schema's width:
// the row VectorizeExecution builds and a model without Specialize scores.
func (c *Context) Wide(v *Vector) []float64 { return c.wide(v).F }

// Bind makes m the model of c's next prune outside Optimize*: the hook for
// tests that prune an enumeration they built themselves.
func (c *Context) Bind(m CostModel) { c.bind(m) }

// PoisonFreed arms the vector store's poison hook for every later run on c:
// rows returned to the free list, the worker scratch before each product and
// every row of the run when an Optimize* run ends are overwritten with NaN
// features and costs and out-of-range platform columns, so a read of freed,
// stale or handed-back memory cannot produce a plausible plan.
func (c *Context) PoisonFreed() { c.poison = true }

// LiveRows is the number of store rows of the run in progress (or last
// finished by EnumerateFull or Enumerate) that are not on the free list.
func (c *Context) LiveRows() int { return c.store.rows - len(c.store.free) }

// PruneBlock is the number of model calls between two cancellation checks of
// the scoring loop.
const PruneBlock = pruneBlock

// DropSpareMemory empties the stack of finished runs' memory, so the next
// run starts on new memory: what a run allocates when the collector has just
// reclaimed everything.
func DropSpareMemory() {
	spares.Lock()
	clear(spares.stack)
	spares.stack = spares.stack[:0]
	spares.Unlock()
}

// SpareMemory returns a probe for every finished run's memory on the spare
// stack that the collector has not reclaimed yet, and for each chunk of it a
// run would carve again: the first and the last chunk of every slab. A probe
// holds its object weakly and reports whether the object is still alive.
func SpareMemory() []func() bool {
	spares.Lock()
	defer spares.Unlock()
	var probes []func() bool
	for _, p := range spares.stack {
		m := p.Value()
		if m == nil {
			continue
		}
		probes = append(probes, probe(m),
			probeSlice(m.feats.first), probeSlice(m.assign.first), probeSlice(m.hdrs.first), probeSlice(m.ptrs.first),
			probeSlice(m.nodes.first), probeSlice(m.refs.first),
			probeSlice(m.feats.last), probeSlice(m.assign.last), probeSlice(m.hdrs.last), probeSlice(m.ptrs.last),
			probeSlice(m.nodes.last), probeSlice(m.refs.last))
	}
	return probes
}

// probe holds p weakly.
func probe[T any](p *T) func() bool {
	w := weak.Make(p)
	return func() bool { return w.Value() != nil }
}

// probeSlice holds the block behind s weakly (nothing, when s has none).
func probeSlice[S ~[]E, E any](s S) func() bool {
	if cap(s) == 0 {
		return func() bool { return false }
	}
	return probe(&s[:1][0])
}

// FootTable is pruneGroups' footprint table, for the tests that drive it
// directly: Reset starts a prune, Group numbers a packed footprint.
type FootTable struct{ t footTable }

func (f *FootTable) Reset()                       { f.t.reset() }
func (f *FootTable) Group(key uint64) (int, bool) { return f.t.group(key) }

// Slots is the table's size and Home a key's first probe slot at that size.
func (f *FootTable) Slots() int          { return len(f.t.slots) }
func (f *FootTable) Home(key uint64) int { return f.t.home(key) }

// SetGeneration sets the generation the table is at, as if that many prunes
// had reset it; LiveSlots counts the slots that read as live at it.
func (f *FootTable) SetGeneration(g uint32) { f.t.gen = g }
func (f *FootTable) LiveSlots() int {
	live := 0
	for _, s := range f.t.slots {
		if s.gen == f.t.gen {
			live++
		}
	}
	return live
}

// LiveCells returns the Schema columns the rows of c's runs hold, ascending.
func (c *Context) LiveCells() []int {
	c.layout()
	return c.live
}
