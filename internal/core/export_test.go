package core

// Merge is the merge operation (operation 6) into a new vector: mergeInto
// without a scratch or store row to write into, for the merge-algebra tests.
func (c *Context) Merge(v1, v2 *Vector, info *MergeCtx, st *Stats) *Vector {
	out := &Vector{F: make([]float64, c.Schema.Len()), Assign: make([]uint8, len(v1.Assign))}
	c.mergeInto(out, v1, v2, info, st)
	return out
}

// PoisonFreed arms the vector store's poison hook for every later run on c:
// rows returned to the free list, the worker scratch before each product and
// the whole store when an Optimize* run ends are overwritten with NaN
// features (in the plan's live columns; the rest stays 0) and costs and
// out-of-range platform columns, so a read of freed or stale memory cannot
// produce a plausible plan.
func (c *Context) PoisonFreed() { c.poison = c.live }

// LiveRows is the number of store rows of the run in progress (or last
// finished by EnumerateFull or Enumerate) that are not on the free list.
func (c *Context) LiveRows() int { return c.store.rows - len(c.store.free) }

// PruneBlock is the number of model calls between two cancellation checks of
// the scoring loop.
const PruneBlock = pruneBlock

// DeadCells walks the feature rows of the run in progress (or last finished
// by EnumerateFull or Enumerate) — every store chunk, which the store lists
// only with the poison hook armed, and every worker's scratch — and returns
// how many of their cells lie outside the plan's live columns and how many
// of those are not exactly 0.
func (c *Context) DeadCells() (cells, nonzero int) {
	dead := func(f []float64) {
		for _, x := range f {
			cells++
			if x != 0 {
				nonzero++
			}
		}
	}
	walk := func(f []float64) {
		for row := 0; row < len(f); row += c.store.cols {
			from := row
			for _, sp := range c.live {
				dead(f[from : row+sp.lo])
				from = row + sp.hi
			}
			dead(f[from : row+c.store.cols])
		}
	}
	for _, ch := range c.store.chunks {
		walk(ch.F)
	}
	for _, sc := range c.store.workers {
		walk(sc.data)
	}
	return cells, nonzero
}
