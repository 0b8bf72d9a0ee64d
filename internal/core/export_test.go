package core

// PoisonFreed arms the vector store's poison hook for every later run on c:
// rows returned to the free list, the worker scratch before each product and
// the whole store when an Optimize* run ends are overwritten with NaN
// features and costs and out-of-range platform columns, so a read of freed
// or stale memory cannot produce a plausible plan.
func (c *Context) PoisonFreed() { c.poison = true }

// LiveRows is the number of store rows of the run in progress (or last
// finished by EnumerateFull or Enumerate) that are not on the free list.
func (c *Context) LiveRows() int { return c.store.rows - len(c.store.free) }

// PruneBlock is the number of model calls between two cancellation checks of
// the scoring loop.
const PruneBlock = pruneBlock
