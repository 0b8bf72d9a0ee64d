package core

import (
	"repro/internal/plan"
)

// VectorizeSubplan builds, from scratch, the plan vector of a partial
// execution plan given as a per-operator platform-column map. Operators
// absent from the map are outside the subplan; conversion features are
// derived from edges with both endpoints inside.
//
// This is the transformation the Rheem-ML baseline performs on every single
// model invocation (Section VII-B measured it at 47% of its optimization
// time): walking an object graph and materializing a fresh feature vector.
// Robopt's vector-based enumeration never calls it — the enumeration state
// already is the vector.
func (c *Context) VectorizeSubplan(assign map[plan.OpID]uint8) *Vector {
	s := c.Schema
	v := &Vector{F: make([]float64, s.Len()), Assign: make([]uint8, c.Plan.NumOps())}
	for i := range v.Assign {
		v.Assign[i] = Unassigned
	}
	// Iterate operators in ID order, not map order: feature cells are
	// float sums and must accumulate deterministically.
	for _, o := range c.Plan.Ops {
		pi, ok := assign[o.ID]
		if !ok {
			continue
		}
		r := s.cellsOf(v.F, o.Kind)
		c.addSingletonStructure(&r, o)
		c.addPlatformChoice(&r, o, int(pi))
		v.Assign[o.ID] = pi
	}
	for _, e := range c.edges {
		pa, ok1 := assign[e.From]
		pb, ok2 := assign[e.To]
		if !ok1 || !ok2 {
			continue
		}
		if c.ops[e.From].linear && c.ops[e.To].linear {
			v.F[TopoPipeline]--
		}
		c.addConversion(v.F[s.moveOff:], e, pa, pb)
	}
	v.F[s.DatasetCell()] = c.Plan.AvgTupleBytes
	return v
}
