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
	v := &Vector{F: make([]float64, c.Schema.Len()), Assign: make([]uint8, c.Plan.NumOps())}
	unassign(v.Assign)
	for _, o := range c.Plan.Ops {
		if pi, ok := assign[o.ID]; ok {
			v.Assign[o.ID] = pi
		}
	}
	return c.vectorize(v)
}
