package core

import "context"

// Property is an "interesting property" in the System-R sense, adapted to
// plan vectors. Section V of the paper points out that the boundary pruning
// is an instance of interesting sites in distributed query optimization and
// that "one can easily extend the enumeration algorithm to account for other
// interesting properties by simply modifying the prune operation" — this is
// that extension point. Two plan vectors with different property keys are
// incomparable: pruning never discards one in favour of the other, so a
// cheapest plan per property value survives to the final enumeration.
type Property interface {
	// Name identifies the property in diagnostics.
	Name() string
	// Key returns the property fingerprint of v. Equal keys mean the
	// vectors are comparable with respect to this property.
	Key(c *Context, v *Vector) uint64
}

// SwitchCountProperty keeps the cheapest plan per number of platform
// switches. Useful when data movement reliability matters beyond runtime:
// the final enumeration retains a low-switch alternative even if a plan with
// more movement is predicted faster.
type SwitchCountProperty struct{}

// Name implements Property.
func (SwitchCountProperty) Name() string { return "switch-count" }

// Key implements Property.
func (SwitchCountProperty) Key(c *Context, v *Vector) uint64 {
	return uint64(c.Schema.Conversions(v.F))
}

// PlatformSetProperty keeps the cheapest plan per set of platforms used.
// Useful for pricing or availability constraints evaluated after
// enumeration ("the model m can even be a pricing catalogue", Section IV-E):
// every distinct platform combination survives with its best plan.
type PlatformSetProperty struct{}

// Name implements Property.
func (PlatformSetProperty) Name() string { return "platform-set" }

// Key implements Property.
func (PlatformSetProperty) Key(c *Context, v *Vector) uint64 {
	var mask uint64
	for _, a := range v.Assign {
		if a != Unassigned {
			mask |= 1 << a
		}
	}
	return mask
}

// LoopPlatformProperty keeps the cheapest plan per assignment of loop-region
// operators: iterative state placement often dominates runtime, so keeping
// one representative per loop placement hedges against model error there.
type LoopPlatformProperty struct{}

// Name implements Property.
func (LoopPlatformProperty) Name() string { return "loop-platforms" }

// Key implements Property.
func (LoopPlatformProperty) Key(c *Context, v *Vector) uint64 {
	var mask uint64
	for _, o := range c.Plan.Ops {
		if o.LoopID != 0 && v.Assign[o.ID] != Unassigned {
			mask |= 1 << v.Assign[o.ID]
		}
	}
	return mask
}

// PropertyPruner applies boundary pruning refined by additional interesting
// properties: within one enumeration, a vector is discarded only if another
// vector has the same pruning footprint AND the same key for every property,
// at lower predicted cost. With no properties it degenerates to
// BoundaryPruner; each added property retains more alternatives (trading
// enumeration size for post-hoc choice).
type PropertyPruner struct {
	Model      CostModel
	Properties []Property
}

// Prune implements Pruner: BoundaryPruner's prune with the properties
// refining the groups, so with none the two are the same operation. Like it,
// it returns early without pruning when cancelled.
func (p PropertyPruner) Prune(ctx context.Context, c *Context, e *Enumeration, st *Stats) {
	c.pruneGroups(ctx, p.Model, e, st, p.Properties)
}
