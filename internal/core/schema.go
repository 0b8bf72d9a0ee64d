// Package core implements the paper's primary contribution: vector-based
// cross-platform plan enumeration (Robopt, Sections IV and V).
//
// The entire enumeration runs on plan vectors — flat []float64 feature
// arrays (Fig. 5) — manipulated through a small algebra of operations:
// Enumerate, Unvectorize (core operations, Section IV-C; Vectorize's abstract
// vector is implicit in the operator IDs a run walks), Split,
// Iterate, Merge (auxiliary operations, Section IV-D), and Prune (the
// lossless boundary pruning of Section IV-E). On top of the algebra sits the
// priority-based enumeration algorithm (Algorithm 1, Section V), which
// chooses the concatenation order that maximizes the pruning effect.
package core

import (
	"fmt"

	"repro/internal/platform"
)

// Feature-block sizes. Each operator-kind block stores:
//
//	[ total, perPlatform[P], inPipeline, inJuncture, inReplicate, inLoop,
//	  udfComplexitySum, inputCardSum, outputCardSum,
//	  inputCardPerPlatform[P], outputCardPerPlatform[P] ]
//
// The first nine cells match the operator features of Section IV-A / Fig. 5;
// the per-platform cardinality cells extend them ("we experimented with
// different sets of features") so the model can attribute data volume to the
// platform that processes it — the aggregate sums alone cannot say whether
// the billion-tuple ReduceBy runs on Java or on Spark.
const (
	topoCells      = 4 // pipeline, juncture, replicate, loop
	opFixedCells   = 8 // total + 4 topology-membership + udf + inCard + outCard
	moveFixedCells = 2 // movement inputCardSum, outputCardSum
	datasetCells   = 1 // average input tuple size in bytes

	// maxPlatforms bounds a Schema's platforms: pruning footprints pack a
	// platform index into 4 bits.
	maxPlatforms = 15
	maxOpBlock   = opFixedCells + 3*maxPlatforms
	maxTail      = 6*maxPlatforms + moveFixedCells + datasetCells // from the movement block on
)

// Indices of the topology cells.
const (
	TopoPipeline = iota
	TopoJuncture
	TopoReplicate
	TopoLoop
)

// Schema fixes the layout of plan vectors for a given platform set. Every
// vector produced under one schema has identical length and cell meaning, so
// vectors are directly comparable and directly consumable by the ML model —
// the property the whole design rests on.
type Schema struct {
	Platforms []platform.ID // the platform universe; index = feature column
	Kinds     []platform.Kind

	platIndex [platform.NumPlatforms]int8 // platform.ID -> column, -1 if absent
	kindIndex [platform.KindCount]int16

	opBlock int // cells per operator-kind block
	moveOff int // offset of the data-movement block
	loadOff int // offset of the platform-load block
	dataOff int // offset of the dataset block
	length  int
}

// NewSchema builds the plan-vector schema over the given platforms and all
// logical operator kinds. Platform order defines feature column order and is
// preserved.
func NewSchema(platforms []platform.ID) (*Schema, error) {
	if len(platforms) == 0 {
		return nil, fmt.Errorf("core: schema needs at least one platform")
	}
	if len(platforms) > maxPlatforms {
		return nil, fmt.Errorf("core: schema supports at most %d platforms, got %d", maxPlatforms, len(platforms))
	}
	s := &Schema{
		Platforms: append([]platform.ID(nil), platforms...),
		Kinds:     platform.AllKinds(),
	}
	for i := range s.platIndex {
		s.platIndex[i] = -1
	}
	for i, p := range s.Platforms {
		if !p.Valid() {
			return nil, fmt.Errorf("core: invalid platform %d in schema", p)
		}
		if s.platIndex[p] != -1 {
			return nil, fmt.Errorf("core: duplicate platform %s in schema", p)
		}
		s.platIndex[p] = int8(i)
	}
	for i, k := range s.Kinds {
		s.kindIndex[k] = int16(i)
	}
	p := len(s.Platforms)
	s.opBlock = opFixedCells + 3*p
	s.moveOff = topoCells + len(s.Kinds)*s.opBlock
	s.loadOff = s.moveOff + p + moveFixedCells
	s.dataOff = s.loadOff + 5*p
	s.length = s.dataOff + datasetCells
	return s, nil
}

// MustSchema is NewSchema that panics on error.
func MustSchema(platforms []platform.ID) *Schema {
	s, err := NewSchema(platforms)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the plan-vector length under this schema.
func (s *Schema) Len() int { return s.length }

// PlatIndex returns the feature column of platform p, or -1 if p is not in
// the schema.
func (s *Schema) PlatIndex(p platform.ID) int { return int(s.platIndex[p]) }

// Offsets into an operator-kind block.
const (
	opTotal       = 0 // count of instances of the kind
	opPerPlatform = 1 // P cells: instances per platform
	// then: inPipeline, inJuncture, inReplicate, inLoop, udfSum, inCard, outCard
)

// opOff returns the offset of the feature block of kind k.
func (s *Schema) opOff(k platform.Kind) int {
	return topoCells + int(s.kindIndex[k])*s.opBlock
}

// OpTotalCell returns the index of the "total instances" cell of kind k.
func (s *Schema) OpTotalCell(k platform.Kind) int { return s.opOff(k) + opTotal }

// OpPlatformCell returns the index of the per-platform instance cell of kind
// k for platform column pi.
func (s *Schema) OpPlatformCell(k platform.Kind, pi int) int {
	return s.opOff(k) + opPerPlatform + pi
}

// Topology-membership cell indices within an op block, after the per-platform
// cells.
func (s *Schema) opTopoCell(k platform.Kind, topo int) int {
	return s.opOff(k) + 1 + len(s.Platforms) + topo
}

// OpInTopologyCell returns the index of the "# instances in <topology>" cell
// of kind k. topo is one of TopoPipeline..TopoLoop.
func (s *Schema) OpInTopologyCell(k platform.Kind, topo int) int { return s.opTopoCell(k, topo) }

// OpUDFCell returns the index of the "sum of UDF complexities" cell of k.
func (s *Schema) OpUDFCell(k platform.Kind) int {
	return s.opOff(k) + 1 + len(s.Platforms) + 4
}

// OpInCardCell returns the index of the "sum of input cardinalities" cell.
func (s *Schema) OpInCardCell(k platform.Kind) int {
	return s.opOff(k) + 1 + len(s.Platforms) + 5
}

// OpOutCardCell returns the index of the "sum of output cardinalities" cell.
func (s *Schema) OpOutCardCell(k platform.Kind) int {
	return s.opOff(k) + 1 + len(s.Platforms) + 6
}

// OpPlatInCardCell returns the index of the per-platform input-cardinality
// cell of kind k for platform column pi.
func (s *Schema) OpPlatInCardCell(k platform.Kind, pi int) int {
	return s.opOff(k) + 1 + len(s.Platforms) + 7 + pi
}

// OpPlatOutCardCell returns the index of the per-platform output-cardinality
// cell of kind k for platform column pi.
func (s *Schema) OpPlatOutCardCell(k platform.Kind, pi int) int {
	return s.opOff(k) + 1 + 2*len(s.Platforms) + 7 + pi
}

// MovePlatformCell returns the index of the data-movement instance count for
// platform column pi (Section IV-A, data movement features).
func (s *Schema) MovePlatformCell(pi int) int { return s.moveOff + pi }

// MoveInCardCell returns the index of the conversion input-cardinality sum.
func (s *Schema) MoveInCardCell() int { return s.moveOff + len(s.Platforms) }

// MoveOutCardCell returns the index of the conversion output-cardinality sum.
func (s *Schema) MoveOutCardCell() int { return s.moveOff + len(s.Platforms) + 1 }

// LoadCell returns the index of the platform-load cell for platform column
// pi: the UDF-weighted sum of input cardinalities (times loop iterations)
// processed on that platform. This block extends the paper's Fig. 5 layout —
// "we experimented with different sets of features" (Section IV-A) — and
// gives the model direct access to how much work each platform performs,
// which the per-kind cardinality sums alone cannot attribute.
func (s *Schema) LoadCell(pi int) int { return s.loadOff + pi }

// ShuffleLoadCell returns the index of the per-platform shuffled-tuples cell
// (input cardinalities of shuffling operators executed on the platform).
func (s *Schema) ShuffleLoadCell(pi int) int { return s.loadOff + len(s.Platforms) + pi }

// PlatOpsCell returns the index of the per-platform total operator instance
// count. It lets the model price platform presence itself (job submission /
// startup latency) — a per-kind count cannot express "any operator at all
// runs on Spark" in a single tree split.
func (s *Schema) PlatOpsCell(pi int) int { return s.loadOff + 2*len(s.Platforms) + pi }

// IOBytesCell returns the index of the per-platform scanned/written bytes:
// source output and sink input cardinalities times the average tuple width.
// Scan bandwidth differs sharply across platforms, and the cost driver is
// bytes, not tuples.
func (s *Schema) IOBytesCell(pi int) int { return s.loadOff + 3*len(s.Platforms) + pi }

// MaxBytesCell returns the index of the per-platform peak operator working
// set: the largest single-operator cardinality×tuple-width on that platform.
// Unlike every additive cell it merges by MAX — it tracks a bottleneck, not
// a sum — and it is the direct driver of single-node out-of-memory failures.
func (s *Schema) MaxBytesCell(pi int) int { return s.loadOff + 4*len(s.Platforms) + pi }

// maxMergedRange bounds, from the movement block on, the cells that merge by
// max instead of sum: the per-platform peak bytes and the dataset cell.
func (s *Schema) maxMergedRange() (lo, hi int) {
	return s.MaxBytesCell(0) - s.moveOff, s.DatasetCell() + 1 - s.moveOff
}

// DatasetCell returns the index of the average-tuple-size cell.
func (s *Schema) DatasetCell() int { return s.dataOff }
