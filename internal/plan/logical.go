// Package plan defines logical query plans (platform-agnostic dataflow DAGs),
// execution plans (platform-specific dataflows with conversion operators),
// cardinality propagation, topology analysis, and the LOT/COT auxiliary
// tables used to unvectorize plan vectors (Section IV-C of the paper).
package plan

import (
	"fmt"

	"repro/internal/platform"
)

// OpID identifies an operator within a logical plan. IDs are dense and start
// at 0 so that they can index slices and bitsets.
type OpID int

// Operator is a vertex of a logical plan: a platform-agnostic data
// transformation (Section III-A).
type Operator struct {
	ID   OpID
	Kind platform.Kind
	Name string // human-readable label, e.g. "Filter(month)"

	// UDF is the CPU complexity class of the operator's user-defined
	// function (Section IV-A, operator features).
	UDF platform.Complexity

	// Selectivity is the output/input cardinality ratio for unary
	// operators and the match ratio for joins. Sources ignore it.
	Selectivity float64

	// LoopID tags the operator as part of an iterative region; 0 means the
	// operator is outside any loop. All operators of one region share one
	// LoopID, and the plan stores the region's iteration count.
	LoopID int

	// In lists the producing operators (dataflow parents), Out the
	// consuming operators (dataflow children). Slices are in port order.
	In  []OpID
	Out []OpID

	// InputCard and OutputCard are the propagated tuple cardinalities
	// (filled by the Builder). InputCard is the sum
	// over input ports.
	InputCard  float64
	OutputCard float64
}

// IsBoundaryLinear reports whether the operator is "linear" for topology
// purposes: it has at most one input and one output, so it can fuse into a
// pipeline with a linear neighbour.
func (o *Operator) IsBoundaryLinear() bool { return len(o.In) <= 1 && len(o.Out) <= 1 }

// Logical is a platform-agnostic query plan: a directed acyclic dataflow
// graph of logical operators (the optimizer's input, Fig. 3a).
type Logical struct {
	Ops []*Operator

	// Loops maps a loop region ID to its iteration count.
	Loops map[int]int

	// SourceCards maps each source operator to the cardinality (number of
	// tuples) of its input dataset.
	SourceCards map[OpID]float64

	// AvgTupleBytes is the average tuple size in bytes of the input
	// dataset (the single dataset feature of Section IV-A).
	AvgTupleBytes float64
}

// NumOps returns the number of operators in the plan.
func (l *Logical) NumOps() int { return len(l.Ops) }

// Op returns the operator with the given ID.
func (l *Logical) Op(id OpID) *Operator { return l.Ops[id] }

// Sources returns the IDs of all source operators in ID order.
func (l *Logical) Sources() []OpID {
	var out []OpID
	for _, o := range l.Ops {
		if len(o.In) == 0 {
			out = append(out, o.ID)
		}
	}
	return out
}

// Sinks returns the IDs of all sink operators in ID order.
func (l *Logical) Sinks() []OpID {
	var out []OpID
	for _, o := range l.Ops {
		if len(o.Out) == 0 {
			out = append(out, o.ID)
		}
	}
	return out
}

// Edge is a dataflow edge between two operators.
type Edge struct {
	From, To OpID
}

// Edges returns all dataflow edges in deterministic (From, port) order.
func (l *Logical) Edges() []Edge {
	var out []Edge
	for _, o := range l.Ops {
		for _, c := range o.Out {
			out = append(out, Edge{o.ID, c})
		}
	}
	return out
}

// EdgeCard returns the tuple cardinality flowing over edge e: the output
// cardinality of the producer.
func (l *Logical) EdgeCard(e Edge) float64 { return l.Ops[e.From].OutputCard }

// propagate computes o's InputCard/OutputCard from those of its producers,
// which must have theirs already, through its selectivity. The paper injects
// real cardinalities into both optimizers (Section II); the simulator plays
// the role of ground truth here, so the propagated values are exact by
// construction.
func (l *Logical) propagate(o *Operator) {
	if len(o.In) == 0 {
		o.InputCard = l.SourceCards[o.ID]
		o.OutputCard = o.InputCard
		return
	}
	sum := 0.0
	maxIn := 0.0
	for _, p := range o.In {
		c := l.Ops[p].OutputCard
		sum += c
		if c > maxIn {
			maxIn = c
		}
	}
	o.InputCard = sum
	switch o.Kind {
	case platform.Union:
		o.OutputCard = sum
	case platform.Join:
		o.OutputCard = o.Selectivity * maxIn
	case platform.Count:
		o.OutputCard = 1
	case platform.Replicate, platform.Cache, platform.Broadcast,
		platform.Collect, platform.RepeatLoop, platform.Sort:
		o.OutputCard = maxIn
	case platform.CollectionSink, platform.TextFileSink:
		o.OutputCard = 0
	default:
		o.OutputCard = o.Selectivity * sum
	}
}

// TopoOrder returns the operator IDs in a topological order of the dataflow.
// It panics if the plan contains a cycle (Validate reports it as an error).
func (l *Logical) TopoOrder() []OpID {
	order, ok := l.topoOrder()
	if !ok {
		panic("plan: dataflow graph contains a cycle")
	}
	return order
}

// topoOrder is Kahn's algorithm; ok is false when a cycle keeps the order
// from covering every operator.
func (l *Logical) topoOrder() (order []OpID, ok bool) {
	indeg := make([]int, len(l.Ops))
	// order doubles as the queue: operators are appended as they become
	// ready and visited in that order.
	order = make([]OpID, 0, len(l.Ops))
	for _, o := range l.Ops {
		indeg[o.ID] = len(o.In)
		if len(o.In) == 0 {
			order = append(order, o.ID)
		}
	}
	for i := 0; i < len(order); i++ {
		for _, c := range l.Ops[order[i]].Out {
			indeg[c]--
			if indeg[c] == 0 {
				order = append(order, c)
			}
		}
	}
	return order, len(order) == len(l.Ops)
}

// Validate checks structural well-formedness: at least one operator, arity
// compliance, matching In/Out adjacency, acyclicity, valid complexities and
// selectivities, and source cardinalities for every source.
func (l *Logical) Validate() error {
	_, err := l.ValidOrder()
	return err
}

// ValidOrder validates l as Validate does and returns the topological order
// of the dataflow (TopoOrder's) that its acyclicity check computed, so a
// caller that needs both walks the graph once.
func (l *Logical) ValidOrder() ([]OpID, error) {
	for i, o := range l.Ops {
		if err := l.checkOp(i, o); err != nil {
			return nil, err
		}
	}
	// Acyclicity: a topological order must cover every operator. (A plan a
	// Builder made is acyclic by construction, so Build skips this.)
	order, ok := l.topoOrder()
	if !ok {
		return nil, fmt.Errorf("plan: dataflow graph contains a cycle")
	}
	if err := l.checkPlan(); err != nil {
		return nil, err
	}
	return order, nil
}

// checkOp checks the operator at index i: identity, kind, arity, UDF,
// selectivity, adjacency in both directions, source cardinality, loop.
func (l *Logical) checkOp(i int, o *Operator) error {
	if o == nil {
		return fmt.Errorf("plan: nil operator at index %d", i)
	}
	if o.ID != OpID(i) {
		return fmt.Errorf("plan: operator at index %d has ID %d", i, o.ID)
	}
	if !o.Kind.Valid() {
		return fmt.Errorf("plan: op %d has invalid kind %d", o.ID, o.Kind)
	}
	ar := platform.ArityOf(o.Kind)
	if len(o.In) != ar.In {
		return fmt.Errorf("plan: op %d (%s) has %d inputs, kind requires %d", o.ID, o.Kind, len(o.In), ar.In)
	}
	if len(o.Out) != ar.Out {
		return fmt.Errorf("plan: op %d (%s) has %d outputs, kind requires %d", o.ID, o.Kind, len(o.Out), ar.Out)
	}
	if !o.UDF.Valid() {
		return fmt.Errorf("plan: op %d (%s) has invalid UDF complexity", o.ID, o.Kind)
	}
	if o.Selectivity < 0 {
		return fmt.Errorf("plan: op %d (%s) has negative selectivity", o.ID, o.Kind)
	}
	for _, p := range o.In {
		if int(p) < 0 || int(p) >= len(l.Ops) {
			return fmt.Errorf("plan: op %d references unknown input %d", o.ID, p)
		}
		if !contains(l.Ops[p].Out, o.ID) {
			return fmt.Errorf("plan: op %d lists %d as input but is not in its outputs", o.ID, p)
		}
	}
	for _, c := range o.Out {
		if int(c) < 0 || int(c) >= len(l.Ops) {
			return fmt.Errorf("plan: op %d references unknown output %d", o.ID, c)
		}
		if !contains(l.Ops[c].In, o.ID) {
			return fmt.Errorf("plan: op %d lists %d as output but is not in its inputs", o.ID, c)
		}
	}
	if len(o.In) == 0 {
		if _, ok := l.SourceCards[o.ID]; !ok {
			return fmt.Errorf("plan: source op %d (%s) has no source cardinality", o.ID, o.Kind)
		}
	}
	if o.LoopID != 0 {
		if _, ok := l.Loops[o.LoopID]; !ok {
			return fmt.Errorf("plan: op %d references unknown loop %d", o.ID, o.LoopID)
		}
	}
	return nil
}

// checkPlan checks what no single operator shows: the plan has operators,
// and every loop region runs at least once.
func (l *Logical) checkPlan() error {
	if len(l.Ops) == 0 {
		return fmt.Errorf("plan: no operators")
	}
	for id, it := range l.Loops {
		if it < 1 {
			return fmt.Errorf("plan: loop %d has %d iterations", id, it)
		}
	}
	return nil
}

func contains(s []OpID, id OpID) bool {
	for _, v := range s {
		if v == id {
			return true
		}
	}
	return false
}

// Topology is the count of each plan topology in a (sub)plan (Section IV-A,
// topology features): pipeline, juncture, replicate, loop.
type Topology struct {
	Pipelines  int
	Junctures  int
	Replicates int
	Loops      int
}

// AnalyzeTopology counts the topologies of the full plan. Pipelines are
// maximal chains of linear operators (at most one input and one output);
// junctures are operators with two inputs; replicates are operators with two
// outputs; loops are distinct loop regions. For the running example of
// Fig. 3a this yields 3 pipelines and 1 juncture, matching Fig. 5.
func (l *Logical) AnalyzeTopology() Topology {
	var t Topology
	loopSeen := map[int]bool{}
	inPipeline := make([]bool, len(l.Ops))
	for _, o := range l.Ops {
		if len(o.In) >= 2 {
			t.Junctures++
		}
		if len(o.Out) >= 2 {
			t.Replicates++
		}
		if o.LoopID != 0 && !loopSeen[o.LoopID] {
			loopSeen[o.LoopID] = true
			t.Loops++
		}
		inPipeline[o.ID] = o.IsBoundaryLinear()
	}
	// Count connected chain segments of linear operators: each linear
	// operator starts a new pipeline unless its (single) producer is also
	// linear.
	for _, o := range l.Ops {
		if !inPipeline[o.ID] {
			continue
		}
		fused := len(o.In) == 1 && inPipeline[o.In[0]]
		if !fused {
			t.Pipelines++
		}
	}
	return t
}
