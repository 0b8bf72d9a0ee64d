// Package baselines implements the two optimizers the paper compares Robopt
// against (Section VII):
//
//   - RHEEMix: Rheem's cost-based optimizer — the same boundary pruning and
//     priority-driven search, but enumerating object-graph subplans and
//     estimating them with the linear cost model.
//   - Rheem-ML: "simply replacing the cost model with an ML model without
//     using vectors in the plan enumeration" — the same object-graph
//     enumeration, but every oracle call first transforms the subplan object
//     into a feature vector and then invokes the ML model.
//
// Both use the identical pruning strategy as Robopt ("to have a fair
// comparison"); the differences are the subplan representation (objects vs.
// vectors) and the cost oracle. The object representation is deliberately
// allocation- and pointer-heavy — maps per subplan, slices of conversion
// records — mirroring the Java implementation the paper measured.
package baselines

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/mlmodel"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/vecops"
)

// SubPlan is an object-graph partial execution plan: the per-operator
// platform choices plus the accumulated conversion records.
type SubPlan struct {
	Ops   map[plan.OpID]platform.ID
	Convs []plan.Conversion
	Cost  float64
}

func (sp *SubPlan) clone() *SubPlan {
	out := &SubPlan{Ops: make(map[plan.OpID]platform.ID, len(sp.Ops))}
	for k, v := range sp.Ops {
		out.Ops[k] = v
	}
	out.Convs = append([]plan.Conversion(nil), sp.Convs...)
	return out
}

// Oracle estimates the runtime of a subplan object.
type Oracle interface {
	Estimate(sp *SubPlan) float64
}

// batchOracle is an Oracle that can estimate many subplans in one call.
// estimateBatch must be arithmetically identical to calling Estimate on each
// subplan in order; out must have at least len(sps) entries.
type batchOracle interface {
	Oracle
	estimateBatch(sps []*SubPlan, out []float64)
}

// Stats mirrors core.Stats for the object-based enumeration.
type Stats struct {
	SubplansCreated int
	Merges          int
	OracleCalls     int
	Pruned          int
	PeakEnumSize    int
}

// CostOracle estimates subplans with the linear cost model by walking the
// operator map (RHEEMix).
type CostOracle struct {
	Plan  *plan.Logical
	Model *costmodel.Model
}

// Estimate sums the per-operator linear costs, loop overheads, platform
// startups, and conversion costs of the subplan.
func (o CostOracle) Estimate(sp *SubPlan) float64 {
	l := o.Plan
	m := o.Model
	total := 0.0
	seen := map[platform.ID]bool{}
	// Iterate in operator-ID order so float accumulation (and therefore
	// tie-breaking between equal-cost plans) is deterministic.
	for _, op := range l.Ops {
		p, ok := sp.Ops[op.ID]
		if !ok {
			continue
		}
		c := m.OpCost(p, op.Kind, op.UDF, op.InputCard, op.OutputCard)
		if op.LoopID != 0 {
			iters := float64(l.Loops[op.LoopID])
			c = c*iters + iters*m.PerIter[p]
		}
		total += c
		if !seen[p] {
			seen[p] = true
			total += m.Startup[p]
		}
	}
	for _, conv := range sp.Convs {
		c := m.ConversionCost(conv.Card)
		iters := 1
		if lo := l.Op(conv.AfterOp); lo.LoopID != 0 {
			iters = l.Loops[lo.LoopID]
		}
		if lo := l.Op(conv.BeforeOp); lo.LoopID != 0 && l.Loops[lo.LoopID] > iters {
			iters = l.Loops[lo.LoopID]
		}
		total += c * float64(iters)
	}
	return total
}

// MLOracle estimates subplans with an ML model, paying the plan-to-vector
// transformation on every call (Rheem-ML).
type MLOracle struct {
	Ctx   *core.Context
	Model mlmodel.Model
}

// Estimate transforms the subplan object into a plan vector and feeds it to
// the model — the per-call overhead Robopt eliminates.
func (o MLOracle) Estimate(sp *SubPlan) float64 {
	assign := make(map[plan.OpID]uint8, len(sp.Ops))
	for id, p := range sp.Ops {
		assign[id] = uint8(o.Ctx.Schema.PlatIndex(p))
	}
	v := o.Ctx.VectorizeSubplan(assign)
	return o.Model.Predict(v.F)
}

// estimateBatch estimates many subplans with a single model invocation. The
// per-subplan object-to-vector transformation is still paid for every row —
// that overhead is the point of the Rheem-ML baseline — only the model
// inference itself is batched.
func (o MLOracle) estimateBatch(sps []*SubPlan, out []float64) {
	X := vecops.NewMatrix(len(sps), o.Ctx.Schema.Len())
	for i, sp := range sps {
		assign := make(map[plan.OpID]uint8, len(sp.Ops))
		for id, p := range sp.Ops {
			assign[id] = uint8(o.Ctx.Schema.PlatIndex(p))
		}
		copy(X.Row(i), o.Ctx.VectorizeSubplan(assign).F)
	}
	o.Model.PredictBatchDist(X, out[:len(sps)], nil, nil, nil)
}

// enumeration is an object-based plan enumeration: a scope and its subplan
// objects.
type enumeration struct {
	scope    plan.Bitset
	boundary []plan.OpID
	plans    []*SubPlan
}

// Optimizer runs the object-graph priority enumeration.
type Optimizer struct {
	Plan   *plan.Logical
	Avail  *platform.Availability
	Plats  []platform.ID
	Oracle Oracle
}

// Result is the outcome of one baseline optimization.
type Result struct {
	Execution *plan.Execution
	Predicted float64
	Stats     Stats
}

// Optimize runs the priority-based enumeration on subplan objects with
// boundary pruning driven by the oracle, and returns the cheapest complete
// execution plan.
func (z *Optimizer) Optimize() (*Result, error) {
	l := z.Plan
	n := l.NumOps()
	if n == 0 {
		return nil, fmt.Errorf("baselines: empty plan")
	}
	var st Stats

	alternatives := make([][]platform.ID, n)
	for _, op := range l.Ops {
		for _, p := range z.Plats {
			if z.Avail.Has(op.Kind, p) {
				alternatives[op.ID] = append(alternatives[op.ID], p)
			}
		}
		if len(alternatives[op.ID]) == 0 {
			return nil, fmt.Errorf("baselines: operator %d (%s) unavailable on %v", op.ID, op.Kind, z.Plats)
		}
	}

	owner := make([]*objNode, n)
	h := make(objHeap, 0, n)
	seq := 0
	for _, op := range l.Ops {
		scope := plan.NewBitset(n)
		scope.Set(op.ID)
		e := &enumeration{scope: scope, boundary: z.boundaryOf(scope)}
		for _, p := range alternatives[op.ID] {
			e.plans = append(e.plans, &SubPlan{Ops: map[plan.OpID]platform.ID{op.ID: p}})
			st.SubplansCreated++
		}
		node := &objNode{e: e, seq: seq, idx: len(h)}
		seq++
		owner[op.ID] = node
		h = append(h, node)
	}
	for _, node := range h {
		z.setPriority(node, owner)
	}
	heap.Init(&h)

	deferred := 0
	for len(h) > 1 {
		node := heap.Pop(&h).(*objNode)
		children := z.childrenOf(node, owner)
		if len(children) == 0 {
			deferred++
			if deferred > len(h)+1 {
				return nil, fmt.Errorf("baselines: plan is not weakly connected")
			}
			node.prio = math.Inf(-1)
			heap.Push(&h, node)
			continue
		}
		deferred = 0
		cur := node.e
		for _, child := range children {
			merged := &enumeration{scope: cur.scope.Union(child.e.scope)}
			crossing := z.crossingEdges(cur.scope, child.e.scope)
			for _, a := range cur.plans {
				for _, b := range child.e.plans {
					merged.plans = append(merged.plans, z.merge(a, b, crossing, &st))
				}
			}
			merged.boundary = z.boundaryOf(merged.scope)
			if len(merged.plans) > st.PeakEnumSize {
				st.PeakEnumSize = len(merged.plans)
			}
			z.prune(merged, &st)
			heap.Remove(&h, child.idx)
			cur = merged
		}
		newNode := &objNode{e: cur, seq: seq}
		seq++
		for _, id := range cur.scope.IDs() {
			owner[id] = newNode
		}
		z.setPriority(newNode, owner)
		heap.Push(&h, newNode)
		for _, p := range z.parentsOf(newNode, owner) {
			z.setPriority(p, owner)
			heap.Fix(&h, p.idx)
		}
	}

	final := h[0].e
	z.estimateAll(final.plans, &st)
	var best *SubPlan
	for _, sp := range final.plans {
		if best == nil || sp.Cost < best.Cost {
			best = sp
		}
	}
	if best == nil {
		return nil, fmt.Errorf("baselines: enumeration produced no plans")
	}
	assign := make([]platform.ID, n)
	for id, p := range best.Ops {
		assign[id] = p
	}
	x, err := plan.NewExecution(l, assign)
	if err != nil {
		return nil, err
	}
	return &Result{Execution: x, Predicted: best.Cost, Stats: st}, nil
}

// merge concatenates two subplan objects: clone the operator map, copy the
// conversion lists, and derive new conversions from the crossing edges.
func (z *Optimizer) merge(a, b *SubPlan, crossing []plan.Edge, st *Stats) *SubPlan {
	out := a.clone()
	for k, v := range b.Ops {
		out.Ops[k] = v
	}
	out.Convs = append(out.Convs, b.Convs...)
	for _, e := range crossing {
		pa, pb := out.Ops[e.From], out.Ops[e.To]
		if pa != pb {
			out.Convs = append(out.Convs, plan.Conversion{
				From: pa, To: pb, AfterOp: e.From, BeforeOp: e.To, Card: z.Plan.EdgeCard(e),
			})
		}
	}
	st.Merges++
	st.SubplansCreated++
	return out
}

// estimateAll fills sp.Cost for every subplan, using one estimateBatch call
// when the oracle supports batching and the per-subplan scalar path
// otherwise. OracleCalls counts subplans either way, so the baseline stats
// stay comparable across oracle kinds.
func (z *Optimizer) estimateAll(sps []*SubPlan, st *Stats) {
	if bo, ok := z.Oracle.(batchOracle); ok && len(sps) > 1 {
		out := make([]float64, len(sps))
		bo.estimateBatch(sps, out)
		for i, sp := range sps {
			sp.Cost = out[i]
		}
	} else {
		for _, sp := range sps {
			sp.Cost = z.Oracle.Estimate(sp)
		}
	}
	st.OracleCalls += len(sps)
}

// prune applies the boundary pruning (Definition 2) on subplan objects,
// keying on a string of (boundary operator, platform) pairs.
func (z *Optimizer) prune(e *enumeration, st *Stats) {
	z.estimateAll(e.plans, st)
	if len(e.plans) <= 1 {
		return
	}
	bestByKey := map[string]int{}
	kept := e.plans[:0]
	keyBuf := make([]byte, len(e.boundary))
	for _, sp := range e.plans {
		for i, id := range e.boundary {
			keyBuf[i] = byte(sp.Ops[id])
		}
		key := string(keyBuf)
		if j, ok := bestByKey[key]; ok {
			if sp.Cost < kept[j].Cost {
				kept[j] = sp
			}
			st.Pruned++
			continue
		}
		bestByKey[key] = len(kept)
		kept = append(kept, sp)
	}
	e.plans = kept
}

func (z *Optimizer) boundaryOf(scope plan.Bitset) []plan.OpID {
	var out []plan.OpID
	for _, id := range scope.IDs() {
		op := z.Plan.Op(id)
		isBoundary := false
		for _, nb := range op.In {
			if !scope.Has(nb) {
				isBoundary = true
				break
			}
		}
		if !isBoundary {
			for _, nb := range op.Out {
				if !scope.Has(nb) {
					isBoundary = true
					break
				}
			}
		}
		if isBoundary {
			out = append(out, id)
		}
	}
	return out
}

func (z *Optimizer) crossingEdges(a, b plan.Bitset) []plan.Edge {
	var out []plan.Edge
	for _, e := range z.Plan.Edges() {
		if (a.Has(e.From) && b.Has(e.To)) || (b.Has(e.From) && a.Has(e.To)) {
			out = append(out, e)
		}
	}
	return out
}

type objNode struct {
	e    *enumeration
	prio float64
	tie  int
	seq  int
	idx  int
}

type objHeap []*objNode

func (h objHeap) Len() int { return len(h) }
func (h objHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	if h[i].tie != h[j].tie {
		return h[i].tie < h[j].tie
	}
	return h[i].seq < h[j].seq
}
func (h objHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *objHeap) Push(x any) {
	n := x.(*objNode)
	n.idx = len(*h)
	*h = append(*h, n)
}
func (h *objHeap) Pop() any {
	old := *h
	n := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return n
}

func (z *Optimizer) childrenOf(node *objNode, owner []*objNode) []*objNode {
	seen := map[*objNode]bool{node: true}
	var out []*objNode
	for _, id := range node.e.scope.IDs() {
		for _, nb := range z.Plan.Op(id).Out {
			o := owner[nb]
			if !seen[o] {
				seen[o] = true
				out = append(out, o)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

func (z *Optimizer) parentsOf(node *objNode, owner []*objNode) []*objNode {
	seen := map[*objNode]bool{node: true}
	var out []*objNode
	for _, id := range node.e.scope.IDs() {
		for _, nb := range z.Plan.Op(id).In {
			o := owner[nb]
			if !seen[o] {
				seen[o] = true
				out = append(out, o)
			}
		}
	}
	return out
}

func (z *Optimizer) setPriority(node *objNode, owner []*objNode) {
	children := z.childrenOf(node, owner)
	p := float64(len(node.e.plans))
	for _, ch := range children {
		p *= float64(len(ch.e.plans))
	}
	if len(children) == 0 {
		p = 0
	}
	node.prio = p
	scope := node.e.scope.Clone()
	for _, ch := range children {
		scope.UnionInto(ch.e.scope)
	}
	node.tie = len(z.boundaryOf(scope))
}
