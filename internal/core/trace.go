package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/plan"
	"repro/internal/vecops"
)

// This file is the explainability layer of the optimizer: when a detailed
// trace is attached to the Context (Context.Trace), every
// Optimize/OptimizeOpts run records a typed pruning audit trail — which
// subplan enumerations were pruned, by what predicted boundary costs, how
// many vectors were already scored, and where the budget degraded the run.
// Each fact is written once, here: the spans of the run carry only their
// durations and the step, round and worker numbers that join them to these
// records. The audit rides on the run's optimize span (Span.SetDetail) and on
// Result.Trace, and backs Result.Explain, the human-readable account of why
// the winning platform assignment beat its alternatives.

// RunTrace is the pruning audit of one run, attached to Result and to the
// run's optimize span by OptimizeOpts when Context.Trace is detailed.
type RunTrace struct {
	// Platforms maps schema platform columns to platform names, making the
	// audit records self-contained.
	Platforms []string `json:"platforms"`
	// Prunes is the pruning audit trail, one record per concatenation of the
	// enumeration, in step order.
	Prunes []*PruneRecord `json:"prunes"`
	// Final describes the last enumeration's winner and runner-up.
	Final *FinalSelection `json:"final,omitempty"`
	// OpContribs is the predicted cost contribution of each operator's
	// singleton subvector under the winning assignment (scored with the
	// run's model; the model is generally non-linear, so contributions
	// indicate relative weight rather than summing to the plan total).
	OpContribs []OpContribution `json:"opContribs,omitempty"`

	// intervals is set on runs with a non-zero Context.Risk: only they
	// report predictive intervals in the audit, so a point-estimate run's
	// audit reads (and marshals) as it did before vectors carried them.
	intervals bool
	// recs backs Prunes and alts the records' BestPruned: slot i is step
	// i's, written by whichever task the schedule handed that step (see
	// reserve). ints and strs hold the records' boundary lists and platform
	// names, carved under mu by concurrent tasks.
	recs []PruneRecord
	alts []PrunedAlternative
	mu   sync.Mutex
	ints slab[int]
	strs slab[string]
}

// PruneRecord audits one prune invocation: the enumeration's size before and
// after, the inference spent on it, the predicted-cost range of the scored
// survivors, and the best pruned alternative (the discarded vector with the
// lowest predicted cost) against the survivor that beat it.
type PruneRecord struct {
	// Step numbers the concatenations of the enumeration (0-based).
	Step int `json:"step"`
	// ScopeSize is the number of operators covered by the enumeration.
	ScopeSize int `json:"scopeSize"`
	// Boundary lists the scope's boundary operator IDs (Definition 2) —
	// the operators whose platform choices form the pruning footprint.
	Boundary []int `json:"boundary"`
	// VectorsIn and VectorsOut are the enumeration sizes around the prune.
	VectorsIn  int `json:"vectorsIn"`
	VectorsOut int `json:"vectorsOut"`
	// ModelRows and MemoHits split this prune's vectors between those sent
	// to the cost oracle and those that arrived already scored.
	ModelRows int `json:"modelRows"`
	MemoHits  int `json:"memoHits"`
	// BestCost and WorstCost bound the scored survivors' predicted costs
	// (zero, and omitted, if the step scored none).
	BestCost  float64 `json:"bestCost,omitempty"`
	WorstCost float64 `json:"worstCost,omitempty"`
	// Degraded marks prunes that ran after the budget was exhausted (the
	// enumeration is additionally truncated to the degraded beam around
	// them).
	Degraded bool `json:"degraded,omitempty"`
	// IntervalKept counts the near-tie vectors this prune kept because
	// their predictive interval overlapped their group winner's
	// (Risk.KeepOverlap runs only; always zero otherwise).
	IntervalKept int `json:"intervalKept,omitempty"`
	// BestPruned is the best pruned alternative at this boundary, absent
	// when the prune discarded nothing.
	BestPruned *PrunedAlternative `json:"bestPruned,omitempty"`
}

// PrunedAlternative describes the cheapest vector a prune discarded and the
// same-footprint survivor that beat it. Margin is how much slower the
// model predicted the alternative to be — the "losing margin" at this
// boundary.
type PrunedAlternative struct {
	Cost         float64 `json:"cost"`
	SurvivorCost float64 `json:"survivorCost"`
	Margin       float64 `json:"margin"`
	// Lo/Hi and SurvivorLo/SurvivorHi are the two plans' predictive
	// intervals, reported on runs with a non-zero Risk so the losing margin
	// can be read against the model's uncertainty. Zero (and omitted) on
	// point-estimate runs and when the model exposes no uncertainty.
	Lo         float64 `json:"lo,omitempty"`
	Hi         float64 `json:"hi,omitempty"`
	SurvivorLo float64 `json:"survivorLo,omitempty"`
	SurvivorHi float64 `json:"survivorHi,omitempty"`
	// BoundaryAssign and SurvivorAssign give the two vectors' platform
	// choices on the boundary operators, index-aligned with
	// PruneRecord.Boundary.
	BoundaryAssign []string `json:"boundaryAssign,omitempty"`
	SurvivorAssign []string `json:"survivorAssign,omitempty"`
}

// prunedState tracks the best pruned alternative of the audited prune in
// flight on one worker, resolved into PruneRecord.BestPruned when the prune
// completes (endPrune).
type prunedState struct {
	cost   float64
	dist   CostDist
	assign []uint8
	slot   int
	has    bool
}

// observe feeds one pruning decision into the state: of the two same-group
// vectors, discarded lost to the current occupant of slot in the kept slice.
// Cheap enough to sit on the prune hot path only when auditing.
func (p *prunedState) observe(discarded *Vector, slot int) {
	if !p.has || discarded.Cost < p.cost {
		p.has = true
		p.cost = discarded.Cost
		p.dist = discarded.Dist
		p.assign = append(p.assign[:0], discarded.Assign...)
		p.slot = slot
	}
}

// FinalSelection audits the last enumeration: the winner's predicted cost
// and the best complete alternative plan it beat.
type FinalSelection struct {
	// Size is the number of complete plan vectors the winner was chosen
	// from.
	Size     int     `json:"size"`
	BestCost float64 `json:"bestCost"`
	// BestLo/BestHi/BestSpread are the winner's predictive interval and
	// spread on runs with a non-zero Risk; zero and omitted on
	// point-estimate runs.
	BestLo     float64 `json:"bestLo,omitempty"`
	BestHi     float64 `json:"bestHi,omitempty"`
	BestSpread float64 `json:"bestSpread,omitempty"`
	// RunnerUp is the second-cheapest complete plan (absent when the final
	// enumeration held a single vector).
	RunnerUp *AlternativePlan `json:"runnerUp,omitempty"`
}

// AlternativePlan is one losing complete plan: its predicted cost, the
// margin to the winner, and its full per-operator platform assignment.
type AlternativePlan struct {
	Cost   float64  `json:"cost"`
	Margin float64  `json:"margin"`
	Lo     float64  `json:"lo,omitempty"`
	Hi     float64  `json:"hi,omitempty"`
	Assign []string `json:"assign"`
}

// OpContribution is the predicted runtime of one operator's singleton
// subvector under the winning assignment: an entry of the audit's
// opContribs and of the explanation's operators.
type OpContribution struct {
	Op       int     `json:"op"`
	Name     string  `json:"name"`
	Kind     string  `json:"kind"`
	Platform string  `json:"platform"`
	Cost     float64 `json:"costSec"`
}

// newRunTrace seeds the per-run audit for a run traced in detail.
func (c *Context) newRunTrace() *RunTrace {
	names := make([]string, len(c.Schema.Platforms))
	for i, p := range c.Schema.Platforms {
		names[i] = p.String()
	}
	return &RunTrace{Platforms: names, intervals: c.Risk != Risk{}}
}

// reserve sizes the audit for an enumeration of steps concatenations. The
// schedule numbers the steps when it hands them out, so each task writes its
// records straight into their slots and concurrent tasks never touch the
// same one. The boundary lists and platform names come from blocks that
// start at one entry per step (two names) and double when outgrown.
func (rt *RunTrace) reserve(steps int) {
	rt.recs = make([]PruneRecord, steps)
	rt.Prunes = make([]*PruneRecord, steps)
	rt.alts = make([]PrunedAlternative, steps)
	rt.ints.next, rt.strs.next = steps, 2*steps
}

// seal drops the slots of steps that never ran (a cancelled or failed run).
func (rt *RunTrace) seal() {
	rt.Prunes = slices.DeleteFunc(rt.Prunes, func(rec *PruneRecord) bool { return rec == nil })
}

// boundaryList returns n entries of the audit's own for a record's boundary,
// non-nil so that an empty boundary marshals as [].
func (rt *RunTrace) boundaryList(n int) []int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if n == 0 {
		return []int{}
	}
	return rt.ints.take(n)
}

// names returns n platform names of the audit's own.
func (rt *RunTrace) names(n int) []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.strs.take(n)
}

// reports tells whether the audit shows d's interval: on runs that asked for
// risk-aware optimization, when the model gave d any width.
func (rt *RunTrace) reports(d CostDist) bool { return rt.intervals && d.Spread != 0 }

// platformName resolves a schema platform column to its name ("?" for
// Unassigned — boundary operators are always assigned, so this only shows
// up on malformed input).
func (rt *RunTrace) platformName(col uint8) string {
	if int(col) < len(rt.Platforms) {
		return rt.Platforms[col]
	}
	return "?"
}

// beginPrune opens the audit record of concatenation step, a prune over e,
// in the slot reserve set aside for it, and clears the worker's in-flight
// state p.
func (rt *RunTrace) beginPrune(step int, e *Enumeration, degraded bool, p *prunedState) *PruneRecord {
	rec := &rt.recs[step]
	*rec = PruneRecord{
		Step:      step,
		ScopeSize: e.Scope.Count(),
		Boundary:  rt.boundaryList(len(e.Boundary)),
		VectorsIn: len(e.Vectors),
		Degraded:  degraded,
	}
	for i, id := range e.Boundary {
		rec.Boundary[i] = int(id)
	}
	p.has = false
	rt.Prunes[step] = rec
	return rec
}

// endPrune closes the record after the pruner ran: survivor census and the
// best pruned alternative p resolved.
func (rt *RunTrace) endPrune(rec *PruneRecord, e *Enumeration, p *prunedState) {
	rec.VectorsOut = len(e.Vectors)
	first := true
	for _, v := range e.Vectors {
		if v.scored && (first || v.Cost < rec.BestCost) {
			rec.BestCost = v.Cost
		}
		if v.scored && (first || v.Cost > rec.WorstCost) {
			rec.WorstCost = v.Cost
		}
		first = first && !v.scored
	}
	if p.has && p.slot < len(e.Vectors) {
		survivor := e.Vectors[p.slot]
		nb := len(rec.Boundary)
		names := rt.names(2 * nb)
		alt := &rt.alts[rec.Step]
		*alt = PrunedAlternative{
			Cost:           p.cost,
			SurvivorCost:   survivor.Cost,
			Margin:         p.cost - survivor.Cost,
			BoundaryAssign: names[:nb:nb],
			SurvivorAssign: names[nb:],
		}
		if rt.reports(p.dist) || rt.reports(survivor.Dist) {
			alt.Lo, alt.Hi = p.dist.Lo, p.dist.Hi
			alt.SurvivorLo, alt.SurvivorHi = survivor.Dist.Lo, survivor.Dist.Hi
		}
		for i, id := range rec.Boundary {
			alt.BoundaryAssign[i] = rt.platformName(p.assign[id])
			alt.SurvivorAssign[i] = rt.platformName(survivor.Assign[id])
		}
		rec.BestPruned = alt
	}
}

// finishSelection audits the final enumeration's winner against its best
// complete alternative.
func (rt *RunTrace) finishSelection(e *Enumeration, best *Vector) {
	sel := &FinalSelection{Size: len(e.Vectors), BestCost: best.Cost}
	if rt.reports(best.Dist) {
		sel.BestLo, sel.BestHi, sel.BestSpread = best.Dist.Lo, best.Dist.Hi, best.Dist.Spread
	}
	var runner *Vector
	for _, v := range e.Vectors {
		if v == best {
			continue
		}
		if runner == nil || v.Cost < runner.Cost {
			runner = v
		}
	}
	if runner != nil {
		alt := &AlternativePlan{Cost: runner.Cost, Margin: runner.Cost - best.Cost, Assign: make([]string, len(runner.Assign))}
		if rt.reports(runner.Dist) {
			alt.Lo, alt.Hi = runner.Dist.Lo, runner.Dist.Hi
		}
		for i, a := range runner.Assign {
			alt.Assign[i] = rt.platformName(a)
		}
		sel.RunnerUp = alt
	}
	rt.Final = sel
}

// recordContributions scores each operator's singleton subvector under the
// winning assignment — the per-subvector cost decomposition of the chosen
// plan. Runs only on traced runs — every serving request is one — so the n
// rows go to the run's specialised model (bind) as one batch of rows of the
// run, each cost bit-identical to the row scored alone: no kernel depends on
// its batch.
func (rt *RunTrace) recordContributions(c *Context, best *Vector) {
	rt.OpContribs = make([]OpContribution, 0, len(c.Plan.Ops))
	for _, o := range c.Plan.Ops {
		if col := best.Assign[o.ID]; col != Unassigned {
			rt.OpContribs = append(rt.OpContribs, OpContribution{
				Op:       int(o.ID),
				Name:     o.Name,
				Kind:     o.Kind.String(),
				Platform: rt.platformName(col),
			})
		}
	}
	n := len(rt.OpContribs)
	if n == 0 {
		return
	}
	sc := c.scratch
	cost := c.store.floats(&sc.out, n)
	sc.chunks(1)
	X := &sc.views[0]
	w := len(c.live)
	*X = vecops.Matrix{Data: c.store.floats(&sc.gather, n*w), Rows: n, Cols: w}
	for k := range rt.OpContribs {
		o := c.Plan.Op(plan.OpID(rt.OpContribs[k].Op))
		c.singletonRow(X.Row(k), o, best.Assign[o.ID])
	}
	c.spec.PredictBatchDist(X, cost, nil, nil, nil)
	for k := range rt.OpContribs {
		rt.OpContribs[k].Cost = cost[k]
	}
}

// ---------------------------------------------------------------------------
// Explanation report
// ---------------------------------------------------------------------------

// Explanation is the human-readable account of one traced optimization: the
// winning platform per operator with its subvector cost contribution, the
// best complete alternative plan with its losing margin, and the best pruned
// alternative at every enumeration boundary.
type Explanation struct {
	Predicted float64 `json:"predictedRuntimeSec"`
	// PredictedLo/Hi/Spread describe the model's predictive interval for
	// the chosen plan (zero, and omitted, when the model exposes no
	// uncertainty). RiskLambda echoes the run's risk-aversion weight and
	// IntervalKept the number of near-ties overlap pruning retained.
	PredictedLo     float64          `json:"predictedLoSec,omitempty"`
	PredictedHi     float64          `json:"predictedHiSec,omitempty"`
	PredictedSpread float64          `json:"predictedSpreadSec,omitempty"`
	RiskLambda      float64          `json:"riskLambda,omitempty"`
	IntervalKept    int              `json:"intervalKept,omitempty"`
	Degraded        bool             `json:"degraded,omitempty"`
	DegradeReason   string           `json:"degradeReason,omitempty"`
	Operators       []OpContribution `json:"operators"`
	Final           *FinalSelection  `json:"final,omitempty"`
	Boundaries      []*PruneRecord   `json:"boundaries,omitempty"`
}

// Explain derives the explainability report from the run's trace. Returns an
// error when the run was not traced in detail (set Context.Trace to a detailed
// trace, such as obs.NewTrace's, before optimizing).
func (r *Result) Explain() (*Explanation, error) {
	if r.Trace == nil {
		return nil, fmt.Errorf("core: result carries no trace; set Context.Trace to a detailed trace before optimizing")
	}
	ex := &Explanation{
		Predicted:     r.Predicted,
		RiskLambda:    r.Risk.Lambda,
		IntervalKept:  r.Stats.IntervalKept,
		Degraded:      r.Degraded,
		DegradeReason: r.Stats.DegradeReason,
		Operators:     r.Trace.OpContribs,
		Final:         r.Trace.Final,
	}
	if r.PredictedDist.Spread != 0 {
		ex.PredictedLo = r.PredictedDist.Lo
		ex.PredictedHi = r.PredictedDist.Hi
		ex.PredictedSpread = r.PredictedDist.Spread
	}
	// Only boundaries that actually discarded something make the report;
	// the full trail stays on r.Trace.Prunes.
	for _, rec := range r.Trace.Prunes {
		if rec.BestPruned != nil {
			ex.Boundaries = append(ex.Boundaries, rec)
		}
	}
	return ex, nil
}

// String renders the explanation as an indented text report.
func (ex *Explanation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "predicted runtime: %.4gs", ex.Predicted)
	if ex.PredictedSpread != 0 {
		fmt.Fprintf(&sb, " (90%% interval [%.4g, %.4g]s, spread %.4gs)",
			ex.PredictedLo, ex.PredictedHi, ex.PredictedSpread)
	}
	if ex.RiskLambda != 0 {
		fmt.Fprintf(&sb, " [risk λ=%.3g]", ex.RiskLambda)
	}
	if ex.Degraded {
		fmt.Fprintf(&sb, " (degraded: %s)", ex.DegradeReason)
	}
	sb.WriteByte('\n')
	if ex.IntervalKept > 0 {
		fmt.Fprintf(&sb, "overlap pruning kept %d near-tie vectors alive\n", ex.IntervalKept)
	}
	sb.WriteString("operator platform choices (singleton cost contribution):\n")
	for _, oc := range ex.Operators {
		fmt.Fprintf(&sb, "  op %-3d %-24s -> %-10s (%.4gs)\n", oc.Op,
			fmt.Sprintf("%s [%s]", oc.Name, oc.Kind), oc.Platform, oc.Cost)
	}
	if ex.Final != nil {
		fmt.Fprintf(&sb, "final selection: best of %d complete plans at %.4gs predicted\n",
			ex.Final.Size, ex.Final.BestCost)
		if ru := ex.Final.RunnerUp; ru != nil {
			fmt.Fprintf(&sb, "  runner-up at %.4gs (margin %.4gs): %s\n",
				ru.Cost, ru.Margin, strings.Join(ru.Assign, ","))
		}
	}
	if len(ex.Boundaries) > 0 {
		sb.WriteString("pruning boundaries (best pruned alternative per step):\n")
		for _, rec := range ex.Boundaries {
			bp := rec.BestPruned
			fmt.Fprintf(&sb, "  step %-3d boundary %v: %d -> %d vectors; pruned alt %v at %.4gs lost to %v at %.4gs by %.4gs",
				rec.Step, rec.Boundary, rec.VectorsIn, rec.VectorsOut,
				bp.BoundaryAssign, bp.Cost, bp.SurvivorAssign, bp.SurvivorCost, bp.Margin)
			if rec.Degraded {
				sb.WriteString(" [degraded]")
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
