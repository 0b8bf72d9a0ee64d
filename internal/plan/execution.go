package plan

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/platform"
)

// Conversion is a data-movement (conversion) operator pair inserted on a
// dataflow edge whose endpoints execute on different platforms, e.g.
// JavaCollect followed by SparkCollectionSource (Fig. 3b).
type Conversion struct {
	From, To platform.ID
	AfterOp  OpID    // producer side of the crossed edge
	BeforeOp OpID    // consumer side of the crossed edge
	Card     float64 // tuples moved across the platform boundary
}

// Name returns the Rheem-style operator pair name.
func (c Conversion) Name() string { return platform.ConversionName(c.From, c.To) }

// Execution is a platform-specific execution plan: the logical plan plus a
// platform assignment per operator and the conversion operators implied by
// platform switches (Section III-A, Fig. 3b).
type Execution struct {
	Logical     *Logical
	Assign      []platform.ID // indexed by OpID
	Conversions []Conversion
}

// NewExecution builds an execution plan from a per-operator platform
// assignment, deriving the conversion operators from the platform-switch
// edges in (From, port) order. The assignment must cover every operator; the
// plan keeps the slice, which the caller must not change afterwards.
func NewExecution(l *Logical, assign []platform.ID) (*Execution, error) {
	if len(assign) != len(l.Ops) {
		return nil, fmt.Errorf("plan: assignment covers %d of %d operators", len(assign), len(l.Ops))
	}
	x := &Execution{Logical: l, Assign: assign}
	switches := 0
	for _, o := range l.Ops {
		for _, c := range o.Out {
			if assign[o.ID] != assign[c] {
				switches++
			}
		}
	}
	if switches == 0 {
		return x, nil
	}
	x.Conversions = make([]Conversion, 0, switches)
	for _, o := range l.Ops {
		for _, c := range o.Out {
			if pa, pb := assign[o.ID], assign[c]; pa != pb {
				x.Conversions = append(x.Conversions, Conversion{
					From: pa, To: pb, AfterOp: o.ID, BeforeOp: c, Card: o.OutputCard,
				})
			}
		}
	}
	return x, nil
}

// AllOn builds the execution plan that places every operator of l on
// platform p (the paper's single-platform execution mode). It returns an
// error when p does not implement every operator kind in the plan.
func AllOn(l *Logical, p platform.ID, avail *platform.Availability) (*Execution, error) {
	assign := make([]platform.ID, len(l.Ops))
	for i, o := range l.Ops {
		if !avail.Has(o.Kind, p) {
			return nil, fmt.Errorf("plan: %s does not implement %s", p, o.Kind)
		}
		assign[i] = p
	}
	return NewExecution(l, assign)
}

// CheapestAllOn picks one platform for the whole query (Section VII-C1's
// single-platform mode): each candidate that implements every operator of l
// gets its AllOn plan scored, and the lowest score wins, the earlier candidate
// on a tie. It returns the winner, its plan and its score, or an error when
// no candidate can run l.
func CheapestAllOn(l *Logical, candidates []platform.ID, avail *platform.Availability,
	score func(*Execution) (float64, error)) (best platform.ID, bestPlan *Execution, bestScore float64, err error) {
	for _, p := range candidates {
		x, err := AllOn(l, p, avail)
		if err != nil {
			continue // p cannot run the whole query
		}
		s, err := score(x)
		if err != nil {
			return 0, nil, 0, err
		}
		if bestPlan == nil || s < bestScore {
			best, bestPlan, bestScore = p, x, s
		}
	}
	if bestPlan == nil {
		return 0, nil, 0, fmt.Errorf("plan: no candidate platform can run the whole query")
	}
	return best, bestPlan, bestScore, nil
}

// Validate checks that the assignment respects the availability matrix.
func (x *Execution) Validate(avail *platform.Availability) error {
	for _, o := range x.Logical.Ops {
		p := x.Assign[o.ID]
		if !p.Valid() {
			return fmt.Errorf("plan: op %d (%s) assigned invalid platform %d", o.ID, o.Kind, p)
		}
		if !avail.Has(o.Kind, p) {
			return fmt.Errorf("plan: op %d (%s) assigned %s, which does not implement it", o.ID, o.Kind, p)
		}
	}
	return nil
}

// PlatformsUsed returns the distinct platforms in the plan, in ID order.
func (x *Execution) PlatformsUsed() []platform.ID {
	seen := map[platform.ID]bool{}
	for _, p := range x.Assign {
		seen[p] = true
	}
	out := make([]platform.ID, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PlatformLabel renders the used platforms as e.g. "Spark+Java" style labels
// (ordered by ID: "Java+Spark"), matching the annotations of Fig. 12.
func (x *Execution) PlatformLabel() string {
	ps := x.PlatformsUsed()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.String()
	}
	return strings.Join(names, "+")
}

// String renders the execution plan compactly: each operator with its
// platform, then the conversions.
func (x *Execution) String() string {
	var sb strings.Builder
	for _, o := range x.Logical.Ops {
		fmt.Fprintf(&sb, "o%d %s%s [%s]\n", o.ID, x.Assign[o.ID], o.Kind, o.Name)
	}
	for _, c := range x.Conversions {
		fmt.Fprintf(&sb, "conv %s on edge o%d->o%d (%.0f tuples)\n", c.Name(), c.AfterOp, c.BeforeOp, c.Card)
	}
	return sb.String()
}

// LOTRow is one row of the Logical Operators Table: the immutable structure
// of the logical query plan (Section IV-C, Fig. 6).
type LOTRow struct {
	ID      OpID
	Kind    platform.Kind
	Name    string
	Parents []OpID
}

// LOT returns the Logical Operators Table of the plan. The LOT is immutable
// through the entire enumeration process.
func LOT(l *Logical) []LOTRow {
	rows := make([]LOTRow, len(l.Ops))
	for i, o := range l.Ops {
		rows[i] = LOTRow{ID: o.ID, Kind: o.Kind, Name: o.Name, Parents: append([]OpID(nil), o.In...)}
	}
	return rows
}

// COTRow is one row of the Conversion Operators Table: the platform switches
// of one specific execution plan (Section IV-C, Fig. 6).
type COTRow struct {
	ID     int
	Name   string
	Parent OpID // the logical operator after which the conversion runs
}

// COT returns the Conversion Operators Table of the execution plan.
func (x *Execution) COT() []COTRow {
	rows := make([]COTRow, len(x.Conversions))
	for i, c := range x.Conversions {
		rows[i] = COTRow{ID: i + 1, Name: c.Name(), Parent: c.AfterOp}
	}
	return rows
}

// FormatTables renders the LOT and COT in the style of Fig. 6, for debugging
// and the examples.
func (x *Execution) FormatTables() string {
	var sb strings.Builder
	sb.WriteString("LOT\nId\tOperator\tParents\n")
	for _, r := range LOT(x.Logical) {
		parents := "-"
		if len(r.Parents) > 0 {
			parts := make([]string, len(r.Parents))
			for i, p := range r.Parents {
				parts[i] = fmt.Sprintf("o%d", p)
			}
			parents = strings.Join(parts, ",")
		}
		fmt.Fprintf(&sb, "o%d\t%s(%s)\t%s\n", r.ID, r.Kind, r.Name, parents)
	}
	sb.WriteString("COT\nId\tConversion\tParent\n")
	for _, r := range x.COT() {
		fmt.Fprintf(&sb, "co%d\t%s\to%d\n", r.ID, r.Name, r.Parent)
	}
	return sb.String()
}
