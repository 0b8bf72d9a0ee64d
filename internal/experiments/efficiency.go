package experiments

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/workload"
)

// reps is the number of timed repetitions per latency measurement (the
// median is reported).
const reps = 5

// Fig1Row is one bar of Figure 1: the improvement factor of the vector-based
// plan enumeration over the traditional (object + per-call vectorization)
// enumeration, both driven by the same ML model and pruning.
type Fig1Row struct {
	Task          string
	Operators     int
	TraditionalMs float64 // Rheem-ML optimization latency
	VectorMs      float64 // Robopt optimization latency
	Factor        float64
}

// Figure1 reproduces Figure 1 on two platforms with the paper's three tasks:
// WordCount (6 operators), TPC-H Q3, and a synthetic 40-operator pipeline.
func (h *Harness) Figure1() ([]Fig1Row, error) {
	plats := platform.Subset(2)
	avail := platform.UniformAvailability(2)
	cases := []struct {
		name string
		l    *plan.Logical
	}{
		{"WordCount", workload.WordCount(1 * workload.GB)},
		{"TPC-H Q3", workload.Join(10 * workload.GB)},
		{"Synthetic", workload.Pipeline(40, 10*workload.GB)},
	}
	m := h.LatencyModel(plats)
	var rows []Fig1Row
	for _, cs := range cases {
		trad, err := timeIt(reps, func() error {
			_, err := h.RheemMLOptimizeWith(cs.l, plats, avail, m)
			return err
		})
		if err != nil {
			return nil, err
		}
		vec, err := timeIt(reps, func() error {
			_, err := h.RoboptOptimizeWith(cs.l, plats, avail, m)
			return err
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig1Row{
			Task:          cs.name,
			Operators:     cs.l.NumOps(),
			TraditionalMs: trad,
			VectorMs:      vec,
			Factor:        trad / vec,
		})
	}
	return rows, nil
}

// ms formats a latency cell; a negative value marks an arm that was not run.
func ms(v float64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}

func fig1Table(rows []Fig1Row) *Table {
	return tabulate(rows, []string{"task", "#ops", "traditional(ms)", "vector-based(ms)", "improvement"}, func(r Fig1Row) []string {
		return []string{r.Task, strconv.Itoa(r.Operators), ms(r.TraditionalMs), ms(r.VectorMs), fmt.Sprintf("%.1fx", r.Factor)}
	})
}

// Table1Row is one column pair of Table I: the number of enumerated subplans
// with and without the boundary pruning for a pipeline of the given size
// over the given number of platforms.
type Table1Row struct {
	Operators   int
	Platforms   int
	WithPruning int
	// WithoutPruning is the measured exhaustive count when feasible and
	// the theoretical search-space size otherwise (the paper reports
	// 10^6..10^14 for 20 operators).
	WithoutPruning float64
	Measured       bool // WithoutPruning was measured, not computed
}

// Table1 reproduces Table I.
func (h *Harness) Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, nOps := range []int{5, 20} {
		for k := 2; k <= 5; k++ {
			l := workload.Pipeline(nOps, 1*workload.GB)
			ctx, err := core.NewContext(l, platform.Subset(k), platform.UniformAvailability(k))
			if err != nil {
				return nil, err
			}
			ctx.Workers = h.Workers
			// The enumeration counts are model-independent (boundary
			// pruning keeps one survivor per footprint whatever the
			// oracle says), so the lightweight model suffices.
			m := h.LatencyModel(platform.Subset(k))
			res, err := ctx.Optimize(context.Background(), m)
			if err != nil {
				return nil, err
			}
			row := Table1Row{Operators: nOps, Platforms: k, WithPruning: res.Stats.VectorsCreated}
			if nOps <= 5 {
				var st core.Stats
				if _, err := ctx.EnumerateFull(context.Background(), core.NoPruner{}, core.OrderPriority, &st); err != nil {
					return nil, err
				}
				row.WithoutPruning = float64(st.VectorsCreated)
				row.Measured = true
			} else {
				row.WithoutPruning = ctx.SearchSpaceSize()
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func table1Table(rows []Table1Row) *Table {
	return tabulate(rows, []string{"(#ops,#plats)", "w pruning", "w/o pruning"}, func(r Table1Row) []string {
		wo := fmt.Sprintf("%.0f", r.WithoutPruning)
		if !r.Measured {
			wo = fmt.Sprintf("%.0e (search space)", r.WithoutPruning)
		}
		return []string{fmt.Sprintf("(%d,%d)", r.Operators, r.Platforms), strconv.Itoa(r.WithPruning), wo}
	})
}

// Fig9Row is one point of Figure 9: optimization latency of each optimizer.
type Fig9Row struct {
	Operators    int
	Platforms    int
	ExhaustiveMs float64 // NaN-like -1 when not run (too large)
	RheemixMs    float64
	RheemMLMs    float64 // -1 when not measured (panels b-d)
	RoboptMs     float64
}

// Figure9a measures optimization latency for increasing operator counts on
// two platforms: exhaustive vectorized enumeration (up to 12 operators),
// RHEEMix, Rheem-ML, and Robopt (Figure 9a).
func (h *Harness) Figure9a() ([]Fig9Row, error) {
	var rows []Fig9Row
	for _, nOps := range []int{5, 20, 40, 80} {
		row, err := h.fig9Row(nOps, 2, nOps <= 12, true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure9bcd measures latency for 2-5 platforms at a fixed operator count
// (5, 20 and 80 in the paper's panels b, c, d). Rheem-ML is omitted as in
// the paper; the exhaustive enumeration only runs for the 5-operator panel.
func (h *Harness) Figure9bcd(nOps int) ([]Fig9Row, error) {
	var rows []Fig9Row
	for k := 2; k <= 5; k++ {
		row, err := h.fig9Row(nOps, k, nOps <= 6, false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// fig9Row times the optimizers on an nOps-operator pipeline over k platforms;
// RHEEMix and Robopt always, the exhaustive and Rheem-ML arms on request.
func (h *Harness) fig9Row(nOps, k int, exhaustive, rheemML bool) (Fig9Row, error) {
	plats := platform.Subset(k)
	avail := platform.UniformAvailability(k)
	l := workload.Pipeline(nOps, 10*workload.GB)
	m := h.LatencyModel(plats)
	ctx, err := core.NewContext(l, plats, avail)
	if err != nil {
		return Fig9Row{}, err
	}
	row := Fig9Row{Operators: nOps, Platforms: k, ExhaustiveMs: -1, RheemMLMs: -1}
	arms := []struct {
		run bool
		ms  *float64
		f   func() error
	}{
		{exhaustive, &row.ExhaustiveMs, func() error { _, err := ctx.OptimizeExhaustive(context.Background(), m, 0); return err }},
		{true, &row.RheemixMs, func() error { _, err := h.RheemixOptimize(l, plats, avail); return err }},
		{rheemML, &row.RheemMLMs, func() error { _, err := h.RheemMLOptimizeWith(l, plats, avail, m); return err }},
		{true, &row.RoboptMs, func() error { _, err := h.RoboptOptimizeWith(l, plats, avail, m); return err }},
	}
	for _, a := range arms {
		if !a.run {
			continue
		}
		if *a.ms, err = timeIt(reps, a.f); err != nil {
			return Fig9Row{}, err
		}
	}
	return row, nil
}

func fig9Table(rows []Fig9Row) *Table {
	return tabulate(rows, []string{"#ops", "#plats", "exhaustive(ms)", "rheemix(ms)", "rheem-ml(ms)", "robopt(ms)"}, func(r Fig9Row) []string {
		return []string{strconv.Itoa(r.Operators), strconv.Itoa(r.Platforms), ms(r.ExhaustiveMs), ms(r.RheemixMs), ms(r.RheemMLMs), ms(r.RoboptMs)}
	})
}

// Fig10Row is one point of Figure 10: enumeration-order latency for join
// queries, and the work behind it. The latencies are wall-clock medians;
// the work counters (indexed priority, top-down, bottom-up) are
// deterministic.
type Fig10Row struct {
	Joins      int
	Platforms  int
	PriorityMs float64
	TopDownMs  float64
	BottomUpMs float64
	// Vectors and ModelRows are Stats.VectorsCreated and Stats.ModelRows of
	// one run under the priority, top-down and bottom-up orders.
	Vectors   [3]int
	ModelRows [3]int
}

// Figure10 compares the priority-based enumeration order against top-down
// and bottom-up for plans with 2..5 joins on 3 and 5 platforms.
func (h *Harness) Figure10() ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, k := range []int{3, 5} {
		plats := platform.Subset(k)
		avail := platform.UniformAvailability(k)
		m := h.LatencyModel(plats)
		for joins := 2; joins <= 5; joins++ {
			l := workload.JoinTree(joins, 10*workload.GB)
			ctx, err := core.NewContext(l, plats, avail)
			if err != nil {
				return nil, err
			}
			ctx.Workers = h.Workers
			row := Fig10Row{Joins: joins, Platforms: k}
			ms := []*float64{&row.PriorityMs, &row.TopDownMs, &row.BottomUpMs}
			for i, order := range []core.OrderPolicy{core.OrderPriority, core.OrderTopDown, core.OrderBottomUp} {
				*ms[i], err = timeIt(reps, func() error {
					res, err := ctx.OptimizeOpts(context.Background(), m, core.BoundaryPruner{}, order)
					if err == nil {
						row.Vectors[i], row.ModelRows[i] = res.Stats.VectorsCreated, res.Stats.ModelRows
					}
					return err
				})
				if err != nil {
					return nil, err
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func fig10Table(rows []Fig10Row) *Table {
	return tabulate(rows, []string{"#joins", "#plats", "priority(ms)", "top-down(ms)", "bottom-up(ms)", "vectors created (p/t/b)"}, func(r Fig10Row) []string {
		return []string{strconv.Itoa(r.Joins), strconv.Itoa(r.Platforms), ms(r.PriorityMs), ms(r.TopDownMs), ms(r.BottomUpMs),
			fmt.Sprintf("%d/%d/%d", r.Vectors[0], r.Vectors[1], r.Vectors[2])}
	})
}
