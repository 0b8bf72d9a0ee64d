package experiments

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/tdgen"
	"repro/internal/workload"
)

// singleModePlatforms are the execution platforms compared in the
// single-platform experiments (the bars of Figure 11).
var singleModePlatforms = []platform.ID{platform.Java, platform.Spark, platform.Flink}

// perPlatform returns pre, one cell per single-mode platform, then post: the
// column layout Figures 11 and 12 share.
func perPlatform(cell func(platform.ID) string, pre []string, post ...string) []string {
	for _, p := range singleModePlatforms {
		pre = append(pre, cell(p))
	}
	return append(pre, post...)
}

// Fig2Row is one query of Figure 2: simulated runtime of the plan chosen by
// the well-tuned vs. the simply-tuned cost model.
type Fig2Row struct {
	Query        string
	Input        string
	WellTunedSec float64
	SimplySec    float64
	WellLabel    string // includes OOM/abort annotations
	SimplyLabel  string
}

// Figure2 reproduces Figure 2: the impact of cost-model tuning. Both models
// drive the same RHEEMix optimizer; only the coefficients differ.
func (h *Harness) Figure2() ([]Fig2Row, error) {
	cases := []struct {
		name, input string
		l           *plan.Logical
	}{
		{"SGD", "7.4GB input", workload.SGD(7.4*workload.GB, workload.DefaultSGD)},
		{"Word2NVec", "30MB input", workload.Word2NVec(30 * workload.MB)},
		{"Aggregate", "200GB input", workload.Aggregate(200 * workload.GB)},
		{"CrocoPR", "2GB input", workload.CrocoPR(2*workload.GB, workload.DefaultCrocoPR)},
	}
	avail := platform.DefaultAvailability()
	var rows []Fig2Row
	for _, cs := range cases {
		well, wellPlan, _, err := plan.CheapestAllOn(cs.l, singleModePlatforms, avail, costSingleScore(h.WellTuned()))
		if err != nil {
			return nil, err
		}
		simply, simplyPlan, _, err := plan.CheapestAllOn(cs.l, singleModePlatforms, avail, costSingleScore(h.SimplyTuned()))
		if err != nil {
			return nil, err
		}
		rw, rs := h.Cluster.Run(wellPlan), h.Cluster.Run(simplyPlan)
		rows = append(rows, Fig2Row{
			Query: cs.name, Input: cs.input,
			WellTunedSec: rw.Runtime, SimplySec: rs.Runtime,
			WellLabel:   fmt.Sprintf("%s (%s)", rw.Label(), well),
			SimplyLabel: fmt.Sprintf("%s (%s)", rs.Label(), simply),
		})
	}
	return rows, nil
}

func fig2Table(rows []Fig2Row) *Table {
	return tabulate(rows, []string{"query", "input", "well-tuned", "simply-tuned"}, func(r Fig2Row) []string {
		return []string{r.Query, r.Input, r.WellLabel, r.SimplyLabel}
	})
}

func table2Table(rows []workload.Query) *Table {
	return tabulate(rows, []string{"query", "description", "#operators", "dataset (size)"}, func(q workload.Query) []string {
		return []string{q.Name, q.Description, strconv.Itoa(q.Operators),
			fmt.Sprintf("%s (%s - %s)", q.Dataset, fmtBytes(q.MinBytes), fmtBytes(q.MaxBytes))}
	})
}

func fmtBytes(b float64) string {
	switch {
	case b >= workload.TB:
		return fmt.Sprintf("%gTB", b/workload.TB)
	case b >= workload.GB:
		return fmt.Sprintf("%gGB", b/workload.GB)
	case b >= workload.MB:
		return fmt.Sprintf("%gMB", b/workload.MB)
	default:
		return fmt.Sprintf("%gB", b)
	}
}

// fig11Sizes lists the dataset sizes (bytes) per query, following the x-axes
// of Figure 11. The terabyte points exercise the OOM and abort paths.
var fig11Sizes = map[string][]float64{
	"WordCount": {0.03 * workload.GB, 0.3 * workload.GB, 1.5 * workload.GB, 3 * workload.GB, 6 * workload.GB, 24 * workload.GB, 1 * workload.TB},
	"Word2NVec": {3 * workload.MB, 30 * workload.MB, 60 * workload.MB, 90 * workload.MB, 150 * workload.MB},
	"SimWords":  {3 * workload.MB, 30 * workload.MB, 60 * workload.MB, 90 * workload.MB, 150 * workload.MB},
	"TPC-H Q1":  {1 * workload.GB, 10 * workload.GB, 100 * workload.GB, 200 * workload.GB, 1 * workload.TB},
	"TPC-H Q3":  {1 * workload.GB, 10 * workload.GB, 100 * workload.GB, 200 * workload.GB, 1 * workload.TB},
	"Kmeans":    {36 * workload.MB, 361 * workload.MB, 3610 * workload.MB, 1 * workload.TB},
	"SGD":       {0.74 * workload.GB, 1.85 * workload.GB, 3.7 * workload.GB, 7.4 * workload.GB, 14.8 * workload.GB, 1 * workload.TB},
	"CrocoPR":   {0.2 * workload.GB, 1 * workload.GB, 5 * workload.GB, 10 * workload.GB, 20 * workload.GB, 1 * workload.TB},
}

// Fig11Point is one dataset size of one query in Figure 11: the runtime of
// each platform plus the platforms chosen by RHEEMix and Robopt.
type Fig11Point struct {
	Query string
	Bytes float64
	// Runtime per platform, +Inf for OOM; Labels carry annotations.
	Runtimes map[platform.ID]float64
	Labels   map[platform.ID]string
	Rheemix  platform.ID
	Robopt   platform.ID
	// Fastest is the platform with the lowest simulated runtime.
	Fastest platform.ID
}

// Figure11 reproduces the single-platform execution mode experiment for all
// Table II queries. The grid runs once per harness: Table III is derived from
// the same points.
func (h *Harness) Figure11() ([]Fig11Point, error) {
	h.fig11.once.Do(func() { h.fig11.points, h.fig11.err = h.figure11() })
	return h.fig11.points, h.fig11.err
}

func (h *Harness) figure11() ([]Fig11Point, error) {
	avail := platform.DefaultAvailability()
	plats := platform.All()
	m, err := h.Model(plats, avail)
	if err != nil {
		return nil, err
	}
	var points []Fig11Point
	for _, q := range workload.Catalog() {
		sizes := fig11Sizes[q.Name]
		for _, bytes := range sizes {
			l := q.Build(bytes)
			pt := Fig11Point{
				Query:    q.Name,
				Bytes:    bytes,
				Runtimes: map[platform.ID]float64{},
				Labels:   map[platform.ID]string{},
			}
			bestRT := math.Inf(1)
			for _, p := range singleModePlatforms {
				r, err := h.Cluster.RunAllOn(l, p, avail)
				if err != nil {
					return nil, err
				}
				pt.Runtimes[p] = r.Runtime
				pt.Labels[p] = r.Label()
				if r.Runtime < bestRT {
					bestRT = r.Runtime
					pt.Fastest = p
				}
			}
			pt.Rheemix, _, _, err = plan.CheapestAllOn(l, singleModePlatforms, avail, costSingleScore(h.WellTuned()))
			if err != nil {
				return nil, err
			}
			ctx, err := core.NewContext(l, plats, avail)
			if err != nil {
				return nil, err
			}
			pt.Robopt, _, _, err = ctx.CheapestAllOn(m, singleModePlatforms)
			if err != nil {
				return nil, err
			}
			points = append(points, pt)
		}
	}
	return points, nil
}

// fig11Table tabulates the grid; its note is the fastest-platform hit rate
// reported in Section VII-C1 (84% vs 43%).
func fig11Table(points []Fig11Point) *Table {
	columns := perPlatform(platform.ID.String, []string{"query", "size"}, "rheemix", "robopt", "fastest")
	t := tabulate(points, columns, func(pt Fig11Point) []string {
		return perPlatform(func(p platform.ID) string { return pt.Labels[p] }, []string{pt.Query, fmtBytes(pt.Bytes)},
			pt.Rheemix.String(), pt.Robopt.String(), pt.Fastest.String())
	})
	rx, rb := 0, 0
	for _, pt := range points {
		if pt.Rheemix == pt.Fastest {
			rx++
		}
		if pt.Robopt == pt.Fastest {
			rb++
		}
	}
	total := float64(len(points))
	t.Notes = []string{fmt.Sprintf("fastest-platform hit rate: robopt %d/%d (%.0f%%), rheemix %d/%d (%.0f%%)",
		rb, len(points), 100*float64(rb)/total, rx, len(points), 100*float64(rx)/total)}
	return t
}

// Table3Row summarizes Figure 11 per query: max and average runtime
// difference from the optimal platform choice (Table III).
type Table3Row struct {
	Query                  string
	RheemixMax, RheemixAvg float64
	RoboptMax, RoboptAvg   float64
}

// Table3 derives Table III from the Figure 11 grid. Failed runs (OOM,
// abort) count as twice the timeout, mirroring how the paper's diffs blow up
// when a bad platform is chosen.
func (h *Harness) Table3(points []Fig11Point) []Table3Row {
	perQuery := map[string][]Fig11Point{}
	var order []string
	for _, pt := range points {
		if _, ok := perQuery[pt.Query]; !ok {
			order = append(order, pt.Query)
		}
		perQuery[pt.Query] = append(perQuery[pt.Query], pt)
	}
	clamp := func(v float64) float64 {
		if math.IsInf(v, 1) {
			return 2 * h.Cluster.Timeout
		}
		return v
	}
	var rows []Table3Row
	for _, q := range order {
		row := Table3Row{Query: q}
		n := 0.0
		for _, pt := range perQuery[q] {
			best := clamp(pt.Runtimes[pt.Fastest])
			dx := clamp(pt.Runtimes[pt.Rheemix]) - best
			db := clamp(pt.Runtimes[pt.Robopt]) - best
			row.RheemixAvg += dx
			row.RoboptAvg += db
			if dx > row.RheemixMax {
				row.RheemixMax = dx
			}
			if db > row.RoboptMax {
				row.RoboptMax = db
			}
			n++
		}
		row.RheemixAvg /= n
		row.RoboptAvg /= n
		rows = append(rows, row)
	}
	return rows
}

func table3Table(rows []Table3Row) *Table {
	sec := func(v float64) string { return fmt.Sprintf("%.1f", v) }
	return tabulate(rows, []string{"query", "rheemix max", "rheemix avg", "robopt max", "robopt avg"}, func(r Table3Row) []string {
		return []string{r.Query, sec(r.RheemixMax), sec(r.RheemixAvg), sec(r.RoboptMax), sec(r.RoboptAvg)}
	})
}

// Fig12Row is one configuration of the multi-platform experiment: the
// runtimes of the single-platform executions and of the two optimizers'
// chosen (possibly multi-platform) plans.
type Fig12Row struct {
	Query     string
	Param     string // e.g. "#centroids=100"
	Single    map[platform.ID]string
	RheemixRT float64
	RoboptRT  float64
	RheemixLb string // runtime + platform combination label
	RoboptLb  string
}

// Figure12 reproduces the multiple-platform execution mode experiment:
// K-means over #centroids, SGD over batch size, and CrocoPR (HDFS and
// Postgres variants) over iterations.
func (h *Harness) Figure12() ([]Fig12Row, error) {
	type cse struct {
		query, param string
		l            *plan.Logical
	}
	var cases []cse
	for _, c := range []int{10, 100, 1000} {
		cases = append(cases, cse{"K-means", fmt.Sprintf("#centroids=%d", c),
			workload.Kmeans(1*workload.GB, workload.KmeansParams{Centroids: c, Iterations: 10})})
	}
	for _, b := range []int{1, 100, 1000} {
		cases = append(cases, cse{"SGD", fmt.Sprintf("batch=%d", b),
			workload.SGD(7.4*workload.GB, workload.SGDParams{BatchSize: b, Iterations: 50})})
	}
	for _, it := range []int{1, 10, 100} {
		cases = append(cases, cse{"CrocoPR-HDFS", fmt.Sprintf("#iterations=%d", it),
			workload.CrocoPR(2*workload.GB, workload.CrocoPRParams{Iterations: it})})
	}
	for _, it := range []int{1, 10, 100} {
		cases = append(cases, cse{"CrocoPR-PG", fmt.Sprintf("#iterations=%d", it),
			workload.CrocoPR(2*workload.GB, workload.CrocoPRParams{Iterations: it, InPostgres: true})})
	}

	plats := platform.All()
	var rows []Fig12Row
	for _, cs := range cases {
		avail := platform.DefaultAvailability()
		if cs.query == "CrocoPR-PG" {
			// The DBpedia dump resides in Postgres: the table scan
			// cannot run anywhere else.
			avail = avail.Only(platform.TableSource, platform.Postgres)
		}
		row := Fig12Row{Query: cs.query, Param: cs.param, Single: map[platform.ID]string{}}
		for _, p := range singleModePlatforms {
			r, err := h.Cluster.RunAllOn(cs.l, p, avail)
			if err != nil {
				row.Single[p] = "n/a"
				continue
			}
			row.Single[p] = r.Label()
		}
		rb, err := h.RoboptOptimize(cs.l, plats, avail)
		if err != nil {
			return nil, err
		}
		rx, err := h.RheemixOptimize(cs.l, plats, avail)
		if err != nil {
			return nil, err
		}
		rbRes := h.Cluster.Run(rb.Execution)
		rxRes := h.Cluster.Run(rx.Execution)
		row.RoboptRT = rbRes.Runtime
		row.RheemixRT = rxRes.Runtime
		row.RoboptLb = fmt.Sprintf("%s (%s)", rbRes.Label(), rb.Execution.PlatformLabel())
		row.RheemixLb = fmt.Sprintf("%s (%s)", rxRes.Label(), rx.Execution.PlatformLabel())
		rows = append(rows, row)
	}
	return rows, nil
}

func fig12Table(rows []Fig12Row) *Table {
	columns := perPlatform(platform.ID.String, []string{"query", "param"}, "rheemix", "robopt")
	return tabulate(rows, columns, func(r Fig12Row) []string {
		return perPlatform(func(p platform.ID) string { return r.Single[p] }, []string{r.Query, r.Param}, r.RheemixLb, r.RoboptLb)
	})
}

// Fig13Row is one dataset size of the Postgres-resident Join experiment.
type Fig13Row struct {
	Bytes      float64
	PostgresRT string
	RheemixLb  string
	RoboptLb   string
}

// Figure13 reproduces the Join query with data resident in Postgres: the
// optimizers may push relational work into Postgres and move the rest to a
// parallel platform, which the paper measures at up to 2.5x faster than
// running everything inside Postgres.
func (h *Harness) Figure13() ([]Fig13Row, error) {
	avail := platform.DefaultAvailability().Only(platform.TableSource, platform.Postgres)
	plats := platform.All()
	var rows []Fig13Row
	for _, gb := range []float64{10, 100} {
		l := workload.Join(gb * workload.GB)
		pg, err := h.Cluster.RunAllOn(l, platform.Postgres, avail)
		if err != nil {
			return nil, err
		}
		rb, err := h.RoboptOptimize(l, plats, avail)
		if err != nil {
			return nil, err
		}
		rx, err := h.RheemixOptimize(l, plats, avail)
		if err != nil {
			return nil, err
		}
		rbRes := h.Cluster.Run(rb.Execution)
		rxRes := h.Cluster.Run(rx.Execution)
		rows = append(rows, Fig13Row{
			Bytes:      gb * workload.GB,
			PostgresRT: pg.Label(),
			RheemixLb:  fmt.Sprintf("%s (%s)", rxRes.Label(), rx.Execution.PlatformLabel()),
			RoboptLb:   fmt.Sprintf("%s (%s)", rbRes.Label(), rb.Execution.PlatformLabel()),
		})
	}
	return rows, nil
}

func fig13Table(rows []Fig13Row) *Table {
	return tabulate(rows, []string{"size", "postgres", "rheemix", "robopt"}, func(r Fig13Row) []string {
		return []string{fmtBytes(r.Bytes), r.PostgresRT, r.RheemixLb, r.RoboptLb}
	})
}

// Fig8Row is one cardinality of the interpolation demonstration (Figure 8).
type Fig8Row struct {
	Cardinality  float64
	Actual       float64
	Interpolated float64
	TrainingPt   bool
}

// Figure8 reproduces the TDGen interpolation demonstration: a 6-operator
// pipeline executed at a subset of cardinalities, with the remaining
// runtimes imputed by the piecewise degree-5 interpolation.
func (h *Harness) Figure8() ([]Fig8Row, error) {
	avail := platform.UniformAvailability(2)
	grid := []float64{1e5, 1e6, 2.5e6, 5e6, 7.5e6, 1e7, 1.25e7, 1.5e7, 1.75e7, 2e7}
	training := map[int]bool{0: true, 1: true, 3: true, 5: true, 7: true, 9: true}

	var xs, ys []float64
	actual := make([]float64, len(grid))
	for i, card := range grid {
		l := workload.Pipeline(6, card*100) // tupleBytes=100 in Pipeline
		r, err := h.Cluster.RunAllOn(l, platform.Spark, avail)
		if err != nil {
			return nil, err
		}
		actual[i] = r.Runtime
		if training[i] {
			xs = append(xs, math.Log(card))
			ys = append(ys, math.Log1p(r.Runtime))
		}
	}
	interp, err := newLogInterp(xs, ys)
	if err != nil {
		return nil, err
	}
	var rows []Fig8Row
	for i, card := range grid {
		rows = append(rows, Fig8Row{
			Cardinality:  card,
			Actual:       actual[i],
			Interpolated: interp(card),
			TrainingPt:   training[i],
		})
	}
	return rows, nil
}

func fig8Table(rows []Fig8Row) *Table {
	return tabulate(rows, []string{"cardinality", "actual(s)", "interpolated(s)", "training-point"}, func(r Fig8Row) []string {
		mark := ""
		if r.TrainingPt {
			mark = "*"
		}
		return []string{fmt.Sprintf("%.3g", r.Cardinality), fmt.Sprintf("%.2f", r.Actual), fmt.Sprintf("%.2f", r.Interpolated), mark}
	})
}

// newLogInterp builds a log-log degree-5 interpolator over pre-transformed
// points and returns an evaluator in raw coordinates.
func newLogInterp(logXs, logYs []float64) (func(card float64) float64, error) {
	in, err := tdgen.NewInterpolator(logXs, logYs)
	if err != nil {
		return nil, err
	}
	return func(card float64) float64 {
		y := math.Expm1(in.At(math.Log(card)))
		if y < 0 {
			return 0
		}
		return y
	}, nil
}
