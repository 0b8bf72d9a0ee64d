package plan_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/platform"
)

// buildExample constructs the paper's Fig. 3a running example inline (the
// workload package depends on plan, so the test rebuilds it here).
func buildExample(t *testing.T) *plan.Logical {
	t.Helper()
	b := plan.NewBuilder(120)
	trans := b.Source(platform.TextFileSource, "transactions", 40e6)
	month := b.Add(platform.Filter, "month", platform.Logarithmic, 0.25, trans)
	cust := b.Source(platform.TextFileSource, "customers", 2e6)
	country := b.Add(platform.Filter, "country", platform.Logarithmic, 0.05, cust)
	proj := b.Add(platform.Map, "project", platform.Logarithmic, 1, country)
	join := b.Add(platform.Join, "customer_id", platform.Linear, 0.01, month, proj)
	agg := b.Add(platform.ReduceBy, "sum_&_count", platform.Linear, 0.1, join)
	label := b.Add(platform.Map, "label", platform.Logarithmic, 1, agg)
	b.Add(platform.CollectionSink, "collect", platform.Logarithmic, 1, label)
	l, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return l
}

func TestBuilderRunningExample(t *testing.T) {
	l := buildExample(t)
	if got := l.NumOps(); got != 9 {
		t.Fatalf("NumOps = %d, want 9", got)
	}
	if got := len(l.Sources()); got != 2 {
		t.Errorf("sources = %d, want 2", got)
	}
	if got := len(l.Sinks()); got != 1 {
		t.Errorf("sinks = %d, want 1", got)
	}
	if got := len(l.Edges()); got != 8 {
		t.Errorf("edges = %d, want 8", got)
	}
}

func TestTopologyRunningExample(t *testing.T) {
	// Fig. 5: the running example has 3 pipelines and 1 juncture.
	l := buildExample(t)
	topo := l.AnalyzeTopology()
	if topo.Pipelines != 3 {
		t.Errorf("pipelines = %d, want 3", topo.Pipelines)
	}
	if topo.Junctures != 1 {
		t.Errorf("junctures = %d, want 1", topo.Junctures)
	}
	if topo.Replicates != 0 || topo.Loops != 0 {
		t.Errorf("replicates/loops = %d/%d, want 0/0", topo.Replicates, topo.Loops)
	}
}

func TestTopologyLoopAndReplicate(t *testing.T) {
	b := plan.NewBuilder(64)
	src := b.Source(platform.TextFileSource, "src", 1000)
	rep := b.Add(platform.Replicate, "rep", platform.Logarithmic, 1, src)
	m1 := b.Add(platform.Map, "m1", platform.Linear, 1, rep)
	m2 := b.Add(platform.Map, "m2", platform.Linear, 1, rep)
	b.Loop(5, m1)
	b.Add(platform.CollectionSink, "s1", platform.Logarithmic, 1, m1)
	b.Add(platform.CollectionSink, "s2", platform.Logarithmic, 1, m2)
	l, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	topo := l.AnalyzeTopology()
	if topo.Replicates != 1 {
		t.Errorf("replicates = %d, want 1", topo.Replicates)
	}
	if topo.Loops != 1 {
		t.Errorf("loops = %d, want 1", topo.Loops)
	}
}

func TestCardinalityPropagation(t *testing.T) {
	l := buildExample(t)
	// o2 = Filter(month): 40e6 * 0.25 = 10e6.
	if got := l.Op(1).OutputCard; got != 10e6 {
		t.Errorf("filter(month) out = %g, want 1e7", got)
	}
	// o5 = Map(project): 2e6 * 0.05 = 1e5.
	if got := l.Op(4).OutputCard; got != 1e5 {
		t.Errorf("map(project) out = %g, want 1e5", got)
	}
	// Join: sel * max(in1, in2) = 0.01 * 1e7 = 1e5.
	if got := l.Op(5).OutputCard; got != 1e5 {
		t.Errorf("join out = %g, want 1e5", got)
	}
	// Join input = sum of inputs.
	if got := l.Op(5).InputCard; got != 10e6+1e5 {
		t.Errorf("join in = %g, want %g", got, 10e6+1e5)
	}
	// Sink outputs nothing.
	if got := l.Op(8).OutputCard; got != 0 {
		t.Errorf("sink out = %g, want 0", got)
	}
}

func TestCardinalityMonotoneInInput(t *testing.T) {
	// Output cardinalities must be monotone in the source cardinality.
	build := func(card float64) *plan.Logical {
		b := plan.NewBuilder(64)
		src := b.Source(platform.TextFileSource, "src", card)
		f := b.Add(platform.Filter, "f", platform.Logarithmic, 0.5, src)
		r := b.Add(platform.ReduceBy, "r", platform.Linear, 0.1, f)
		b.Add(platform.CollectionSink, "s", platform.Logarithmic, 1, r)
		return b.MustBuild()
	}
	prev := -math.MaxFloat64
	for _, card := range []float64{1, 10, 1e3, 1e6, 1e9} {
		l := build(card)
		out := l.Op(2).OutputCard
		if out < prev {
			t.Fatalf("output card decreased: %g after %g", out, prev)
		}
		prev = out
	}
}

func TestValidateRejectsArityViolation(t *testing.T) {
	b := plan.NewBuilder(64)
	src := b.Source(platform.TextFileSource, "src", 100)
	// Join with a single input violates arity.
	b.Add(platform.Join, "bad-join", platform.Linear, 0.5, src)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a join with one input")
	}
}

func TestValidateRejectsMissingSourceCard(t *testing.T) {
	l := &plan.Logical{
		Ops: []*plan.Operator{
			{ID: 0, Kind: platform.TextFileSource, UDF: platform.Linear, Selectivity: 1, Out: []plan.OpID{1}},
			{ID: 1, Kind: platform.CollectionSink, UDF: platform.Linear, Selectivity: 1, In: []plan.OpID{0}},
		},
		Loops:       map[int]int{},
		SourceCards: map[plan.OpID]float64{},
	}
	if err := l.Validate(); err == nil {
		t.Fatal("Validate accepted a source without cardinality")
	}
}

func TestValidateRejectsUnknownProducer(t *testing.T) {
	b := plan.NewBuilder(64)
	b.Add(platform.Map, "m", platform.Linear, 1, plan.OpID(7))
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a reference to an unknown producer")
	}
}

func TestValidateRejectsBadLoop(t *testing.T) {
	b := plan.NewBuilder(64)
	src := b.Source(platform.TextFileSource, "src", 100)
	m := b.Add(platform.Map, "m", platform.Linear, 1, src)
	b.Add(platform.CollectionSink, "s", platform.Logarithmic, 1, m)
	b.Loop(0, m) // zero iterations is invalid
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a loop with 0 iterations")
	}
}

func TestExecutionConversions(t *testing.T) {
	l := buildExample(t)
	// Assign Fig. 3b: transactions side on Spark, customer side on Java
	// until the join, all downstream Spark, sink Java.
	assign := []platform.ID{
		platform.Spark, platform.Spark, // o1, o2
		platform.Java, platform.Java, platform.Java, // o3, o4, o5
		platform.Spark, platform.Spark, platform.Spark, // o6, o7, o8
		platform.Java, // o9
	}
	x, err := plan.NewExecution(l, assign)
	if err != nil {
		t.Fatalf("NewExecution: %v", err)
	}
	// Platform switches: o5(Java)->o6(Spark) and o8(Spark)->o9(Java).
	if got := len(x.Conversions); got != 2 {
		t.Fatalf("switches = %d, want 2; convs=%v", got, x.Conversions)
	}
	if got := x.PlatformLabel(); got != "Java+Spark" {
		t.Errorf("label = %q, want Java+Spark", got)
	}
	if err := x.Validate(platform.DefaultAvailability()); err != nil {
		t.Errorf("Validate: %v", err)
	}
	cot := x.COT()
	if len(cot) != 2 {
		t.Fatalf("COT rows = %d, want 2", len(cot))
	}
	if !strings.Contains(cot[0].Name, "Collect") {
		t.Errorf("COT name = %q, want a Collect pair", cot[0].Name)
	}
}

func TestExecutionValidateAvailability(t *testing.T) {
	l := buildExample(t)
	assign := make([]platform.ID, l.NumOps())
	for i := range assign {
		assign[i] = platform.Postgres // Postgres lacks TextFileSource etc.
	}
	x, err := plan.NewExecution(l, assign)
	if err != nil {
		t.Fatalf("NewExecution: %v", err)
	}
	if err := x.Validate(platform.DefaultAvailability()); err == nil {
		t.Fatal("Validate accepted Postgres for a text-file source")
	}
}

func TestLOTCOTRender(t *testing.T) {
	l := buildExample(t)
	assign := make([]platform.ID, l.NumOps())
	for i := range assign {
		assign[i] = platform.Spark
	}
	assign[4] = platform.Java
	x, err := plan.NewExecution(l, assign)
	if err != nil {
		t.Fatalf("NewExecution: %v", err)
	}
	out := x.FormatTables()
	if !strings.Contains(out, "LOT") || !strings.Contains(out, "COT") {
		t.Fatalf("FormatTables missing sections:\n%s", out)
	}
	if !strings.Contains(out, "Join(customer_id)") {
		t.Errorf("LOT missing join row:\n%s", out)
	}
	if rows := plan.LOT(l); len(rows) != 9 {
		t.Errorf("LOT rows = %d, want 9", len(rows))
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	l := buildExample(t)
	order := l.TopoOrder()
	pos := make(map[plan.OpID]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range l.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %v violates topo order", e)
		}
	}
}
