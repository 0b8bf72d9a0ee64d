// Package workload defines the paper's evaluation queries (Table II) as
// logical plan builders, plus the synthetic plans used by the efficiency and
// scalability experiments (Figures 1, 9, 10 and Table I).
//
// Queries are parameterized by input dataset size in bytes, matching how the
// paper scales its datasets ("we varied the dataset sizes up to 1TB by
// replicating the input data"); cardinalities derive from per-workload
// average tuple widths.
package workload

import (
	"fmt"

	"repro/internal/plan"
	"repro/internal/platform"
)

// GB and related sizes express dataset sizes in bytes.
const (
	MB = 1e6
	GB = 1e9
	TB = 1e12
)

// WordCount builds the 6-operator distinct-word counting query over a text
// corpus of the given size (Table II row 1).
func WordCount(bytes float64) *plan.Logical {
	const tupleBytes = 120 // one text line
	b := plan.NewBuilder(tupleBytes)
	src := b.Source(platform.TextFileSource, "wikipedia", bytes/tupleBytes)
	words := b.Add(platform.FlatMap, "split-words", platform.Linear, 9, src)
	pairs := b.Add(platform.Map, "word-one-pair", platform.Logarithmic, 1, words)
	counts := b.Add(platform.ReduceBy, "sum-counts", platform.Linear, 0.05, pairs)
	format := b.Add(platform.Map, "format", platform.Logarithmic, 1, counts)
	b.Add(platform.CollectionSink, "collect", platform.Logarithmic, 1, format)
	return b.MustBuild()
}

// Word2NVec builds the 14-operator word-neighborhood-vectors query
// (Table II row 2).
func Word2NVec(bytes float64) *plan.Logical {
	const tupleBytes = 140
	b := plan.NewBuilder(tupleBytes)
	src := b.Source(platform.TextFileSource, "wikipedia", bytes/tupleBytes)
	sentences := b.Add(platform.FlatMap, "split-sentences", platform.Linear, 2, src)
	words := b.Add(platform.FlatMap, "split-words", platform.Linear, 8, sentences)
	noStop := b.Add(platform.Filter, "drop-stopwords", platform.Logarithmic, 0.6, words)
	neigh := b.Add(platform.Map, "neighborhood", platform.Quadratic, 1, noStop)
	pairs := b.Add(platform.FlatMap, "emit-pairs", platform.Linear, 4, neigh)
	vecs := b.Add(platform.Map, "pair-to-vector", platform.Linear, 1, pairs)
	merged := b.Add(platform.ReduceBy, "merge-vectors", platform.Linear, 0.02, vecs)
	norm := b.Add(platform.Map, "normalize", platform.Linear, 1, merged)
	minc := b.Add(platform.Filter, "min-count", platform.Logarithmic, 0.7, norm)
	proj := b.Add(platform.Project, "project", platform.Logarithmic, 1, minc)
	sorted := b.Add(platform.Sort, "sort", platform.Linear, 1, proj)
	format := b.Add(platform.Map, "format", platform.Logarithmic, 1, sorted)
	b.Add(platform.CollectionSink, "collect", platform.Logarithmic, 1, format)
	return b.MustBuild()
}

// SimWords builds the 26-operator similar-word clustering query: the
// Word2NVec preprocessing followed by an iterative k-means-style clustering
// of the word vectors (Table II row 3).
func SimWords(bytes float64) *plan.Logical {
	const (
		tupleBytes = 140
		centroids  = 100
		iterations = 10
	)
	b := plan.NewBuilder(tupleBytes)
	src := b.Source(platform.TextFileSource, "wikipedia", bytes/tupleBytes)
	sentences := b.Add(platform.FlatMap, "split-sentences", platform.Linear, 2, src)
	words := b.Add(platform.FlatMap, "split-words", platform.Linear, 8, sentences)
	noStop := b.Add(platform.Filter, "drop-stopwords", platform.Logarithmic, 0.6, words)
	lower := b.Add(platform.Map, "lowercase", platform.Logarithmic, 1, noStop)
	neigh := b.Add(platform.Map, "neighborhood", platform.Quadratic, 1, lower)
	pairs := b.Add(platform.FlatMap, "emit-pairs", platform.Linear, 4, neigh)
	vecs := b.Add(platform.Map, "pair-to-vector", platform.Linear, 1, pairs)
	merged := b.Add(platform.ReduceBy, "merge-vectors", platform.Linear, 0.02, vecs)
	minc := b.Add(platform.Filter, "min-count", platform.Logarithmic, 0.7, merged)
	norm := b.Add(platform.Map, "normalize", platform.Linear, 1, minc)
	dedup := b.Add(platform.Distinct, "distinct-words", platform.Linear, 0.9, norm)
	initC := b.Add(platform.Map, "init-centroids", platform.Logarithmic, 1, dedup)

	vecCard := cardOf(b, initC)
	assign := b.Add(platform.Map, "assign-cluster", platform.Quadratic, 1, initC)
	contrib := b.Add(platform.Map, "centroid-contrib", platform.Linear, 1, assign)
	newCent := b.Add(platform.ReduceBy, "recompute-centroids", platform.Linear, selTo(vecCard, centroids), contrib)
	bcast := b.Add(platform.Broadcast, "broadcast-centroids", platform.Logarithmic, 1, newCent)
	upd := b.Add(platform.Map, "update-state", platform.Logarithmic, 1, bcast)
	conv := b.Add(platform.Map, "convergence-delta", platform.Logarithmic, 1, upd)
	keep := b.Add(platform.Filter, "moved-centroids", platform.Logarithmic, 1, conv)
	stat := b.Add(platform.Map, "iteration-stats", platform.Logarithmic, 1, keep)
	b.Loop(iterations, assign, contrib, newCent, bcast, upd, conv, keep, stat)

	members := b.Add(platform.Map, "cluster-members", platform.Linear, 1, stat)
	sortC := b.Add(platform.Sort, "sort-clusters", platform.Linear, 1, members)
	top := b.Add(platform.Filter, "top-clusters", platform.Logarithmic, 0.5, sortC)
	format := b.Add(platform.Map, "format", platform.Logarithmic, 1, top)
	b.Add(platform.CollectionSink, "collect", platform.Logarithmic, 1, format)
	return b.MustBuild()
}

// Aggregate builds TPC-H Q1, the 7-operator scan-heavy aggregation query
// (Table II row 4; the "Aggregate" of Figures 2 and 11d).
func Aggregate(bytes float64) *plan.Logical {
	const tupleBytes = 160 // a lineitem row
	b := plan.NewBuilder(tupleBytes)
	src := b.Source(platform.TableSource, "lineitem", bytes/tupleBytes)
	filt := b.Add(platform.Filter, "shipdate<=", platform.Logarithmic, 0.97, src)
	proj := b.Add(platform.Project, "project-agg-cols", platform.Logarithmic, 1, filt)
	agg := b.Add(platform.ReduceBy, "group-by-flags", platform.Linear, 1e-6, proj)
	avg := b.Add(platform.Map, "compute-averages", platform.Logarithmic, 1, agg)
	sorted := b.Add(platform.Sort, "order-by", platform.Linear, 1, avg)
	b.Add(platform.CollectionSink, "collect", platform.Logarithmic, 1, sorted)
	return b.MustBuild()
}

// Join builds TPC-H Q3, the 18-operator three-way join query (Table II
// row 5; the "Join" of Figures 11e and 13).
func Join(bytes float64) *plan.Logical {
	const tupleBytes = 150
	// TPC-H relative table sizes: lineitem dominates; customer and orders
	// are roughly 1/60 and 1/4 of it.
	liCard := bytes / tupleBytes
	b := plan.NewBuilder(tupleBytes)

	cust := b.Source(platform.TableSource, "customer", liCard/60)
	cFilt := b.Add(platform.Filter, "mktsegment=", platform.Logarithmic, 0.2, cust)
	cProj := b.Add(platform.Project, "c-project", platform.Logarithmic, 1, cFilt)

	ord := b.Source(platform.TableSource, "orders", liCard/4)
	oFilt := b.Add(platform.Filter, "orderdate<", platform.Logarithmic, 0.48, ord)
	oProj := b.Add(platform.Project, "o-project", platform.Logarithmic, 1, oFilt)

	li := b.Source(platform.TableSource, "lineitem", liCard)
	lFilt := b.Add(platform.Filter, "shipdate>", platform.Logarithmic, 0.54, li)
	lProj := b.Add(platform.Project, "l-project", platform.Logarithmic, 1, lFilt)

	co := b.Add(platform.Join, "customer-orders", platform.Linear, 0.2, cProj, oProj)
	coProj := b.Add(platform.Project, "co-project", platform.Logarithmic, 1, co)
	col := b.Add(platform.Join, "co-lineitem", platform.Linear, 0.3, coProj, lProj)
	colProj := b.Add(platform.Project, "col-project", platform.Logarithmic, 1, col)
	rev := b.Add(platform.Project, "revenue-expr", platform.Logarithmic, 1, colProj)
	agg := b.Add(platform.ReduceBy, "group-by-order", platform.Linear, 0.2, rev)
	top := b.Add(platform.Sort, "order-by-revenue", platform.Linear, 1, agg)
	lim := b.Add(platform.Filter, "limit", platform.Logarithmic, 0.001, top)
	b.Add(platform.CollectionSink, "collect", platform.Logarithmic, 1, lim)
	return b.MustBuild()
}

// KmeansParams parameterizes the K-means query (Figure 12a varies the
// number of centroids).
type KmeansParams struct {
	Centroids  int
	Iterations int
}

// DefaultKmeans matches the single-platform experiments of Figure 11f.
var DefaultKmeans = KmeansParams{Centroids: 100, Iterations: 10}

// Kmeans builds the 7-operator iterative clustering query (Table II row 6).
// The Broadcast of the recomputed centroids inside the loop is the operator
// whose platform choice produces the paper's 7x multi-platform win.
func Kmeans(bytes float64, p KmeansParams) *plan.Logical {
	const tupleBytes = 36 // a USCensus1990 row projected to numeric features
	b := plan.NewBuilder(tupleBytes)
	src := b.Source(platform.TextFileSource, "uscensus", bytes/tupleBytes)
	points := b.Add(platform.Map, "parse-point", platform.Linear, 1, src)

	assign := b.Add(platform.Map, "nearest-centroid", platform.Linear, 1, points)
	newCent := b.Add(platform.ReduceBy, "average-centroids", platform.Linear,
		selTo(cardOf(b, assign), p.Centroids), assign)
	bcast := b.Add(platform.Broadcast, "broadcast-centroids", platform.Logarithmic, 1, newCent)
	b.Loop(p.Iterations, assign, newCent, bcast)

	label := b.Add(platform.Map, "label-points", platform.Logarithmic, 1, bcast)
	b.Add(platform.CollectionSink, "collect", platform.Logarithmic, 1, label)
	return b.MustBuild()
}

// SGDParams parameterizes the SGD query (Figure 12b varies the batch size).
type SGDParams struct {
	BatchSize  int
	Iterations int
}

// DefaultSGD matches the single-platform experiments of Figure 11g.
var DefaultSGD = SGDParams{BatchSize: 100, Iterations: 50}

// SGD builds the 6-operator stochastic-gradient-descent query (Table II
// row 7). The logical plan places a Cache before the ShufflePartitionSample
// — the plan detail whose platform assignment separates Robopt from RHEEMix
// in Figure 12b.
func SGD(bytes float64, p SGDParams) *plan.Logical {
	const tupleBytes = 600 // a HIGGS row
	b := plan.NewBuilder(tupleBytes)
	src := b.Source(platform.TextFileSource, "higgs", bytes/tupleBytes)
	cache := b.Add(platform.Cache, "cache-training-set", platform.Logarithmic, 1, src)
	sample := b.Add(platform.Sample, "shuffle-partition-sample", platform.Logarithmic,
		selTo(cardOf(b, cache), p.BatchSize), cache)
	grad := b.Add(platform.Map, "compute-gradient", platform.Quadratic, 1, sample)
	upd := b.Add(platform.ReduceBy, "update-weights", platform.Linear, selTo(float64(p.BatchSize), 1), grad)
	b.Loop(p.Iterations, sample, grad, upd)
	b.Add(platform.CollectionSink, "collect-model", platform.Logarithmic, 1, upd)
	return b.MustBuild()
}

// CrocoPRParams parameterizes cross-community PageRank (Figure 12c/d varies
// the iterations).
type CrocoPRParams struct {
	Iterations int
	// InPostgres models the CrocoPR-PG variant: the DBpedia dump resides
	// in Postgres and must be cleaned of null values there first.
	InPostgres bool
}

// DefaultCrocoPR matches the single-platform experiments of Figure 11h.
var DefaultCrocoPR = CrocoPRParams{Iterations: 10}

// CrocoPR builds the 22-operator cross-community PageRank query (Table II
// row 8): heavy preprocessing that encodes pages as compact integers,
// followed by an iterative rank computation over the much smaller encoded
// graph — the shape that makes a Flink-preprocess + Java-iterate plan win.
func CrocoPR(bytes float64, p CrocoPRParams) *plan.Logical {
	const tupleBytes = 300 // a DBpedia triple line
	b := plan.NewBuilder(tupleBytes)
	var cleaned plan.OpID
	if p.InPostgres {
		src := b.Source(platform.TableSource, "dbpedia-table", bytes/tupleBytes)
		cleaned = b.Add(platform.Filter, "drop-nulls", platform.Logarithmic, 0.9, src)
	} else {
		src := b.Source(platform.TextFileSource, "dbpedia-hdfs", bytes/tupleBytes)
		cleaned = b.Add(platform.Filter, "well-formed", platform.Logarithmic, 0.9, src)
	}
	links := b.Add(platform.FlatMap, "parse-links", platform.Linear, 2, cleaned)
	pages := b.Add(platform.Map, "extract-pages", platform.Logarithmic, 1, links)
	uniq := b.Add(platform.Distinct, "distinct-pages", platform.Linear, 0.1, pages)
	enc := b.Add(platform.Map, "encode-as-int", platform.Linear, 1, uniq)
	adj := b.Add(platform.ReduceBy, "adjacency-lists", platform.Linear, 0.5, enc)
	init := b.Add(platform.Map, "init-ranks", platform.Logarithmic, 1, adj)

	contrib := b.Add(platform.FlatMap, "contributions", platform.Linear, 3, init)
	sum := b.Add(platform.ReduceBy, "sum-contribs", platform.Linear, 0.33, contrib)
	damp := b.Add(platform.Map, "damping", platform.Logarithmic, 1, sum)
	dangle := b.Add(platform.Map, "dangling-mass", platform.Logarithmic, 1, damp)
	redist := b.Add(platform.Map, "redistribute", platform.Logarithmic, 1, dangle)
	delta := b.Add(platform.Map, "rank-delta", platform.Logarithmic, 1, redist)
	conv := b.Add(platform.Filter, "converged?", platform.Logarithmic, 1, delta)
	norm := b.Add(platform.Map, "normalize-ranks", platform.Logarithmic, 1, conv)
	stats := b.Add(platform.Map, "iteration-stats", platform.Logarithmic, 1, norm)
	b.Loop(p.Iterations, contrib, sum, damp, dangle, redist, delta, conv, norm, stats)

	decode := b.Add(platform.Map, "decode-pages", platform.Linear, 1, stats)
	community := b.Add(platform.Map, "community-ranks", platform.Linear, 1, decode)
	sorted := b.Add(platform.Sort, "top-ranks", platform.Linear, 1, community)
	format := b.Add(platform.Map, "format", platform.Logarithmic, 1, sorted)
	b.Add(platform.CollectionSink, "collect", platform.Logarithmic, 1, format)
	return b.MustBuild()
}

// cardOf returns the output cardinality an already-added operator will have,
// by building against a scratch copy. It lets selectivities express absolute
// output sizes (e.g. "exactly k centroids").
func cardOf(b *plan.Builder, id plan.OpID) float64 {
	l, err := b.Peek()
	if err != nil {
		return 1
	}
	return l.Op(id).OutputCard
}

// selTo converts an absolute target output cardinality into a selectivity
// relative to the input cardinality.
func selTo(inCard float64, target int) float64 {
	if inCard <= 0 {
		return 1
	}
	s := float64(target) / inCard
	if s > 1 {
		return 1
	}
	return s
}

// Query describes one Table II entry.
type Query struct {
	Name        string
	Description string
	Operators   int
	Dataset     string
	MinBytes    float64
	MaxBytes    float64
	Build       func(bytes float64) *plan.Logical
}

// Catalog returns the Table II query inventory.
func Catalog() []Query {
	return []Query{
		{"WordCount", "count distinct words", 6, "Wikipedia", 30 * MB, 1 * TB, WordCount},
		{"Word2NVec", "word neighborhood vectors", 14, "Wikipedia", 3 * MB, 3 * GB, Word2NVec},
		{"SimWords", "clustering of similar words", 26, "Wikipedia", 3 * MB, 3 * GB, SimWords},
		{"TPC-H Q1", "aggregate query", 7, "TPC-H", 1 * GB, 1 * TB, Aggregate},
		{"TPC-H Q3", "join query", 18, "TPC-H", 1 * GB, 1 * TB, Join},
		{"Kmeans", "clustering", 7, "USCensus1990", 36 * MB, 1 * TB,
			func(bytes float64) *plan.Logical { return Kmeans(bytes, DefaultKmeans) }},
		{"SGD", "stochastic gradient descent", 6, "HIGGS", 740 * MB, 1 * TB,
			func(bytes float64) *plan.Logical { return SGD(bytes, DefaultSGD) }},
		{"CrocoPR", "cross-community pagerank", 22, "DBpedia", 200 * MB, 1 * TB,
			func(bytes float64) *plan.Logical { return CrocoPR(bytes, DefaultCrocoPR) }},
	}
}

// ByName returns the catalog entry with the given name.
func ByName(name string) (Query, error) {
	for _, q := range Catalog() {
		if q.Name == name {
			return q, nil
		}
	}
	return Query{}, fmt.Errorf("workload: unknown query %q", name)
}
