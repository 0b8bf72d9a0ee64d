// Package obs provides the lightweight observability primitives the
// optimizer service exposes on /metricz: lock-free counters, fixed-bucket
// histograms, settable gauges, a named registry with JSON-ready snapshots,
// and per-stage span timings for the optimization pipeline (vectorize,
// enumerate, merge, prune, unvectorize).
//
// Everything is safe for concurrent use from request handlers and from the
// enumeration worker goroutines; observation is a handful of atomic
// operations, cheap enough to stay enabled in production.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d may be any nonnegative delta; negative deltas are ignored to
// keep the counter monotone).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value: buffer fill levels, the active
// model's training-set size, last-event timestamps. Reads and writes are
// single atomic operations.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Add atomically adds d to the gauge (CAS loop; d may be negative). This is
// what up/down occupancy gauges — queue depths, in-flight request counts —
// use, where concurrent increments and decrements must not lose updates the
// way a Load+Set pair would.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// numBuckets is the fixed number of histogram buckets. Bucket i collects
// values in (2^(i-1), 2^i]; bucket 0 collects everything ≤ 1 and the last
// bucket is a catch-all for the long tail. With 40 buckets the histogram
// spans twelve decades — microseconds to hours when observing milliseconds.
const numBuckets = 40

// Exemplar ties a recent observation to the trace that produced it: the
// operational bridge from a histogram bucket ("p99 spiked") to a retained
// trace ("this request is why"). Stored per bucket, last writer wins.
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"traceId"`
}

// Histogram is a fixed-layout exponential histogram. Observations and
// snapshots are lock-free; the float64 sum is a Gauge's CAS loop. There is no
// separate count: the buckets are the count, so every number a read derives
// agrees with the buckets it read. Each bucket optionally retains the
// exemplar of its most recent traced observation (ObserveExemplar).
type Histogram struct {
	sum       Gauge
	buckets   [numBuckets]atomic.Int64
	exemplars [numBuckets]atomic.Pointer[Exemplar]
}

// bucketOf maps a value to its bucket index.
func bucketOf(v float64) int {
	if v <= 1 {
		return 0
	}
	b := int(math.Ceil(math.Log2(v)))
	if b >= numBuckets {
		return numBuckets - 1
	}
	return b
}

// Observe records one value. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// ObserveExemplar records one value and, when traceID is non-empty, stamps
// it as the exemplar of the value's bucket — a plain Observe otherwise. The
// caller passes a trace ID only for runs whose trace was actually retained,
// and the registry drops exemplars whose trace has since been evicted
// (ResolveExemplars), so every exposed exemplar is resolvable via
// /tracez?id=.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" || math.IsNaN(v) {
		return
	}
	h.exemplars[bucketOf(v)].Store(&Exemplar{Value: v, TraceID: traceID})
}

// load reads every bucket once and returns them with their total.
func (h *Histogram) load() (b [numBuckets]int64, total int64) {
	for i := range b {
		b[i] = h.buckets[i].Load()
		total += b[i]
	}
	return b, total
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	_, n := h.load()
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts.
// The estimator locates the bucket containing the rank ⌈q·count⌉ and
// linearly interpolates within it, assuming observations are uniformly
// distributed across the bucket's range (lower bound 0 for the first
// bucket, 2^(i-1) otherwise; upper bound 2^i): the estimate is
//
//	lower + (upper-lower) · (rank - countBefore) / bucketCount
//
// which is exact for uniformly filled buckets and bounded by the bucket
// edges otherwise — strictly tighter than the upper-bound attribution it
// replaces. Values in the catch-all last bucket still report its lower
// power-of-two scaled by the same interpolation. Returns 0 on an empty
// histogram.
func (h *Histogram) Quantile(q float64) float64 {
	b, n := h.load()
	return quantile(&b, n, q)
}

// quantile is Quantile over one read of the buckets.
func quantile(b *[numBuckets]int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := math.Ceil(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range b {
		if n > 0 && float64(seen+n) >= rank {
			upper := math.Pow(2, float64(i))
			lower := 0.0
			if i > 0 {
				lower = math.Pow(2, float64(i-1))
			}
			return lower + (upper-lower)*(rank-float64(seen))/float64(n)
		}
		seen += n
	}
	return math.Pow(2, float64(numBuckets-1))
}

// HistogramSnapshot is the JSON-ready state of a histogram. Buckets lists
// only the non-empty buckets as {le, count} pairs with cumulative counts,
// prometheus-style.
type HistogramSnapshot struct {
	Count int64          `json:"count"`
	Sum   float64        `json:"sum"`
	Avg   float64        `json:"avg"`
	P50   float64        `json:"p50"`
	P90   float64        `json:"p90"`
	P99   float64        `json:"p99"`
	Le    []BucketOfHist `json:"buckets,omitempty"`
}

// BucketOfHist is one cumulative histogram bucket: Count observations were
// ≤ Le. Exemplar, when present, names a retained trace whose observation
// landed in this (non-cumulative) bucket.
type BucketOfHist struct {
	Le       float64   `json:"le"`
	Count    int64     `json:"count"`
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// Snapshot returns a copy for reporting. Count, the quantiles and the
// cumulative buckets come from one read of the buckets, so the last bucket
// always equals Count; Sum is read separately and may be off by the
// observations that land in between, which is fine for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	b, total := h.load()
	s := HistogramSnapshot{Count: total, Sum: h.Sum()}
	if s.Count > 0 {
		s.Avg = s.Sum / float64(s.Count)
	}
	s.P50, s.P90, s.P99 = quantile(&b, total, 0.50), quantile(&b, total, 0.90), quantile(&b, total, 0.99)
	var cum int64
	for i, n := range b {
		if n > 0 {
			cum += n
			s.Le = append(s.Le, BucketOfHist{Le: math.Pow(2, float64(i)), Count: cum, Exemplar: h.exemplars[i].Load()})
		}
	}
	return s
}

// Registry is a named collection of metric families, one map per instrument
// kind (see labeled.go). Lookups are get-or-create and safe for concurrent
// use; names are stable identifiers reported verbatim on /metricz.
//
// A nil *Registry is the registry of a component whose metrics nobody reads:
// every lookup hands out a detached instrument that works but is registered
// nowhere (see lookup), and Snapshot and WritePrometheus report nothing.
// Two lookups of one name on a nil registry are therefore two instruments:
// code that reads back what it counted resolves its handle once and keeps it.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*CounterVec
	gauges     map[string]*GaugeVec
	histograms map[string]*HistogramVec
	// resolves, when set, reports whether a trace ID can still be looked
	// up; snapshots drop the exemplars for which it cannot.
	resolves func(traceID string) bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*CounterVec{},
		gauges:     map[string]*GaugeVec{},
		histograms: map[string]*HistogramVec{},
	}
}

// Counter returns the counter registered under name — the one series of the
// unlabeled family of that name — creating it on first use.
func (r *Registry) Counter(name string) *Counter { return r.CounterVec(name).With() }

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeVec(name).With() }

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram { return r.HistogramVec(name).With() }

// CounterVec returns the counter family registered under name, creating it on
// first use with the given label schema.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	return lookup(r, func(r *Registry) map[string]*CounterVec { return r.counters }, name, labels)
}

// GaugeVec returns the gauge family registered under name, creating it on
// first use with the given label schema.
func (r *Registry) GaugeVec(name string, labels ...string) *GaugeVec {
	return lookup(r, func(r *Registry) map[string]*GaugeVec { return r.gauges }, name, labels)
}

// HistogramVec returns the histogram family registered under name, creating
// it on first use with the given label schema.
func (r *Registry) HistogramVec(name string, labels ...string) *HistogramVec {
	return lookup(r, func(r *Registry) map[string]*HistogramVec { return r.histograms }, name, labels)
}

// ResolveExemplars makes Snapshot and WritePrometheus drop every exemplar
// whose trace ID resolves reports false. A bucket keeps its exemplar until a
// later traced observation replaces it, which can be long after a bounded
// trace store evicted the trace; filtering when the metrics are read is what
// keeps every exposed exemplar a working link.
func (r *Registry) ResolveExemplars(resolves func(traceID string) bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.resolves = resolves
	r.mu.Unlock()
}

// read takes every series' reading, the one read path behind Snapshot and
// WritePrometheus, and drops the exemplars that no longer resolve.
func (r *Registry) read() (cs []reading[int64], gs []reading[float64], hs []reading[HistogramSnapshot]) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cs = readAll(r.counters, (*Counter).Load)
	gs = readAll(r.gauges, (*Gauge).Load)
	hs = readAll(r.histograms, (*Histogram).Snapshot)
	if r.resolves != nil {
		for _, h := range hs {
			for i, b := range h.v.Le {
				if b.Exemplar != nil && !r.resolves(b.Exemplar.TraceID) {
					h.v.Le[i].Exemplar = nil
				}
			}
		}
	}
	return cs, gs, hs
}

// Snapshot is the JSON-ready state of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
}

// Snapshot captures every registered metric (Go maps marshal in sorted key
// order). Labeled series appear under their full exposition name —
// `family{k="v",...}` — so JSON consumers see one flat namespace.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		r = NewRegistry()
	}
	cs, gs, hs := r.read()
	return Snapshot{Counters: flatten(cs), Histograms: flatten(hs), Gauges: flatten(gs)}
}

// flatten keys readings by their flat series name.
func flatten[V any](rs []reading[V]) map[string]V {
	m := make(map[string]V, len(rs))
	for _, s := range rs {
		m[s.key()] = s.v
	}
	return m
}

// StageTimings records the wall-clock time one optimization spent in each
// pipeline stage. It is the span-level breakdown behind Figure 9's latency
// totals: vectorization, singleton enumeration, the cartesian merges, the
// pruning (dominated by model calls), and the final unvectorization.
type StageTimings struct {
	Vectorize   time.Duration
	Enumerate   time.Duration
	Merge       time.Duration
	Prune       time.Duration
	Unvectorize time.Duration

	// Infer is the wall-clock time spent inside batched model inference
	// (the already-scored check included). It is a sub-span, not a stage:
	// inference runs inside the prune stage and the final plan selection,
	// so Infer is excluded from Total() to keep the stages additive.
	Infer time.Duration
}

// Add accumulates o into t.
func (t *StageTimings) Add(o StageTimings) {
	t.Vectorize += o.Vectorize
	t.Enumerate += o.Enumerate
	t.Merge += o.Merge
	t.Prune += o.Prune
	t.Unvectorize += o.Unvectorize
	t.Infer += o.Infer
}

// Total returns the sum over all pipeline stages (Infer overlaps them and
// is not added).
func (t StageTimings) Total() time.Duration {
	return t.Vectorize + t.Enumerate + t.Merge + t.Prune + t.Unvectorize
}

// Milliseconds renders the timings as a stage→ms map for JSON replies.
func (t StageTimings) Milliseconds() map[string]float64 {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	return map[string]float64{
		"vectorize":   ms(t.Vectorize),
		"enumerate":   ms(t.Enumerate),
		"merge":       ms(t.Merge),
		"prune":       ms(t.Prune),
		"unvectorize": ms(t.Unvectorize),
		"infer":       ms(t.Infer),
	}
}
