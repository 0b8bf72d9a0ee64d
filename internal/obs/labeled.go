package obs

import (
	"sort"
	"sync"
)

// This file adds labeled metric families — CounterVec and HistogramVec — to
// the registry. A vec is one metric family with a fixed label schema; each
// distinct label-value combination is one series. Series are get-or-create
// behind an RWMutex whose read path is the steady state (the set of label
// values a server emits stabilizes within the first few requests), so
// observation stays lock-cheap.
//
// Cardinality is bounded by construction: every vec caps its series count
// (DefaultMaxSeries unless overridden) and folds observations beyond the cap
// into a single overflow series whose label values are all "other". A
// runaway label (say, a client-controlled string reaching a label position)
// therefore degrades one metric family's resolution instead of growing the
// registry without bound.

// DefaultMaxSeries is a vec's series cap when none is configured: past it,
// new label-value combinations collapse into the overflow series.
const DefaultMaxSeries = 64

// overflowValue is the label value every position takes in a vec's overflow
// series.
const overflowValue = "other"

// appendSeriesKey renders label names and values into the canonical
// exposition form `k1="v1",k2="v2"` — the map key and, verbatim, the label
// block of the Prometheus series, so series sort deterministically by their
// rendered labels. Values are escaped per the Prometheus text format:
// backslash, double quote and newline.
func appendSeriesKey(b []byte, labels, values []string) []byte {
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l...)
		b = append(b, '=', '"')
		for j := 0; j < len(values[i]); j++ {
			switch c := values[i][j]; c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			default:
				b = append(b, c)
			}
		}
		b = append(b, '"')
	}
	return b
}

// CounterVec is a counter family partitioned by a fixed set of labels.
type CounterVec struct {
	name   string
	labels []string
	max    int

	mu     sync.RWMutex
	series map[string]*Counter
}

// With returns the counter for the given label values (one per label, in
// declaration order), creating it on first use. Past the series cap the
// overflow series is returned instead.
func (v *CounterVec) With(values ...string) *Counter {
	return lookupSeries(&v.mu, v.series, v.labels, values, v.max, func() *Counter { return &Counter{} })
}

// Labels returns the vec's label names in declaration order.
func (v *CounterVec) Labels() []string { return v.labels }

// snapshot copies the series map (rendered label block → value).
func (v *CounterVec) snapshot() map[string]int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]int64, len(v.series))
	for k, c := range v.series {
		out[k] = c.Load()
	}
	return out
}

// HistogramVec is a histogram family partitioned by a fixed set of labels.
// Each series is a full Histogram, exemplars included.
type HistogramVec struct {
	name   string
	labels []string
	max    int

	mu     sync.RWMutex
	series map[string]*Histogram
}

// With returns the histogram for the given label values, creating it on
// first use. Past the series cap the overflow series is returned instead.
func (v *HistogramVec) With(values ...string) *Histogram {
	return lookupSeries(&v.mu, v.series, v.labels, values, v.max, func() *Histogram { return &Histogram{} })
}

// Labels returns the vec's label names in declaration order.
func (v *HistogramVec) Labels() []string { return v.labels }

// snapshot copies the series map (rendered label block → histogram state).
func (v *HistogramVec) snapshot() map[string]HistogramSnapshot {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]HistogramSnapshot, len(v.series))
	for k, h := range v.series {
		out[k] = h.Snapshot()
	}
	return out
}

// lookupSeries is the shared get-or-create path of both vec kinds: RLock
// fast path, write path under the full lock, overflow series past the cap.
// The steady state is a lookup of an existing series, which renders the key
// into a stack buffer and allocates nothing; the key becomes a string only
// when it names a new series.
func lookupSeries[T any](mu *sync.RWMutex, series map[string]T, labels, values []string, max int, fresh func() T) T {
	if len(values) != len(labels) {
		panic("obs: label value count does not match the vec's label schema")
	}
	var buf [128]byte
	key := appendSeriesKey(buf[:0], labels, values)
	mu.RLock()
	s, ok := series[string(key)]
	mu.RUnlock()
	if ok {
		return s
	}
	mu.Lock()
	defer mu.Unlock()
	if s, ok = series[string(key)]; ok {
		return s
	}
	if len(series) >= max {
		// At capacity: fold into the overflow series (creating it counts
		// against nothing — it is the permanent last slot).
		over := make([]string, len(labels))
		for i := range over {
			over[i] = overflowValue
		}
		key = appendSeriesKey(key[:0], labels, over)
		if s, ok = series[string(key)]; ok {
			return s
		}
	}
	s = fresh()
	series[string(key)] = s
	return s
}

// instrument is the shared get-or-create path of all five instrument kinds:
// RLock fast path, re-check and fresh() under the full lock. byName selects
// the registry's map for the kind. A nil registry registers nothing: every
// call hands out a detached instrument that counts and observes like any
// other, which is what makes a Metrics field optional without a guard at each
// increment.
func instrument[T any](r *Registry, name string, byName func() map[string]*T, fresh func() *T) *T {
	if r == nil {
		return fresh()
	}
	r.mu.RLock()
	v, ok := byName()[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := byName()
	if v, ok = m[name]; ok {
		return v
	}
	v = fresh()
	m[name] = v
	return v
}

// CounterVec returns the labeled counter family registered under name,
// creating it on first use with the given label schema and the
// DefaultMaxSeries cardinality bound. The label schema is fixed at creation;
// later calls return the existing vec regardless of the labels passed.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	return instrument(r, name, func() map[string]*CounterVec { return r.cvecs }, func() *CounterVec {
		return &CounterVec{name: name, labels: append([]string(nil), labels...), max: DefaultMaxSeries, series: map[string]*Counter{}}
	})
}

// HistogramVec returns the labeled histogram family registered under name,
// creating it on first use with the given label schema and the
// DefaultMaxSeries cardinality bound.
func (r *Registry) HistogramVec(name string, labels ...string) *HistogramVec {
	return instrument(r, name, func() map[string]*HistogramVec { return r.hvecs }, func() *HistogramVec {
		return &HistogramVec{name: name, labels: append([]string(nil), labels...), max: DefaultMaxSeries, series: map[string]*Histogram{}}
	})
}

// sortedSeriesKeys returns the keys of a series map in exposition order.
func sortedSeriesKeys[T any](m map[string]T) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
