package obs

import "sync"

// This file holds the one shape every metric has: a family — a fixed label
// schema plus its series, keyed by the rendered label block. A plain Counter,
// Gauge or Histogram is the one series of a family with no labels, and a
// dimension is a label, never a suffix spelled into the name. Series are
// get-or-create behind an RWMutex whose read path is the steady state (the set
// of label values a server emits stabilizes within the first few requests), so
// observation stays lock-cheap.
//
// Cardinality is bounded by construction: every family caps its series count
// at DefaultMaxSeries and folds observations beyond the cap into a single
// overflow series whose label values are all "other". A runaway label (say, a
// client-controlled string reaching a label position) therefore degrades one
// metric family's resolution instead of growing the registry without bound.

// DefaultMaxSeries is a family's series cap: past it, new label-value
// combinations collapse into the overflow series.
const DefaultMaxSeries = 64

// overflowValue is the label value every position takes in a family's
// overflow series.
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

// family is one metric family of instruments T.
type family[T any] struct {
	labels []string
	// one is the unlabeled family's only series (nil on a labeled family),
	// so a plain lookup hands it out without rendering a key.
	one *T

	mu     sync.RWMutex
	series map[string]*T // rendered label block → series; "" keys one
}

// CounterVec is a counter family partitioned by a fixed set of labels.
type CounterVec = family[Counter]

// GaugeVec is a gauge family partitioned by a fixed set of labels.
type GaugeVec = family[Gauge]

// HistogramVec is a histogram family partitioned by a fixed set of labels.
// Each series is a full Histogram, exemplars included.
type HistogramVec = family[Histogram]

func newFamily[T any](labels []string) *family[T] {
	f := &family[T]{labels: append([]string(nil), labels...), series: map[string]*T{}}
	if len(labels) == 0 {
		f.one = new(T)
		f.series[""] = f.one
	}
	return f
}

// With returns the series for the given label values (one per label, in
// declaration order), creating it on first use. Past the series cap the
// overflow series is returned instead. The steady state is a lookup of an
// existing series, which renders the key into a stack buffer and allocates
// nothing; the key becomes a string only when it names a new series.
func (f *family[T]) With(values ...string) *T {
	if len(values) != len(f.labels) {
		panic("obs: label value count does not match the family's label schema")
	}
	if f.one != nil {
		return f.one
	}
	var buf [128]byte
	key := appendSeriesKey(buf[:0], f.labels, values)
	f.mu.RLock()
	s, ok := f.series[string(key)]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.series[string(key)]; ok {
		return s
	}
	if len(f.series) >= DefaultMaxSeries {
		// At capacity: fold into the overflow series (creating it counts
		// against nothing — it is the permanent last slot).
		over := make([]string, len(f.labels))
		for i := range over {
			over[i] = overflowValue
		}
		key = appendSeriesKey(key[:0], f.labels, over)
		if s, ok = f.series[string(key)]; ok {
			return s
		}
	}
	s = new(T)
	f.series[string(key)] = s
	return s
}

// lookup returns the family of one instrument kind (the registry map byKind
// selects) registered under name, creating it with labels on first use. The
// label schema is fixed at creation: a later lookup under another schema gets
// the registered family, whose With then panics on the mismatch. A nil
// registry registers nothing: every call hands out a detached family that
// counts and observes like any other, which is what makes a Metrics field
// optional without a guard at each increment.
func lookup[T any](r *Registry, byKind func(*Registry) map[string]*family[T], name string, labels []string) *family[T] {
	if r == nil {
		return newFamily[T](labels)
	}
	r.mu.RLock()
	f, ok := byKind(r)[name]
	r.mu.RUnlock()
	if ok {
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := byKind(r)
	if f, ok = m[name]; !ok {
		f = newFamily[T](labels)
		m[name] = f
	}
	return f
}

// reading is one series' value at read time: its family's name, its rendered
// label block ("" for the unlabeled series) and the value.
type reading[V any] struct {
	name, labels string
	v            V
}

// key is the series' flat name: the family's, followed by the label block in
// braces when there is one — the Snapshot key and the exposition sample name.
func (s reading[V]) key() string {
	if s.labels == "" {
		return s.name
	}
	return s.name + "{" + s.labels + "}"
}

// readAll reads every series of every family in fams through get, in no
// particular order.
func readAll[T, V any](fams map[string]*family[T], get func(*T) V) []reading[V] {
	var out []reading[V]
	for name, f := range fams {
		f.mu.RLock()
		for labels, s := range f.series {
			out = append(out, reading[V]{name, labels, get(s)})
		}
		f.mu.RUnlock()
	}
	return out
}
