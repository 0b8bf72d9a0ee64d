package obs

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// seriesOf reads a family's series through get, keyed by label block.
func seriesOf[T, V any](f *family[T], get func(*T) V) map[string]V {
	out := map[string]V{}
	for _, s := range readAll(map[string]*family[T]{"": f}, get) {
		out[s.labels] = s.v
	}
	return out
}

func TestCounterVecBasics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("reqs", "endpoint", "outcome")
	v.With("optimize", "ok").Add(2)
	v.With("optimize", "ok").Inc()
	v.With("batch", "shed").Inc()
	snap := seriesOf(v, (*Counter).Load)
	if snap[`endpoint="optimize",outcome="ok"`] != 3 {
		t.Errorf("optimize/ok = %d, want 3", snap[`endpoint="optimize",outcome="ok"`])
	}
	if snap[`endpoint="batch",outcome="shed"`] != 1 {
		t.Errorf("batch/shed = %d, want 1", snap[`endpoint="batch",outcome="shed"`])
	}
	if got := r.CounterVec("reqs", "ignored"); got != v {
		t.Error("second CounterVec call should return the registered vec")
	}
}

func TestVecArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on label arity mismatch")
		}
	}()
	NewRegistry().CounterVec("reqs", "a", "b").With("only-one")
}

func TestVecCardinalityBound(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("reqs", "id")
	for i := 0; i < DefaultMaxSeries+50; i++ {
		v.With(fmt.Sprintf("v%d", i)).Inc()
	}
	snap := seriesOf(v, (*Counter).Load)
	// The cap plus at most one overflow series.
	if len(snap) > DefaultMaxSeries+1 {
		t.Errorf("series count %d exceeds bound %d", len(snap), DefaultMaxSeries+1)
	}
	over := snap[`id="other"`]
	if over != 50 {
		t.Errorf("overflow series = %d, want 50", over)
	}
	var total int64
	for _, c := range snap {
		total += c
	}
	if total != int64(DefaultMaxSeries+50) {
		t.Errorf("total across series = %d, want %d (no observation lost)", total, DefaultMaxSeries+50)
	}
}

func TestHistogramVecExemplar(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("lat_ms", "endpoint")
	v.With("optimize").ObserveExemplar(3, "deadbeefdeadbeefdeadbeefdeadbeef")
	v.With("optimize").Observe(0.2)
	snap := seriesOf(v, (*Histogram).Snapshot)
	hs := snap[`endpoint="optimize"`]
	if hs.Count != 2 {
		t.Fatalf("count = %d, want 2", hs.Count)
	}
	var found bool
	for _, b := range hs.Le {
		if b.Exemplar != nil {
			found = true
			if b.Exemplar.TraceID != "deadbeefdeadbeefdeadbeefdeadbeef" || b.Exemplar.Value != 3 {
				t.Errorf("exemplar = %+v", b.Exemplar)
			}
		}
	}
	if !found {
		t.Error("no exemplar surfaced in snapshot")
	}
}

func TestEscapeLabel(t *testing.T) {
	key := func(v string) string { return string(appendSeriesKey(nil, []string{"k"}, []string{v})) }
	if got := key(`plain`); got != `k="plain"` {
		t.Errorf("plain rendered as %q", got)
	}
	if got := key("a\"b\\c\nd"); got != `k="a\"b\\c\nd"` {
		t.Errorf("escaped to %q", got)
	}
}

// TestVecLookupDoesNotAllocate: finding an existing series — three times per
// served request — builds no key string.
func TestVecLookupDoesNotAllocate(t *testing.T) {
	v := NewRegistry().CounterVec("reqs", "endpoint", "outcome", "cache")
	v.With("optimize", "ok", "hit").Inc()
	if n := testing.AllocsPerRun(100, func() { v.With("optimize", "ok", "hit").Inc() }); n != 0 {
		t.Errorf("With on an existing series allocates %.0f times", n)
	}
}

// TestPlainLookupDoesNotAllocate: a plain instrument is the unlabeled
// family's one series, handed out from a field — looking up an existing name
// builds no key and allocates nothing, nor does finding an existing family.
func TestPlainLookupDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Inc()
	r.Gauge("depth").Set(1)
	r.Histogram("ms").Observe(1)
	r.CounterVec("reqs", "endpoint", "outcome").With("optimize", "ok").Inc()
	n := testing.AllocsPerRun(100, func() {
		r.Counter("hits").Inc()
		r.Gauge("depth").Add(1)
		r.Histogram("ms").Observe(2)
		r.CounterVec("reqs", "endpoint", "outcome").With("optimize", "ok").Inc()
	})
	if n != 0 {
		t.Errorf("lookups of existing names allocate %.0f times", n)
	}
}

func BenchmarkCounterLookup(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 60; i++ {
		r.Counter(fmt.Sprintf("counter_%d_total", i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("counter_7_total").Inc()
	}
}

// TestSchemaConflictPanics: one name is one family with one label schema. A
// second lookup under another schema gets the registered family, and using it
// panics instead of silently creating a second instrument under the name.
func TestSchemaConflictPanics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		first  func(r *Registry)
		second func(r *Registry)
	}{
		{"plain then vec", func(r *Registry) { r.Counter("x").Inc() }, func(r *Registry) { r.CounterVec("x", "endpoint").With("a") }},
		{"vec then plain", func(r *Registry) { r.HistogramVec("x", "endpoint").With("a") }, func(r *Registry) { r.Histogram("x") }},
		{"two vecs", func(r *Registry) { r.GaugeVec("x", "a", "b").With("1", "2") }, func(r *Registry) { r.GaugeVec("x", "c").With("3") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			tc.first(r)
			defer func() {
				if recover() == nil {
					t.Errorf("second schema for one name did not panic; snapshot %+v", r.Snapshot())
				}
			}()
			tc.second(r)
		})
	}
}

// TestSnapshotMatchesExposition: Snapshot and WritePrometheus read one shape,
// so they name the same series — plain, labeled, overflowed, gauge-family and
// exemplar-carrying alike.
func TestSnapshotMatchesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total").Add(3)
	r.Gauge("queue_depth").Set(2)
	r.Histogram("optimize_ms").Observe(5)
	cv := r.CounterVec("served_total", "endpoint")
	for i := 0; i < DefaultMaxSeries+3; i++ {
		cv.With(fmt.Sprintf("e%d", i)).Inc()
	}
	r.GaugeVec("burn_rate", "window").With("1m0s").Set(0.5)
	r.GaugeVec("burn_rate", "window").With("5m0s").Set(1.5)
	hv := r.HistogramVec("latency_ms", "endpoint")
	hv.With("optimize").ObserveExemplar(3, "4bf92f3577b34da6a3ce929d0e0e4736")
	hv.With("batch").Observe(40)

	snap := r.Snapshot()
	keys := map[string]bool{}
	for k := range snap.Counters {
		keys[k] = true
	}
	for k := range snap.Gauges {
		keys[k] = true
	}
	for k := range snap.Histograms {
		keys[k] = true
	}
	if !keys[`served_total{endpoint="other"}`] {
		t.Fatalf("overflow series missing from the snapshot")
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	le := regexp.MustCompile(`\{le="[^"]*"\}|,le="[^"]*"`)
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, _, _ := strings.Cut(line, " ")
		series = le.ReplaceAllString(series, "")
		i := strings.IndexByte(series, '{')
		if i < 0 {
			i = len(series)
		}
		name, block := series[:i], series[i:]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok {
				if _, hist := snap.Histograms[base+block]; hist {
					name = base
				}
			}
		}
		if !keys[name+block] {
			t.Errorf("exposition sample %q (series %q) is not a snapshot key", line, name+block)
		}
		seen[name+block] = true
	}
	for k := range keys {
		if !seen[k] {
			t.Errorf("snapshot key %q is missing from the exposition", k)
		}
	}
}

func TestRegistrySnapshotIncludesLabeled(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("reqs", "endpoint").With("optimize").Add(4)
	r.HistogramVec("lat", "endpoint").With("optimize").Observe(1)
	s := r.Snapshot()
	if s.Counters[`reqs{endpoint="optimize"}`] != 4 {
		t.Errorf("labeled counter missing from snapshot: %v", s.Counters)
	}
	if s.Histograms[`lat{endpoint="optimize"}`].Count != 1 {
		t.Errorf("labeled histogram missing from snapshot")
	}
}

func TestVecConcurrency(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("reqs", "k")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v.With(fmt.Sprintf("v%d", i%4)).Inc()
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, c := range seriesOf(v, (*Counter).Load) {
		total += c
	}
	if total != 8000 {
		t.Errorf("total = %d, want 8000", total)
	}
}

func TestWritePrometheusLabeledOrder(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("reqs", "endpoint")
	v.With("zeta").Inc()
	v.With("alpha").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	ia := strings.Index(out, `reqs{endpoint="alpha"}`)
	iz := strings.Index(out, `reqs{endpoint="zeta"}`)
	if ia < 0 || iz < 0 || ia > iz {
		t.Errorf("series not in sorted label order:\n%s", out)
	}
	if strings.Count(out, "# TYPE reqs counter") != 1 {
		t.Errorf("want exactly one TYPE line per family:\n%s", out)
	}
}
