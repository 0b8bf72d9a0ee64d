package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterVecBasics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("reqs", "endpoint", "outcome")
	v.With("optimize", "ok").Add(2)
	v.With("optimize", "ok").Inc()
	v.With("batch", "shed").Inc()
	snap := v.snapshot()
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
	snap := v.snapshot()
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
	snap := v.snapshot()
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
	for _, c := range v.snapshot() {
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
