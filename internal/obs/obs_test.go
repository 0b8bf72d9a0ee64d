package obs_test

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestCounterConcurrent(t *testing.T) {
	r := obs.NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("hits").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Load(); got != 16000 {
		t.Fatalf("hits = %d, want 16000", got)
	}
	r.Counter("hits").Add(-5)
	if got := r.Counter("hits").Load(); got != 16000 {
		t.Fatalf("negative delta changed the counter: %d", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := &obs.Histogram{}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 5050 {
		t.Fatalf("sum = %g", h.Sum())
	}
	// Quantiles interpolate linearly within the winning bucket: p50 of
	// 1..100 has rank 50 in the (32,64] bucket, which holds ranks 33..64,
	// so the estimate is 32 + 32·(50-32)/32 = 50 — exact here because the
	// bucket is uniformly filled.
	if q := h.Quantile(0.5); q != 50 {
		t.Fatalf("p50 = %g, want 50", q)
	}
	// p25 (rank 25) lands in (16,32] holding ranks 17..32: 16 + 16·(25-16)/16.
	if q := h.Quantile(0.25); q != 25 {
		t.Fatalf("p25 = %g, want 25", q)
	}
	if q := h.Quantile(1); q != 128 {
		t.Fatalf("p100 = %g, want 128", q)
	}
	s := h.Snapshot()
	if s.Le[len(s.Le)-1].Count != 100 {
		t.Fatalf("cumulative tail = %d, want 100", s.Le[len(s.Le)-1].Count)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &obs.Histogram{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(2)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 4000 || h.Sum() != 8000 {
		t.Fatalf("count=%d sum=%g, want 4000/8000", h.Count(), h.Sum())
	}
}

// TestHistogramSnapshotConsistent: a snapshot taken while observations land
// is still a histogram — its last cumulative bucket is its Count, which is
// what the exposition prints as +Inf and _count. Count read apart from the
// buckets let the buckets end above it.
func TestHistogramSnapshotConsistent(t *testing.T) {
	h := &obs.Histogram{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					h.Observe(float64(i%1000 + g))
				}
			}
		}(g)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); {
		s := h.Snapshot()
		if len(s.Le) > 0 && s.Le[len(s.Le)-1].Count != s.Count {
			t.Fatalf("last cumulative bucket %d != count %d", s.Le[len(s.Le)-1].Count, s.Count)
		}
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("requests_total").Add(3)
	r.Histogram("optimize_ms").Observe(12.5)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var round obs.Snapshot
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if round.Counters["requests_total"] != 3 {
		t.Fatalf("counter lost in round trip: %+v", round.Counters)
	}
	if round.Histograms["optimize_ms"].Count != 1 {
		t.Fatalf("histogram lost in round trip: %+v", round.Histograms)
	}
}

// TestNilRegistry: a nil registry is a working sink. Its instruments count
// and observe, nothing is registered — two lookups of one name are two
// instruments — and the read side reports nothing.
func TestNilRegistry(t *testing.T) {
	var r *obs.Registry
	c := r.Counter("hits")
	c.Inc()
	c.Add(2)
	if c.Load() != 3 {
		t.Fatalf("detached counter = %d, want 3", c.Load())
	}
	if other := r.Counter("hits"); other == c || other.Load() != 0 {
		t.Fatalf("a second lookup on a nil registry returned the first instrument (value %d)", other.Load())
	}
	h := r.Histogram("ms")
	h.Observe(4)
	if h.Count() != 1 || h.Sum() != 4 {
		t.Fatalf("detached histogram count=%d sum=%g, want 1/4", h.Count(), h.Sum())
	}
	g := r.Gauge("depth")
	g.Add(2)
	g.Add(-1)
	if g.Load() != 1 {
		t.Fatalf("detached gauge = %g, want 1", g.Load())
	}
	cv := r.CounterVec("served", "endpoint")
	cv.With("optimize").Inc()
	if got := cv.With("optimize").Load(); got != 1 {
		t.Fatalf("detached vec series = %d, want 1 (series live in the vec, not the registry)", got)
	}
	r.HistogramVec("latency", "endpoint").With("optimize").ObserveExemplar(1, "t1")
	r.ResolveExemplars(func(string) bool { return false })

	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Histograms)+len(snap.Gauges) != 0 {
		t.Fatalf("nil registry snapshot reports %+v", snap)
	}
	if snap.Counters == nil || snap.Histograms == nil {
		t.Fatal("nil registry snapshot has nil maps; JSON consumers expect {}")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil registry exposition = %q, err %v; want nothing", b.String(), err)
	}
}

func TestStageTimings(t *testing.T) {
	a := obs.StageTimings{Merge: 2 * time.Millisecond, Prune: 3 * time.Millisecond}
	b := obs.StageTimings{Vectorize: time.Millisecond, Prune: time.Millisecond}
	a.Add(b)
	if a.Total() != 7*time.Millisecond {
		t.Fatalf("total = %v, want 7ms", a.Total())
	}
	ms := a.Milliseconds()
	if ms["prune"] != 4 || ms["vectorize"] != 1 {
		t.Fatalf("milliseconds map wrong: %v", ms)
	}
}

func TestGauge(t *testing.T) {
	r := obs.NewRegistry()
	g := r.Gauge("feedback_buffer_len")
	g.Set(42.5)
	if got := g.Load(); got != 42.5 {
		t.Fatalf("gauge = %g, want 42.5", got)
	}
	if r.Gauge("feedback_buffer_len") != g {
		t.Fatal("Gauge lookup is not stable")
	}
	s := r.Snapshot()
	if s.Gauges["feedback_buffer_len"] != 42.5 {
		t.Fatalf("snapshot gauges = %v", s.Gauges)
	}
}

// TestGaugeAdd: concurrent up/down deltas must not lose updates — the
// admission queue-depth gauge depends on this.
func TestGaugeAdd(t *testing.T) {
	var g obs.Gauge
	g.Set(10)
	g.Add(2.5)
	g.Add(-0.5)
	if got := g.Load(); got != 12 {
		t.Fatalf("gauge after adds = %g, want 12", got)
	}
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := g.Load(); got != 12 {
		t.Fatalf("gauge after balanced concurrent adds = %g, want 12", got)
	}
}
