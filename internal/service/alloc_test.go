package service_test

import (
	"bytes"
	"net/http"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/workload"
)

// reusedWriter is an in-process http.ResponseWriter that is reset between
// requests, so the driver adds no allocations of its own (the benchmark's
// idiom).
type reusedWriter struct {
	hdr  http.Header
	buf  bytes.Buffer
	code int
}

func (w *reusedWriter) Header() http.Header { return w.hdr }
func (w *reusedWriter) WriteHeader(c int)   { w.code = c }
func (w *reusedWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.buf.Write(p)
}
func (w *reusedWriter) reset() {
	clear(w.hdr)
	w.buf.Reset()
	w.code = 0
}

type reusedBody struct{ bytes.Reader }

func (*reusedBody) Close() error { return nil }

// roboptdServer is newServer with roboptd's default deadline, over a plan
// cache configured by cache, serving on one enumeration worker.
func roboptdServer(t testing.TB, cache plancache.Config) http.Handler {
	t.Helper()
	return sampledServer(t, cache, 0.1)
}

// sampledServer is roboptdServer with its tracer sampling at rate: 0 makes
// every unforced trace a summary, 1 every trace detailed.
func sampledServer(t testing.TB, cache plancache.Config, rate float64) http.Handler {
	t.Helper()
	s := newServer(modelProvider(sumModel{}))
	s.DefaultDeadline = 30 * time.Second
	s.Workers = 1
	s.Tracer = obs.NewTracer(obs.DefaultTraceCap, rate, time.Second)
	cache.Metrics = s.Metrics()
	s.PlanCache = plancache.New(cache)
	return s.Handler()
}

// poster returns a function that POSTs body to h's /optimize through one
// reused request, writer and body reader.
func poster(t testing.TB, h http.Handler) (post func(body []byte) *reusedWriter) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, "/optimize", nil)
	if err != nil {
		t.Fatal(err)
	}
	w := &reusedWriter{hdr: http.Header{}}
	var rb reusedBody
	return func(body []byte) *reusedWriter {
		w.reset()
		rb.Reset(body)
		req.Body = &rb
		h.ServeHTTP(w, req)
		return w
	}
}

// warmServer is roboptdServer with a plan cache that already holds the plan
// of body.
func warmServer(t testing.TB, body []byte) (post func() *reusedWriter) {
	t.Helper()
	postTo := poster(t, roboptdServer(t, plancache.Config{}))
	post = func() *reusedWriter { return postTo(body) }
	if w := post(); w.code != http.StatusOK || w.hdr.Get("X-Cache") != "miss" {
		t.Fatalf("cold request: status %d, X-Cache %q: %s", w.code, w.hdr.Get("X-Cache"), w.buf.Bytes())
	}
	return post
}

// TestWarmHitAllocCeiling pins what a cache hit allocates end to end — body
// read, decode, fingerprint, cache read, materialize, respond, account,
// encode — for a 20-operator pipeline. The reflection-based plan decoder
// alone used to allocate more than the whole request does now. It measures
// 35: 37 while admission made a release func and its sync.Once per request,
// 48 while the body was read into a new bytes.Buffer, the reply went
// through encoding/json, the request log boxed its values, a hit's empty
// stage map was made anew and the traceparent lookup canonicalized its key
// (49 while the reply was boxed by value for its encoder); its one-span
// trace is three allocations, not the ten it was while a span and each
// attribute were objects of their own (56 then). The ceiling keeps the 9 of
// headroom it had over 48.
func TestWarmHitAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	body, err := plan.MarshalJSONPlan(workload.Pipeline(20, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	post := warmServer(t, body)
	allocs := testing.AllocsPerRun(200, func() {
		if w := post(); w.code != http.StatusOK || w.hdr.Get("X-Cache") != "hit" {
			t.Fatalf("status %d, X-Cache %q", w.code, w.hdr.Get("X-Cache"))
		}
	})
	const ceiling = 44
	if allocs > ceiling {
		t.Errorf("a warm hit allocates %.0f times, ceiling %d", allocs, ceiling)
	}
	t.Logf("warm hit of Pipeline(20): %.0f allocations", allocs)
}

// coldMissBodies are serving-shaped plans (pipelines, join trees and random
// DAGs) as request bodies.
func coldMissBodies(t testing.TB) [][]byte {
	t.Helper()
	var bodies [][]byte
	for _, l := range []*plan.Logical{
		workload.Pipeline(12, 1e8), workload.Pipeline(20, 1e10), workload.Pipeline(40, 1e8),
		workload.JoinTree(3, 1e8), workload.JoinTree(5, 1e10),
		workload.RandomDAG(14, 1e9, 1), workload.RandomDAG(14, 1e9, 2), workload.RandomDAG(14, 1e9, 3),
	} {
		body, err := plan.MarshalJSONPlan(l)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// coldMisser returns a function that POSTs a body to a server whose tracer
// samples at rate, over a one-entry cache, so coldMissBodies in turn evict
// each other and every request is a miss.
func coldMisser(t testing.TB, rate float64) func(body []byte) {
	t.Helper()
	post := poster(t, sampledServer(t, plancache.Config{Shards: 1, MaxEntries: 1}, rate))
	return func(body []byte) {
		if w := post(body); w.code != http.StatusOK || w.hdr.Get("X-Cache") != "miss" {
			t.Fatalf("status %d, X-Cache %q: %s", w.code, w.hdr.Get("X-Cache"), w.buf.Bytes())
		}
	}
}

// TestColdMissAllocCeiling pins what a cold miss allocates end to end — body
// read, decode, fingerprint, cache miss, enumeration, cache write, respond,
// account, encode — averaged over coldMissBodies, on both trace paths: a
// detailed trace (tracer rate 1: every span and the pruning audit) and a
// summary (rate 0: the optimize span alone). Fresh, a collection runs before
// every request, so each enumeration starts on new memory; reused, the
// collector is off for the measurement, so each request's enumeration takes
// over the rows and bookkeeping of the one before. Measured: detailed 119 /
// 286 kB fresh and 98 / 42 kB reused, summary 95 / 262 kB and 74 / 21 kB. The
// summary's ceilings are the detailed ones less the 24 allocations and 21 kB
// the spans and audit cost, so a summary that grows part of them back fails.
func TestColdMissAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	bodies := coldMissBodies(t)
	for _, cs := range []struct {
		trace     string
		rate      float64
		reuse     bool
		ceiling   float64
		byteLimit uint64
	}{
		{"detailed", 1, false, 266, 341 << 10},
		{"detailed", 1, true, 240, 107 << 10},
		{"summary", 0, false, 242, 320 << 10},
		{"summary", 0, true, 216, 86 << 10},
	} {
		mode := "fresh"
		if cs.reuse {
			mode = "reused"
		}
		miss := coldMisser(t, cs.rate)
		round := func() {
			for _, body := range bodies {
				if !cs.reuse {
					runtime.GC()
				}
				miss(body)
			}
		}
		allocs, bytes := measureRounds(cs.reuse, round)
		allocs /= float64(len(bodies))
		bytes /= uint64(len(bodies))
		if allocs > cs.ceiling {
			t.Errorf("%s trace, %s memory: a cold miss allocates %.0f times on average, ceiling %.0f", cs.trace, mode, allocs, cs.ceiling)
		}
		if bytes > cs.byteLimit {
			t.Errorf("%s trace, %s memory: a cold miss allocates %d bytes on average, ceiling %d", cs.trace, mode, bytes, cs.byteLimit)
		}
		t.Logf("cold miss, %s trace, %s memory, mean over %d serving-shaped plans: %.0f allocations, %d kB", cs.trace, mode, len(bodies), allocs, bytes>>10)
	}
}

// BenchmarkColdMiss is a cold miss end to end over coldMissBodies, on a
// detailed trace and on a summary. One op is one request, round robin over
// the plans.
func BenchmarkColdMiss(b *testing.B) {
	bodies := coldMissBodies(b)
	for _, cs := range []struct {
		name string
		rate float64
	}{{"detailed", 1}, {"undetailed", 0}} {
		b.Run(cs.name, func(b *testing.B) {
			miss := coldMisser(b, cs.rate)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				miss(bodies[i%len(bodies)])
			}
		})
	}
}

// measureRounds returns what round allocates per call, as
// testing.AllocsPerRun counts it, and the bytes, over 20 calls; with reuse,
// the collector is off for the measurement.
func measureRounds(reuse bool, round func()) (allocs float64, bytes uint64) {
	if reuse {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	}
	const rounds = 20
	allocs = testing.AllocsPerRun(rounds, round)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / rounds
}
