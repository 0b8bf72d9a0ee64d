package service_test

import (
	"bytes"
	"net/http"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

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
	s := newServer(modelProvider(sumModel{}))
	s.DefaultDeadline = 30 * time.Second
	s.Workers = 1
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

// TestColdMissAllocCeiling pins what a cold miss allocates end to end on a
// traced server — body read, decode, fingerprint, cache miss, enumeration
// with its pruning audit, cache write, respond, account, encode — averaged
// over serving-shaped plans (pipelines, join trees and random DAGs) that
// evict each other from a one-entry cache, in two cases. Reused, the
// collector is off for the measurement, so each request's enumeration takes
// over the rows and bookkeeping of the one before: 98 allocations and 42 kB
// measured (100 / 42 kB while each worker scratch bound its two parallel
// loop bodies as method values; 101 / 43 kB while rows held whole operator-kind blocks; 111 / 54 kB while the bookkeeping was each run's own; 113 /
// 54 kB while the frontier held a buffer for the tie's walk over the union
// of scopes; 116 / 57 kB while admission made a release func per request,
// pruning numbered its groups in a Go map and the frontier carved a task
// slot per concatenation; 138 / 63 kB before bodies and replies lived in reused buffers and the reply
// and the request log stopped going through reflection and boxing), ceilings
// 240 / 107 kB, the headroom of the fresh case. Fresh, a collection runs
// before every request, so each enumeration starts on new memory: 118
// allocations and 286 kB measured (120 / 286 kB with those method values;
// 121 / 336 kB while rows held whole
// operator-kind blocks; 129 / 322 kB while the bookkeeping came
// in smaller blocks of its own, before each enumeration slot held its node
// and task and a run carved at least 32 spare rows; 131 / 323 kB before the
// frontier lost that
// buffer, 134 / 326 kB before the release-func, map and task-slot changes,
// 158 / 334 kB before the buffers, which outlive collections, being on a free stack
// and not in a sync.Pool; 162 / 337 kB while every run built the abstract
// plan vector and the reply was boxed by value), where runs that dropped their rows took 178 / 305 kB
// measured the same way (170 / 303 kB without the collections): the rows
// come in fewer, larger chunks. Its ceilings are the ones it had then less
// the buffers' saving (24 allocations, 8 kB) and the later 3 allocations and
// 3 kB, and the story below is that case's.
// Spans carry durations and join keys only and every step's counts are
// written once, into its PruneRecord: 26 of the allocations are the trace's.
// The run's bookkeeping and its trace come in blocks sized from the plan —
// enumeration slots, scopes, vector headers, boundary lists, frontier nodes,
// children lists, tasks, audit records, span chunks, one attribute block —
// where each was an object per enumeration step at 783 allocations / 306 kB;
// both ceilings keep the headroom they had over that measurement (123
// allocations, 49 kB). The server's model has no Specialize,
// so mlmodel.Specialize expands its rows to the Schema, at most 16 per model
// call, into a window off the kernels' shared stack. It was 783 / 335 kB
// while the run kept a buffer of expanded rows per worker, 818 allocations /
// 531 kB while one matrix of expanded rows covered each whole batch
// (reallocated whenever a batch outgrew it), the per-operator contributions
// were scored one row at a time and a cancellable scoring loop wrapped its
// body in a closure per call; 819
// before that, 853 while every concatenation allocated its MergeCtx and
// crossing edges, 893 while every 16-row scoring chunk moved its matrix view
// to the heap, and 1265 when the merge, prune and infer spans each repeated
// those counts. The allocation ceiling kept the 87 of headroom it had at 893
// until the bookkeeping went into blocks; the byte ceiling keeps the 49 kB it
// had above 335 kB, so expanding whole batches again fails it.
func TestColdMissAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
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
	post := poster(t, roboptdServer(t, plancache.Config{Shards: 1, MaxEntries: 1}))
	miss := func(body []byte) {
		if w := post(body); w.code != http.StatusOK || w.hdr.Get("X-Cache") != "miss" {
			t.Fatalf("status %d, X-Cache %q: %s", w.code, w.hdr.Get("X-Cache"), w.buf.Bytes())
		}
	}
	for _, cs := range []struct {
		mode      string
		reuse     bool
		ceiling   float64
		byteLimit uint64
	}{
		{"fresh", false, 266, 341 << 10},
		{"reused", true, 240, 107 << 10},
	} {
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
			t.Errorf("%s memory: a cold miss allocates %.0f times on average, ceiling %.0f", cs.mode, allocs, cs.ceiling)
		}
		if bytes > cs.byteLimit {
			t.Errorf("%s memory: a cold miss allocates %d bytes on average, ceiling %d", cs.mode, bytes, cs.byteLimit)
		}
		t.Logf("cold miss on %s memory, mean over %d serving-shaped plans: %.0f allocations, %d kB", cs.mode, len(bodies), allocs, bytes>>10)
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
