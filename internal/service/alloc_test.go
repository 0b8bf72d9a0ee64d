package service_test

import (
	"bytes"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/simulator"
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

// warmServer is a server wired the way cmd/roboptd wires one — tracer, SLO,
// admission, request log (discarded), default deadline — with a plan cache
// that already holds the plan of body.
func warmServer(t testing.TB, body []byte) (h http.Handler, post func() *reusedWriter) {
	t.Helper()
	logger, err := obs.NewLogger(io.Discard, "info", "text", "roboptd")
	if err != nil {
		t.Fatal(err)
	}
	s := &service.Server{
		Provider:        modelProvider(sumModel{}),
		Platforms:       platform.Subset(3),
		Avail:           platform.UniformAvailability(3),
		Cluster:         simulator.Default(),
		DefaultDeadline: 30 * time.Second,
		Tracer:          obs.NewTracer(obs.DefaultTraceCap, 0.1, time.Second),
		Logger:          logger,
		SLO:             obs.NewSLO(500, 0.99),
		Admission:       &service.Admission{ShedFraction: service.DefaultShedFraction},
	}
	s.PlanCache = plancache.New(plancache.Config{Metrics: s.Metrics()})
	h = s.Handler()
	req, err := http.NewRequest(http.MethodPost, "/optimize", nil)
	if err != nil {
		t.Fatal(err)
	}
	w := &reusedWriter{hdr: http.Header{}}
	var rb reusedBody
	post = func() *reusedWriter {
		w.reset()
		rb.Reset(body)
		req.Body = &rb
		h.ServeHTTP(w, req)
		return w
	}
	if w := post(); w.code != http.StatusOK || w.hdr.Get("X-Cache") != "miss" {
		t.Fatalf("cold request: status %d, X-Cache %q: %s", w.code, w.hdr.Get("X-Cache"), w.buf.Bytes())
	}
	return h, post
}

// TestWarmHitAllocCeiling pins what a cache hit allocates end to end — body
// read, decode, fingerprint, cache read, materialize, respond, account,
// encode — for a 20-operator pipeline. The reflection-based plan decoder
// alone used to allocate more than the whole request does now; the ceiling is
// about 15 % above the measured 56.
func TestWarmHitAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	body, err := plan.MarshalJSONPlan(workload.Pipeline(20, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	_, post := warmServer(t, body)
	allocs := testing.AllocsPerRun(200, func() {
		if w := post(); w.code != http.StatusOK || w.hdr.Get("X-Cache") != "hit" {
			t.Fatalf("status %d, X-Cache %q", w.code, w.hdr.Get("X-Cache"))
		}
	})
	const ceiling = 64
	if allocs > ceiling {
		t.Errorf("a warm hit allocates %.0f times, ceiling %d", allocs, ceiling)
	}
	t.Logf("warm hit of Pipeline(20): %.0f allocations", allocs)
}
