package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/peercache"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/registry"
	"repro/internal/service"
)

// tinyCache is the plan cache of cold-enum's server and of peer-fill's
// replica B: one shard of 16 entries under a 64-plan cycle never hits.
var tinyCache = plancache.Config{Shards: 1, MaxEntries: 16}

// replica is one booted roboptd equivalent: the artifact store, the boot
// artifact and the server wired the way cmd/roboptd wires it.
type replica struct {
	store  *registry.Store
	srv    *service.Server
	cache  plancache.Config // as passed to boot
	loadMs float64          // store open + LoadActive + Validate
	artKB  float64
}

// boot mirrors cmd/roboptd's start-up with -model-dir pointing at the fixture
// store: default tracer, SLO, admission and request logging (to io.Discard,
// so formatting is paid but no terminal is), default deadline.
func (e *env) boot(id string, cache plancache.Config) (*replica, error) {
	t0 := time.Now()
	store, err := registry.OpenStore(e.fx.StoreDir)
	if err != nil {
		return nil, err
	}
	art, err := store.LoadActive()
	if err != nil {
		return nil, err
	}
	if art == nil {
		return nil, fmt.Errorf("bench: fixture store %s has no active artifact", e.fx.StoreDir)
	}
	if err := art.Validate(e.schema.Len(), len(e.plats)); err != nil {
		return nil, err
	}
	loadMs := msSince(t0)
	provider, err := registry.NewProvider(art)
	if err != nil {
		return nil, err
	}
	logger, err := obs.NewLogger(io.Discard, "info", "text", "roboptd")
	if err != nil {
		return nil, err
	}
	srv := &service.Server{
		Provider:        provider,
		ModelStore:      store,
		Feedback:        registry.NewFeedback(registry.DefaultFeedbackCap),
		Platforms:       e.plats,
		Avail:           e.avail,
		Cluster:         e.cluster,
		DefaultDeadline: 30 * time.Second,
		Tracer:          obs.NewTracer(obs.DefaultTraceCap, 0.1, time.Second),
		Logger:          logger,
		SLO:             obs.NewSLO(500, 0.99),
		ReplicaID:       id,
		Admission:       &service.Admission{ShedFraction: service.DefaultShedFraction},
	}
	cfg := cache
	cfg.TTL = 10 * time.Minute
	cfg.Metrics = srv.Metrics()
	srv.PlanCache = plancache.New(cfg)
	srv.PlanCache.Activate(provider.Get().Version())
	r := &replica{store: store, srv: srv, cache: cache, loadMs: loadMs}
	if fi, err := os.Stat(filepath.Join(store.Dir(), art.Version+".json")); err == nil {
		r.artKB = float64(fi.Size()) / 1024
	}
	return r, nil
}

// respWriter is a reusable in-process http.ResponseWriter, so the driver adds
// no allocations of its own to a request.
type respWriter struct {
	hdr  http.Header
	buf  bytes.Buffer
	code int
}

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(c int) {
	if w.code == 0 {
		w.code = c
	}
}
func (w *respWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.buf.Write(p)
}
func (w *respWriter) reset() {
	clear(w.hdr)
	w.buf.Reset()
	w.code = 0
}

type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// slot is one distinct plan of a serving workload with its pre-built requests
// and the reference answer every response is compared to.
type slot struct {
	name string
	l    *plan.Logical
	body []byte
	req  *http.Request // POST /optimize
	ref  *http.Request // POST /optimize?nocache=1&nopeer=1
	// wantAssign is the assignments array of the reference enumeration, as
	// the response encodes it.
	wantAssign []byte
	exec       *plan.Execution
	last       []byte // the most recent response body
}

// serving drives one server in-process: a single client calling
// Handler().ServeHTTP, one request at a time.
type serving struct {
	e      *env
	rep    *replica
	h      http.Handler
	slots  []*slot
	order  []int
	want   string // the X-Cache disposition the workload promises
	w      respWriter
	body   bodyReader
	closes []func()
	peerA  *serving // peer-fill's replica A
}

func (e *env) newServing(rep *replica, seed int64, want string) (*serving, error) {
	plans, err := e.servingPlans()
	if err != nil {
		return nil, err
	}
	sv := &serving{e: e, rep: rep, h: rep.srv.Handler(), order: seededOrder(len(plans), seed), want: want}
	sv.w.hdr = http.Header{}
	for _, p := range plans {
		body, err := plan.MarshalJSONPlan(p.l)
		if err != nil {
			return nil, err
		}
		s := &slot{name: p.name, l: p.l, body: body}
		if s.req, err = http.NewRequest(http.MethodPost, "/optimize", nil); err != nil {
			return nil, err
		}
		if s.ref, err = http.NewRequest(http.MethodPost, "/optimize?nocache=1&nopeer=1", nil); err != nil {
			return nil, err
		}
		sv.slots = append(sv.slots, s)
	}
	return sv, nil
}

func (sv *serving) close() {
	for i := len(sv.closes) - 1; i >= 0; i-- {
		sv.closes[i]()
	}
}

// post sends s's body through req and leaves the response in sv.w.
func (sv *serving) post(s *slot, req *http.Request) {
	sv.w.reset()
	sv.body.Reset(s.body)
	req.Body = &sv.body
	sv.h.ServeHTTP(&sv.w, req)
}

// warm sends request i of the seeded order unchecked: set-up's warm-up and
// pre-fill passes.
func (sv *serving) warm(i int) error {
	s := sv.slots[sv.order[i%len(sv.order)]]
	sv.post(s, s.req)
	if sv.w.code != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", s.name, sv.w.code, sv.w.buf.Bytes())
	}
	return nil
}

// cycle replays the seeded order once, unchecked.
func (sv *serving) cycle() error {
	for i := range sv.order {
		if err := sv.warm(i); err != nil {
			return err
		}
	}
	return nil
}

var assignKey = []byte(`"assignments":[`)

// assignments cuts the assignments array out of a response body.
func assignments(body []byte) []byte {
	i := bytes.Index(body, assignKey)
	if i < 0 {
		return nil
	}
	rest := body[i+len(assignKey):]
	j := bytes.IndexByte(rest, ']')
	if j < 0 {
		return nil
	}
	return rest[:j]
}

// op is one measured request: it must answer 200 with the promised X-Cache
// disposition and the reference assignment.
func (sv *serving) op(i int) error {
	s := sv.slots[sv.order[i%len(sv.order)]]
	sv.post(s, s.req)
	body := sv.w.buf.Bytes()
	s.last = append(s.last[:0], body...)
	if sv.w.code != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", s.name, sv.w.code, body)
	}
	if xc := sv.w.hdr["X-Cache"]; len(xc) != 1 || xc[0] != sv.want {
		return fmt.Errorf("%s: X-Cache %v, want %q", s.name, xc, sv.want)
	}
	if !bytes.Equal(assignments(body), s.wantAssign) {
		return fmt.Errorf("%s: assignment differs from the ?nocache=1 enumeration", s.name)
	}
	return nil
}

// decodeExecution decodes one response body and rebuilds the execution plan
// its assignment describes, validated against the availability matrix.
func (e *env) decodeExecution(l *plan.Logical, body []byte) (*plan.Execution, *service.OptimizeResponse, error) {
	var resp service.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, nil, fmt.Errorf("response does not decode: %w", err)
	}
	assign := make([]platform.ID, len(resp.Assignments))
	for i, name := range resp.Assignments {
		p, err := platform.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		assign[i] = p
	}
	x, err := plan.NewExecution(l, assign)
	if err != nil {
		return nil, nil, err
	}
	if err := x.Validate(e.avail); err != nil {
		return nil, nil, err
	}
	if len(x.Conversions) != len(resp.Conversions) {
		return nil, nil, fmt.Errorf("response lists %d conversions, its assignment implies %d", len(resp.Conversions), len(x.Conversions))
	}
	return x, &resp, nil
}

// reference runs one fresh ?nocache=1 enumeration per plan on the driven
// server and records its assignment as the answer every measured response
// must carry. It is checker work: outside set-up time and the window.
func (sv *serving) reference() error {
	for _, s := range sv.slots {
		sv.post(s, s.ref)
		if sv.w.code != http.StatusOK {
			return fmt.Errorf("bench: reference %s: HTTP %d: %s", s.name, sv.w.code, sv.w.buf.Bytes())
		}
		body := sv.w.buf.Bytes()
		x, resp, err := sv.e.decodeExecution(s.l, body)
		if err != nil {
			return fmt.Errorf("bench: reference %s: %w", s.name, err)
		}
		if resp.Degraded {
			return fmt.Errorf("bench: reference %s: degraded (%s)", s.name, resp.DegradeReason)
		}
		s.exec = x
		s.wantAssign = append([]byte(nil), assignments(body)...)
	}
	return nil
}

// validate fully decodes the last response of every plan (the measured loop
// only compared bytes) and returns one error per violation.
func (sv *serving) validate() []error {
	var errs []error
	for _, s := range sv.slots {
		if s.last == nil {
			continue
		}
		if _, _, err := sv.e.decodeExecution(s.l, s.last); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", s.name, err))
		}
	}
	return errs
}

func (sv *serving) executions() []*plan.Execution {
	out := make([]*plan.Execution, len(sv.slots))
	for i, s := range sv.slots {
		out[i] = s.exec
	}
	return out
}

// planQuality is the geometric mean, over the chosen executions, of the best
// single-platform simulated runtime over the chosen plan's simulated runtime:
// above 1 the optimizer beat every single-platform placement on average.
// Plans no single platform can run are skipped; a failed run counts with the
// simulator's abort time.
func (e *env) planQuality(plats []platform.ID, avail *platform.Availability, xs []*plan.Execution) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		best := math.Inf(1)
		for _, p := range plats {
			r, err := e.cluster.RunAllOn(x.Logical, p, avail)
			if err == nil {
				best = math.Min(best, e.simSeconds(r.Runtime, r.Failed()))
			}
		}
		if math.IsInf(best, 1) {
			continue
		}
		r := e.cluster.Run(x)
		sum += math.Log(best / e.simSeconds(r.Runtime, r.Failed()))
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func (e *env) simSeconds(runtime float64, failed bool) float64 {
	if failed || math.IsInf(runtime, 0) || math.IsNaN(runtime) {
		return e.cluster.Timeout
	}
	return runtime
}

// startPeerA boots replica A of peer-fill: a default-sized cache holding all
// 64 plans, listening on a real loopback socket and heartbeating into the
// shared store the way `roboptd -model-dir` does.
func (e *env) startPeerA(seed int64) (*serving, error) {
	rep, err := e.boot(fmt.Sprintf("bench-A-%d", os.Getpid()), plancache.Config{})
	if err != nil {
		return nil, err
	}
	a, err := e.newServing(rep, seed, "hit")
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(a.h)
	a.closes = append(a.closes, ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	done, err := rep.srv.RegisterReplicaLoop(ctx, strings.TrimPrefix(ts.URL, "http://"), 5*time.Second)
	if err != nil {
		cancel()
		a.close()
		return nil, err
	}
	a.closes = append(a.closes, func() { cancel(); <-done })
	if err := a.cycle(); err != nil { // pre-fill
		a.close()
		return nil, err
	}
	return a, nil
}

// enablePeerFill wires B's plan cache to the fleet tier as `roboptd
// -peer-fill` does. B has no listener of its own, so it is not registered.
func enablePeerFill(rep *replica) error {
	filler, err := peercache.New(peercache.Config{
		SelfID:   rep.srv.ReplicaID,
		SelfAddr: "bench-b.invalid:0",
		Peers: func() ([]registry.ReplicaInfo, error) {
			return rep.store.Replicas(registry.DefaultReplicaTTL)
		},
		Metrics: rep.srv.Metrics(),
	})
	if err != nil {
		return err
	}
	rep.srv.PlanCache.SetRemoteFiller(filler)
	rep.srv.PeerFill = filler
	rep.srv.AdvertiseAddr = "bench-b.invalid:0"
	return nil
}
