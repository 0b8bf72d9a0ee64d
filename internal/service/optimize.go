package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/jsonlex"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/registry"
	"repro/internal/simulator"
)

// reqParams is what the shared prelude of POST /optimize and POST
// /optimize/batch resolves before any plan is looked at; every request unit
// of the call inherits it.
type reqParams struct {
	// id is the request ID (also sent as X-Request-Id); batch members carry
	// "<batchId>.<index>".
	id string
	// endpoint labels the serving metrics ("optimize" or "batch").
	endpoint string
	start    time.Time
	deadline time.Duration
	lambda   float64
	simulate bool
	nocache  bool
	// nopeer bypasses the peer probe for this request, mirroring what
	// nocache does for the local cache.
	nopeer bool
	// trace is ?trace=1: the call's trace is detailed and retained, and
	// POST /optimize inlines it in the reply (a batch's is on /tracez).
	trace bool
	// traceID is the W3C trace ID propagated by the caller's traceparent
	// header; empty means the request ID doubles as the trace ID.
	// remoteSampled mirrors the header's sampled flag: the caller asked for
	// this trace to be kept, so retention is forced like ?trace=1.
	traceID       string
	remoteSampled bool
	// shed admits the call in load-shedding mode: enumerations start already
	// degraded (core.Budget.ForceDegraded) and serve the beam.
	shed bool
}

// optimizeReq is one request unit — a POST /optimize call or one member of
// a POST /optimize/batch call — on its way through resolve → respond →
// account.
type optimizeReq struct {
	reqParams
	l *plan.Logical
	// snap is the one immutable model snapshot of the whole request:
	// concurrent hot-swaps affect later requests, never this one, and the
	// response's modelVersion is exactly the model that scored the plan.
	snap    *registry.Snapshot
	version string
	// (fp, version, band) is the cache key. A nil canon means the cache is
	// not in play: ?nocache=1, or a plan the fingerprinter rejects.
	fp    plancache.Fingerprint
	canon *plancache.Canon
	band  string
	// tr records the unit's spans under parent. A batch member shares the
	// batch's trace, nests under its own "member" span and must not finish
	// the trace itself.
	tr     *obs.Trace
	parent *obs.Span
	member bool
	// leader is the earlier member of the same batch with the same
	// fingerprint, whose plan the dedup tier serves.
	leader *batchMember
	// workers overrides the server's enumeration parallelism when positive
	// (batch members share the pool across the fan-out).
	workers int
	// peerMs is how long the peer probe took to answer; it is set only on
	// a peer fill and feeds peer_fill_ms{outcome="hit"}.
	peerMs float64
}

// optimizeOut is the outcome of one request unit, and what account enters in
// the ledger for it: either resp (with the source that answered it and the
// plan batch duplicates can rematerialize) or err with its HTTP status; of a
// failed unit's resp only ModelVersion is set, for the log.
type optimizeOut struct {
	resp   OptimizeResponse
	src    source
	cp     *plancache.CachedPlan
	status int
	err    error
	// shed marks a plan enumerated on the degraded beam because admission
	// pressure shed the call. retained marks a unit whose trace entered the
	// retention ring: only then is resp.TraceID a resolvable exemplar.
	shed, retained bool
	// early marks an error the SLO never sees: the call was turned away
	// before admission, or a batch member did not parse. lost marks not a
	// response but the loss of one on its way to the client, after the unit
	// was accounted.
	early, lost bool
}

// exemplar is the trace ID histogram buckets may link to for this unit.
func (o *optimizeOut) exemplar() string {
	if o.retained {
		return o.resp.TraceID
	}
	return ""
}

// statusError is an error that knows the HTTP status it is reported under.
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// statusOf maps err to its HTTP status: an oversized body is 413, a
// statusError carries its own, anything else is fallback.
func statusOf(err error, fallback int) int {
	var tooLarge *http.MaxBytesError
	var se *statusError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, &se):
		return se.status
	}
	return fallback
}

// maxDeadlineMs is the longest ?deadline_ms= a time.Duration can hold.
const maxDeadlineMs = int64(math.MaxInt64 / time.Millisecond)

// deadline resolves the effective deadline of a request: ?deadline_ms= wins
// over the server default. A malformed, non-positive or overflowing value is
// an error.
func (s *Server) deadline(qs url.Values) (time.Duration, error) {
	q := qs.Get("deadline_ms")
	if q == "" {
		return s.DefaultDeadline, nil
	}
	ms, err := strconv.ParseInt(q, 10, 64)
	if err != nil || ms <= 0 || ms > maxDeadlineMs {
		return 0, fmt.Errorf("service: deadline_ms must be an integer in [1,%d], got %q", maxDeadlineMs, q)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// riskLambda resolves the request's risk-aversion weight from ?risk_lambda=.
// A malformed, negative or non-finite value is an error.
func riskLambda(qs url.Values) (float64, error) {
	q := qs.Get("risk_lambda")
	if q == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(q, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, fmt.Errorf("service: risk_lambda must be a finite non-negative number, got %q", q)
	}
	return v, nil
}

// traceContext reads the request's W3C traceparent header. A malformed
// header is ignored (the request gets a local trace ID); a valid one makes
// the remote trace ID the serving trace's ID — retrievable later via
// /tracez?id=<traceID> — and echoes the header on the response so the
// caller sees its context was honored.
func traceContext(w http.ResponseWriter, r *http.Request) (traceID string, sampled bool) {
	// The canonical key: a header lookup under any other spelling
	// canonicalizes it first, on every request.
	h := r.Header.Get("Traceparent")
	if h == "" {
		return "", false
	}
	tp, ok := obs.ParseTraceParent(h)
	if !ok {
		return "", false
	}
	w.Header().Set("traceparent", tp.String())
	return tp.TraceID, tp.Sampled
}

// startTrace opens the trace of one call. The request ID doubles as the
// trace ID unless the caller propagated a W3C traceparent, in which case the
// remote trace ID names the trace (retrievable via /tracez?id=<remote id>)
// and RequestID keeps the local join key. Every call is recorded: in detail
// when the tracer's draw hits or the call forces its trace, as a summary
// otherwise; the tracer decides retention at the end.
func (s *Server) startTrace(p *reqParams) *obs.Trace {
	var tr *obs.Trace
	if p.traceID == "" {
		tr = s.Tracer.Start(p.id)
	} else {
		tr = s.Tracer.Start(p.traceID)
		tr.RequestID = p.id
	}
	if p.forced() {
		tr.SetDetailed()
	}
	return tr
}

// forced reports whether the call forces its trace's detail and retention:
// ?trace=1, or a traceparent whose sampled flag is set.
func (p *reqParams) forced() bool { return p.trace || p.remoteSampled }

// finishTrace closes one request unit's trace. Members of a shared batch
// trace skip it — the batch handler finishes that trace exactly once, with
// the whole fan-out recorded. Returns whether the trace entered the
// retention ring, which gates exemplar exposure: only resolvable trace IDs
// are attached to histogram buckets.
func (s *Server) finishTrace(q *optimizeReq, notable string) bool {
	if q.member {
		return false
	}
	return s.Tracer.Finish(q.tr, q.forced(), notable)
}

// sinceMs is the elapsed wall-clock in milliseconds.
func sinceMs(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

// account is the ledger of the two optimize endpoints, and its only writer.
// Every response — a call prelude turned away (405, 400, 413), one admission
// refused (429, 503), a unit that failed, a batch member that did not parse,
// a plan served in full or shed — passes through here exactly once and
// increments one instrument per fact: serving_requests_total by
// endpoint/outcome/answering source, deadline_exceeded_total (the deadline
// or the connection ran out), shed_total, serving_latency_ms by endpoint
// (with the retained trace as the bucket's exemplar), the SLO's good/bad
// tally (a shed response is a success — degraded quality, not an error) and
// the request log, whose values go in as typed attributes, unboxed. /metricz,
// and obsctl's fleet view scraped from it, are views of what this wrote. A
// response that was accounted and then failed to encode comes back as
// out.lost and adds only encode_failures_total.
func (s *Server) account(p *reqParams, out *optimizeOut) {
	m := s.Metrics()
	if out.err != nil {
		msg := out.err.Error()
		s.lastError.Store(&msg)
	}
	if out.lost {
		m.Counter("encode_failures_total").Inc()
		return
	}
	ms, outcome := out.resp.OptimizationMs, "ok"
	switch {
	case out.err != nil:
		ms, outcome = sinceMs(p.start), strconv.Itoa(out.status)
		if errors.Is(out.err, context.DeadlineExceeded) || errors.Is(out.err, context.Canceled) {
			m.Counter("deadline_exceeded_total").Inc()
		}
	case out.shed:
		outcome = "shed"
		m.Counter("shed_total").Inc()
	}
	m.CounterVec("serving_requests_total", "endpoint", "outcome", "cache").With(p.endpoint, outcome, sources[out.src].label).Inc()
	m.HistogramVec("serving_latency_ms", "endpoint").With(p.endpoint).ObserveExemplar(ms, out.exemplar())
	if !out.early {
		s.SLO.Record(ms, out.err == nil)
	}
	if out.err != nil {
		s.Logger.LogAttrs(context.Background(), slog.LevelError, "optimize failed",
			slog.String("requestId", p.id),
			slog.Int("status", out.status),
			slog.Float64("ms", ms),
			slog.String("modelVersion", out.resp.ModelVersion),
			slog.String("err", out.err.Error()))
		return
	}
	s.Logger.LogAttrs(context.Background(), slog.LevelInfo, "optimize",
		slog.String("requestId", p.id),
		slog.Int("status", http.StatusOK),
		slog.Float64("ms", ms),
		slog.String("modelVersion", out.resp.ModelVersion),
		slog.String("cache", sources[out.src].label),
		slog.Bool("degraded", out.resp.Degraded),
		slog.Bool("shed", out.shed),
		slog.Float64("predictedSec", out.resp.PredictedRuntimeSec))
}

// reject accounts a call that ends before any plan is looked at and writes
// its error reply.
func (s *Server) reject(w http.ResponseWriter, p *reqParams, out *optimizeOut) {
	s.account(p, out)
	s.fail(w, p.id, out.status, out.err)
}

// admit runs the admission layer for one call (a single request or a whole
// batch). ok=false means the call was refused and the response is already
// written; otherwise the caller must invoke release once the call finishes,
// and shed tells it to serve the degraded beam.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, p *reqParams) (shed bool, release func(), ok bool) {
	switch outcome, rel := s.Admission.Acquire(ctx); outcome {
	case admitRejected:
		w.Header().Set("Retry-After", retryAfter)
		s.reject(w, p, &optimizeOut{status: http.StatusTooManyRequests,
			err: errors.New("service: admission queue full, retry later")})
	case admitCanceled:
		s.reject(w, p, &optimizeOut{status: http.StatusServiceUnavailable,
			err: fmt.Errorf("service: request expired in the admission queue: %w", ctx.Err())})
	default:
		return outcome == admitShed, rel, true
	}
	return false, nil, false
}

// lease is what a call admitted by prelude holds until it finishes: its
// admission slot and its deadline context. done gives the slot back once,
// however often it is called.
type lease struct {
	release func()
	cancel  context.CancelFunc
}

func (l *lease) done() {
	if l.release != nil {
		l.release()
		l.release = nil
	}
	if l.cancel != nil {
		l.cancel()
	}
}

// readBody reads a request body to its end, into a buffer off jsonlex's
// stack, and hands it to decode whole; the buffer goes back to the stack when
// decode returns, so decode must keep no reference into the body.
func readBody(body io.Reader, decode func(body []byte) error) error {
	buf := jsonlex.TakeBuffer()
	defer jsonlex.PutBuffer(buf)
	if err := buf.ReadAll(body); err != nil {
		return fmt.Errorf("service: reading the request body: %w", err)
	}
	return decode(buf.B)
}

// prelude is everything both optimize endpoints do before a plan enters
// the answer path: method check, the query string (parsed once), the body
// read under the size limit (413 when oversized, whatever it holds; decode
// parses it), the deadline context, traceparent and admission. The deadline context is
// created before admission so time spent in the queue counts against the
// request's deadline — a queued request whose deadline lapses is dequeued
// as canceled, not optimized late. ok=false means the error response is
// already written; otherwise the caller owes l.done().
func (s *Server) prelude(w http.ResponseWriter, r *http.Request, endpoint, usage string, decode func(body []byte) error) (p reqParams, ctx context.Context, l lease, ok bool) {
	p = reqParams{id: s.nextReqID(), endpoint: endpoint, start: time.Now()}
	w.Header().Set("X-Request-Id", p.id)
	if r.Method != http.MethodPost {
		s.reject(w, &p, &optimizeOut{status: http.StatusMethodNotAllowed, err: errors.New(usage), early: true})
		return
	}
	qs := r.URL.Query()
	var err error
	if p.deadline, err = s.deadline(qs); err == nil {
		p.lambda, err = riskLambda(qs)
	}
	if err == nil {
		err = readBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), decode)
	}
	if err != nil {
		s.reject(w, &p, &optimizeOut{status: statusOf(err, http.StatusBadRequest), err: err, early: true})
		return
	}
	p.simulate = qs.Get("simulate") == "1"
	p.nocache = qs.Get("nocache") == "1"
	p.nopeer = qs.Get("nopeer") == "1"
	p.trace = qs.Get("trace") == "1"

	ctx = r.Context()
	if p.deadline > 0 {
		ctx, l.cancel = context.WithTimeout(ctx, p.deadline)
	}
	p.traceID, p.remoteSampled = traceContext(w, r)
	if p.shed, l.release, ok = s.admit(ctx, w, &p); !ok {
		l.done()
	}
	return p, ctx, l, ok
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var l *plan.Logical
	p, ctx, ls, ok := s.prelude(w, r, "optimize", "POST a JSON logical plan", func(body []byte) (err error) {
		l, err = plan.DecodeJSONPlan(body)
		return err
	})
	if !ok {
		return
	}
	defer ls.done()

	q := s.unit(&p, l)
	q.tr = s.startTrace(&p)
	out := s.serve(ctx, q, 0)
	if out.err != nil {
		s.fail(w, p.id, out.status, out.err)
		return
	}
	s.writeResponse(w, &p, out)
}

// unit builds the request unit for one plan of a call: it pins the model
// snapshot and, unless ?nocache=1, fingerprints the plan — the canonical
// hash is a few microseconds against the enumeration's milliseconds.
func (s *Server) unit(p *reqParams, l *plan.Logical) *optimizeReq {
	q := &optimizeReq{reqParams: *p, l: l, band: plancache.RiskBand(p.lambda), snap: s.Provider.Get()}
	q.version = q.snap.Version()
	if !p.nocache {
		if fp, canon, err := plancache.Compute(l, s.Platforms, s.Avail, s.PlanCache.BandsPerDecade()); err == nil {
			q.fp, q.canon = fp, canon
		}
	}
	return q
}

// serve is the one answer path: resolve the unit through the tier list from
// tier index from on, then respond and account.
func (s *Server) serve(ctx context.Context, q *optimizeReq, from int) *optimizeOut {
	a, err := s.resolve(ctx, q, from)
	return s.finish(ctx, q, a, err)
}

// failed closes the trace of a unit that ends in an error status and
// accounts it.
func (s *Server) failed(q *optimizeReq, status int, err error) *optimizeOut {
	q.tr.SetError(err.Error())
	s.finishTrace(q, "")
	out := &optimizeOut{status: status, err: err}
	out.resp.ModelVersion = q.version
	s.account(&q.reqParams, out)
	return out
}

// finish turns what resolve returned into the unit's outcome. A cached plan
// that does not fit this unit's plan (a cross-plan banding artifact), or a
// collapsed leader with no plan to share, is the one fallback: the unit
// enumerates for itself alone, outside the cache.
func (s *Server) finish(ctx context.Context, q *optimizeReq, a answer, err error) *optimizeOut {
	var x *plan.Execution
	if err == nil && a.res == nil {
		if a.cp != nil {
			x, _ = a.cp.Materialize(q.l, q.canon, s.Platforms)
		}
		if x == nil {
			q.canon = nil
			a, err = s.enumerate(ctx, q)
		}
	}
	if err != nil {
		status := statusOf(err, http.StatusUnprocessableEntity)
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			status = http.StatusServiceUnavailable
			err = fmt.Errorf("service: optimization exceeded its deadline of %v: %w", q.deadline, err)
		}
		return s.failed(q, status, err)
	}
	if a.res != nil {
		x = a.res.Execution
	}
	// Only an enumeration can be shed; a shed call answered from a cache
	// tier got the full-quality plan.
	out := &optimizeOut{src: a.src, cp: a.cp, shed: q.shed && a.res != nil, retained: s.closeTrace(q, a)}
	var run *simulator.Result
	out.resp, run = s.respond(q, a, x)
	s.record(q, a, x, out, run)
	s.account(&q.reqParams, out)
	return out
}

// closeTrace records how a successful unit was answered and finishes its
// trace. An answer served without an enumeration of its own is a one-span
// story: the lookup is all that happened — no vectorize/enumerate/prune
// spans, because none of that ran — plus a link to the trace of the run
// that produced the plan (when that run was traced and is not this trace),
// so the enumeration spans are one /tracez?id= away. For a peer fill that
// trace lives on the replica that enumerated; its /tracez resolves it.
func (s *Server) closeTrace(q *optimizeReq, a answer) (retained bool) {
	notable := ""
	if a.res == nil {
		cp := a.cp
		sp := q.tr.StartSpan(q.parent, "cache")
		sp.SetStr("result", sources[a.src].xcache)
		sp.SetStr("fingerprint", cp.Fingerprint.Short())
		sp.SetStr("modelVersion", cp.ModelVersion)
		sp.SetFloat("age_ms", sinceMs(cp.CachedAt))
		sp.End()
		if cp.TraceID != "" && cp.TraceID != q.tr.ID {
			q.tr.AddLink(cp.TraceID, sources[a.src].link)
		}
	} else if a.res.Degraded {
		notable = "degraded"
	}
	return s.finishTrace(q, notable)
}

// respond builds the reply from a fresh result or a cached plan. x is the
// execution plan either way — res.Execution, or the cached canonical
// assignment rematerialized against this unit's plan, so conversions and
// their cardinalities come from the plan itself and a cached answer is
// byte-identical to an uncached one. A cached answer reports zero stats: no
// enumeration work happened. run is the simulated execution when
// ?simulate=1 asked for one.
func (s *Server) respond(q *optimizeReq, a answer, x *plan.Execution) (resp OptimizeResponse, run *simulator.Result) {
	resp = OptimizeResponse{
		RequestID:      q.id,
		ModelVersion:   q.version,
		Assignments:    make([]string, len(x.Assign)),
		OptimizationMs: sinceMs(q.start),
		TraceID:        q.tr.ID,
	}
	var dist core.CostDist
	if res := a.res; res != nil {
		resp.PredictedRuntimeSec, dist, resp.RiskLambda = res.Predicted, res.PredictedDist, q.lambda
		resp.Degraded, resp.DegradeReason = res.Degraded, res.Stats.DegradeReason
		resp.Stats = StatsJSON{
			VectorsCreated: res.Stats.VectorsCreated,
			Merges:         res.Stats.Merges,
			ModelBatches:   res.Stats.ModelBatches,
			ModelRows:      res.Stats.ModelRows,
			MemoHits:       res.Stats.MemoHits,
			Pruned:         res.Stats.Pruned,
			IntervalKept:   res.Stats.IntervalKept,
			PeakEnumSize:   res.Stats.PeakEnumSize,
			PoolRounds:     res.Stats.Par.Rounds,
			PoolTasks:      res.Stats.Par.Tasks,
			PoolSteals:     res.Stats.Par.Steals,
			PoolQueueDepth: res.Stats.Par.MaxQueueDepth,
		}
		resp.StageMs = res.Stats.Timings.Milliseconds()
	} else {
		cp := a.cp
		resp.PredictedRuntimeSec, dist, resp.RiskLambda = cp.Predicted, cp.PredictedDist, cp.RiskLambda
		resp.ServedModelVersion = cp.ModelVersion
		resp.CachedAt = cp.CachedAt.UTC().Format(time.RFC3339Nano)
		resp.StageMs = noStages
	}
	if q.trace && !q.member {
		// closeTrace has finished the trace: nothing writes to it any more.
		snap := q.tr.Snapshot()
		resp.Trace = &snap
	}
	resp.PredictedLoSec, resp.PredictedHiSec, resp.PredictedSpreadSec = dist.Lo, dist.Hi, dist.Spread
	for i, p := range x.Assign {
		resp.Assignments[i] = p.String()
	}
	for _, conv := range x.Conversions {
		resp.Conversions = append(resp.Conversions, ConversionJSON{
			Name:     conv.Name(),
			AfterOp:  int(conv.AfterOp),
			BeforeOp: int(conv.BeforeOp),
			Tuples:   conv.Card,
		})
	}
	if q.simulate {
		// A failed run's Runtime is +Inf (OOM), which JSON cannot encode:
		// the label alone names the failure.
		r := s.Cluster.Run(x)
		resp.SimulatedLabel = r.Label()
		if !r.Failed() {
			resp.SimulatedRuntimeSec = r.Runtime
		}
		run = &r
	}
	return resp, run
}

// noStages is the stage breakdown of every answer no enumeration of its own
// produced: empty, shared, and never written.
var noStages = map[string]float64{}

// record keeps what only a served plan has to tell: execution feedback, the
// model version that scored it, its latency among the successes, the
// enumeration's work when one ran and the peer tier's share of a peer fill.
func (s *Server) record(q *optimizeReq, a answer, x *plan.Execution, out *optimizeOut, run *simulator.Result) {
	m := s.Metrics()
	// Execution feedback: the served plan's vector paired with its observed
	// runtime. Every source takes one path: the vector is rebuilt from
	// this unit's own plan and the assignment it was served, so a cached plan
	// shared through cardinality banding carries the requester's
	// cardinalities, not those of the plan that filled the entry. Failed runs
	// carry no usable runtime label and are skipped.
	if run != nil && !run.Failed() {
		cctx, err := core.NewContext(q.l, s.Platforms, s.Avail)
		var v *core.Vector
		if err == nil {
			v, err = cctx.VectorizeAssignment(x.Assign)
		}
		if err == nil {
			err = s.Feedback.Add(v.F, run.Runtime)
		}
		if err != nil {
			m.Counter("feedback_rejected_total").Inc()
		} else {
			m.Counter("feedback_samples_total").Inc()
		}
	}
	m.CounterVec("serving_model_requests_total", "version").With(out.resp.ModelVersion).Inc()
	if a.res != nil {
		s.recordEnumeration(a.res, out.resp.StageMs)
	}
	if a.src == srcPeer {
		s.peerFillMs("hit").ObserveExemplar(q.peerMs, out.exemplar())
	}
}

// peerFillMs is the peer tier's latency histogram for one outcome: "hit"
// when a peer's entry answered (observed with the served unit's exemplar),
// "miss" when the probe round came back empty.
func (s *Server) peerFillMs(outcome string) *obs.Histogram {
	return s.Metrics().HistogramVec("peer_fill_ms", "outcome").With(outcome)
}

// recordEnumeration feeds one enumeration's work counters into the metric
// registry.
func (s *Server) recordEnumeration(res *core.Result, stageMs map[string]float64) {
	m := s.Metrics()
	if res.Degraded {
		m.Counter("degraded_total").Inc()
	}
	m.Histogram("vectors_created").Observe(float64(res.Stats.VectorsCreated))
	m.Histogram("model_rows").Observe(float64(res.Stats.ModelRows))
	stages := m.HistogramVec("serving_stage_ms", "stage")
	for stage, ms := range stageMs {
		stages.With(stage).Observe(ms)
	}
}

// writeResponse writes a successful request unit's reply.
func (s *Server) writeResponse(w http.ResponseWriter, p *reqParams, out *optimizeOut) {
	if xc := sources[out.src].xcache; xc != "" {
		w.Header().Set("X-Cache", xc)
	}
	s.send(w, p, out.resp.AppendJSON)
}

// send writes the JSON reply of an accounted call, a single request's or a
// whole batch's, which appendReply appends to a buffer off jsonlex's stack;
// the reply ends in a newline, as encoding/json's Encoder ends one. An
// encoding failure (usually a dropped connection) is a failed request, not
// just a note: the plans were computed but the client will not see them.
func (s *Server) send(w http.ResponseWriter, p *reqParams, appendReply func(dst []byte) ([]byte, error)) {
	w.Header().Set("Content-Type", "application/json")
	buf := jsonlex.TakeBuffer()
	defer jsonlex.PutBuffer(buf)
	var err error
	if buf.B, err = appendReply(buf.B); err == nil {
		buf.B = append(buf.B, '\n')
		_, err = w.Write(buf.B)
	}
	if err != nil {
		s.account(p, &optimizeOut{err: err, lost: true})
	}
}
