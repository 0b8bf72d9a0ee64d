// Package service exposes the optimizer over HTTP: clients POST a JSON
// logical plan and receive the chosen execution plan, its predicted runtime,
// and the enumeration statistics. It is the embedding surface a
// cross-platform system would call in place of its cost-based optimizer.
//
// # Request path
//
// Both optimize endpoints share one prelude (optimize.go: method, query
// parameters, body limit, deadline context, traceparent) that ends in the
// admission layer (admission.go: bounded queue, 429 + Retry-After when full,
// deadline-aware dequeue, pressure-triggered load shedding to the degraded
// beam). Every plan — a single request or a batch member — then takes the
// one answer path:
//
//	resolve  (resolve.go)  — walk one ordered list of tiers: local plan
//	         cache → batch dedup → peer probe → enumerate and publish; the
//	         last two run under an in-process singleflight that collapses
//	         concurrent identical requests into one walk
//	respond  (optimize.go) — build the reply from the fresh result or the
//	         rematerialized cached plan
//	record   (optimize.go) — execution feedback and the served plan's metrics
//	account  (optimize.go) — the ledger: counters, labeled series, SLO, log
//	send     (optimize.go) — append the reply (reply.go) and write it
//
// A cache hit does little besides parsing the plan and writing the reply, so
// neither goes through encoding/json's reflection: the plan decoder is
// hand-written (internal/plan), and so is the reply encoder,
// OptimizeResponse.AppendJSON, which writes the bytes encoding/json wrote
// for the tagged struct (FuzzReplyEncoding holds the two equal). Request
// bodies and replies live in buffers reused from a free stack
// (jsonlex.TakeBuffer), and the request log takes typed attributes, so a hit
// allocates little beyond its plan.
//
// One table in resolve.go maps the source that answered to its X-Cache
// value, trace-link reason and serving_requests_total cache label.
//
// lifecycle.go holds the probe endpoints (/healthz, /readyz, /statz,
// /metricz), the store follower that converges a replica fleet onto the
// version its store names ACTIVE, the registration loop that keeps a replica
// discoverable in that store, and every, the one shape of the server's
// background loops; batch.go the slice-at-a-time endpoint. A model
// version becomes the served one through one routine, publish (modelz.go),
// whichever of boot, promote or the follower asks. The merged fleet view is
// not a route: obsctl scrapes every registered replica's /readyz and
// /metricz (internal/fleet), so a serving replica never scrapes its peers.
//
// # Endpoints
//
//   - POST /optimize — optimize a JSON logical plan. Query parameters:
//     deadline_ms (per-request optimization deadline in milliseconds,
//     overriding the server default; the request degrades near the deadline
//     and returns 503 once it is exceeded), risk_lambda (risk-aversion
//     weight λ ≥ 0: plans are scored by predicted mean + λ·spread and
//     pruning keeps near-ties with overlapping predictive intervals; 0, the
//     default, is the point-estimate optimizer), simulate=1 (also run the
//     chosen plan on the simulated cluster), trace=1 (force-retain the
//     request's trace and inline it in the response as the document GET
//     /tracez?id= serves) and nopeer=1 (skip the shared cache tier for this
//     request: no peer probe).
//   - POST /optimize/batch — optimize a slice of plans as one admission
//     unit: members are deduplicated by canonical fingerprint before any
//     enumeration runs and distinct members fan out across the enumeration
//     worker pool (see batch.go). Accepts the same query parameters except
//     trace.
//   - GET /healthz — liveness probe (process is up).
//   - GET /readyz — readiness probe: 200 only while the replica holds a
//     servable model artifact and is not draining; a load balancer fronting
//     N replicas gates traffic on this.
//   - GET /statz — what /metricz cannot hold: the replica ID, build,
//     readiness, last error, worker count, and the admission and tracer
//     configuration and occupancy.
//   - GET /metricz — every count and the SLO state (see Metrics below);
//     ?format=prometheus serves the Prometheus text exposition instead.
//   - GET /tracez — recent retained traces, newest first; ?id= for one
//     (see tracez.go). Accepts both request IDs and W3C trace IDs.
//   - GET /modelz, POST /modelz/promote, GET /modelz/feedback — the model
//     lifecycle admin surface (see modelz.go).
//   - GET /cachez, POST /cachez/purge — the plan cache admin surface
//     (see cachez.go); with peer fill enabled, /cachez also reports the
//     shared-tier counters.
//   - GET /peercache — the shared cache tier's wire endpoint: peers look up
//     a cache entry by fp=&version=&band=, 200 with the entry in
//     internal/peercache's wire format on a hit, 404 on a miss (see
//     peercache.go).
//   - /debug/pprof/ — the net/http/pprof profiling surface, mounted only
//     when the server opts in (roboptd -pprof).
//
// Every response carries an X-Request-Id header; errors are JSON bodies of
// the form {"error": "...", "requestId": "..."}. The optimize endpoints
// accept a W3C traceparent header: the client's trace ID names the
// server-side span tree (retrievable at /tracez?id=<trace ID>), the
// sampled flag forces retention like ?trace=1, and the header is echoed on
// the response (see traceparent handling in optimize.go).
//
// # Metrics
//
// README's "Metrics reference" table lists every series /metricz exports,
// and scripts/metrics_lint.sh keeps it in step with the code. The accounting
// rule behind it: one routine, one instrument per event. Every response of
// the two optimize endpoints passes through account (optimize.go) exactly
// once, and account is the only writer of
// deadline_exceeded_total, shed_total, serving_requests_total,
// serving_latency_ms, the SLO and the request log; the plan cache and the
// peer-fill client likewise keep one registered counter per number they
// report. A fact every reply already carries (a request's model batches,
// memo hits, interval survivors, spread and pool work) is not also a series.
// /cachez is a view: it reads those instruments and keeps no tally of its
// own. The SLO is read only as the slo_* gauges, recomputed on each
// scrape: the objective, the target, the breach verdict and one burn rate
// per rolling window. An admin endpoint's error reply is not an
// optimize request and touches none of them.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/peercache"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/registry"
	"repro/internal/simulator"
)

// maxBodyBytes caps the request body size; oversized plans are rejected with
// 413 before parsing.
const maxBodyBytes = 8 << 20

// Server handles optimization requests. The model is resolved per request
// through a registry.Provider so a promoted or followed artifact can be
// hot-swapped under live traffic.
//
// A replica always runs every serving layer: Provider, PlanCache, Admission,
// Tracer, SLO, Logger, Cluster and Feedback are required, and Handler panics
// naming the first one missing. PeerFill, ModelStore, Budget and
// EnablePprof are the optional ones, the settings a deployment varies.
type Server struct {
	// Provider publishes the active model; each request resolves one
	// immutable snapshot from it and reports that snapshot's version.
	Provider *registry.Provider
	// ModelStore, when set, backs POST /modelz/promote with persisted
	// artifact versions, is what StartStoreWatcher follows and is where
	// RegisterReplicaLoop registers the replica.
	ModelStore *registry.Store
	// Feedback receives one (plan vector, observed runtime) sample per
	// /optimize?simulate=1 request whose simulated run succeeded — the
	// execution-feedback stream GET /modelz/feedback exports for offline
	// retraining.
	Feedback  *registry.Feedback
	Platforms []platform.ID
	Avail     *platform.Availability
	// Cluster runs the chosen plan for /optimize?simulate=1 and reports its
	// simulated runtime.
	Cluster *simulator.Cluster
	// Workers sizes the enumeration worker pool. Zero or negative resolves
	// to runtime.GOMAXPROCS(0) (core.ResolveWorkers); the resolved value is
	// reported by /statz.
	Workers int
	// DefaultDeadline bounds each request's optimization when the client
	// does not pass ?deadline_ms=. Zero means no server-side deadline
	// (the request still inherits the connection's context).
	DefaultDeadline time.Duration
	// Budget is the per-request enumeration budget. If a deadline applies
	// and Budget.SoftDeadline is zero, each enumeration's soft deadline is
	// set to 80% of the time the request has left when it starts, so
	// requests degrade gracefully before the hard deadline kills them.
	Budget core.Budget
	// Admission bounds the optimize endpoints: at most MaxConcurrent
	// requests optimize at once, at most MaxQueue wait, the rest are refused
	// with 429 + Retry-After, and queued requests admitted under pressure are
	// shed to the degraded beam instead of served in full.
	Admission *Admission
	// Tracer records a span tree per optimize call and retains notable ones
	// for GET /tracez. The request ID doubles as the trace ID, so traces join
	// against logs and response bodies.
	Tracer *obs.Tracer
	// Logger receives one structured record per request (requestId, status,
	// latency, degradation, model version) and the model lifecycle's.
	Logger *slog.Logger
	// PlanCache serves structurally repeated plans from a
	// fingerprint-keyed cache instead of re-running the enumeration, and
	// collapses concurrent identical requests into one run. Entries are
	// keyed (fingerprint, modelVersion); publish (modelz.go) activates the
	// served version in it, flash-invalidating stale ones. Responses gain an
	// X-Cache header naming the source that answered and the
	// cachedAt/servedModelVersion fields;
	// ?nocache=1 bypasses the cache for one request. GET /cachez inspects
	// it and POST /cachez/purge empties it (see cachez.go).
	PlanCache *plancache.Cache
	// PeerFill, when set, turns the plan cache into a fleet-shared tier: a
	// local miss consults peer replicas (discovered through the shared
	// store's heartbeat records) over GET /peercache and installs a peer's
	// entry before falling back to enumeration. A key cold fleet-wide is
	// enumerated by each replica that misses it, once per replica thanks to
	// the in-process singleflight. Responses served from a peer carry
	// X-Cache: peer and link the origin enumeration's trace with reason
	// "peer-fill". Nil keeps the serving path byte-identical to a
	// fleet-unaware server; ?nopeer=1 bypasses the tier for one request.
	PeerFill *peercache.Filler
	// AdvertiseAddr is this replica's advertised address.
	//
	// Deprecated: nothing reads it; it stays only so that existing callers
	// still compile.
	AdvertiseAddr string
	// SLO tracks the serving latency objective and its multi-window
	// error-budget burn rate, exposed as the slo_* gauges of /metricz.
	SLO *obs.SLO
	// ReplicaID names this replica in the fleet (roboptd -replica-id): the
	// shared-store registration key, and its row in obsctl's fleet view.
	ReplicaID string
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (roboptd
	// -pprof). Off by default.
	EnablePprof bool

	reqSeq  atomic.Int64
	mOnce   sync.Once
	metrics *obs.Registry
	// adminMu serializes every publish (see modelz.go) and /cachez/purge; the
	// /optimize path never takes it.
	adminMu sync.Mutex
	// unready is set while draining (SetReady(false)); the zero value keeps
	// embedded servers ready by default.
	unready atomic.Bool
	// lastError is the message of the latest failed optimize response, the
	// one /statz field the registry cannot hold; account sets it.
	lastError atomic.Pointer[string]
}

// Metrics returns the server's metric registry (created on first use), the
// data behind /metricz.
func (s *Server) Metrics() *obs.Registry {
	s.mOnce.Do(func() {
		s.metrics = obs.NewRegistry()
		// The trace ring evicts; an exemplar must not outlive its trace.
		s.metrics.ResolveExemplars(func(id string) bool { return s.Tracer.Get(id) != nil })
	})
	return s.metrics
}

// workers returns the resolved enumeration parallelism.
func (s *Server) workers() int { return core.ResolveWorkers(s.Workers) }

// nextReqID mints the next request identifier.
func (s *Server) nextReqID() string {
	return fmt.Sprintf("r%08d", s.reqSeq.Add(1))
}

// OptimizeResponse is the JSON reply of POST /optimize (and of each member
// of POST /optimize/batch).
type OptimizeResponse struct {
	// RequestID identifies the request in logs and metrics (also sent as
	// the X-Request-Id header). Batch members carry "<batchId>.<index>".
	RequestID string `json:"requestId"`
	// ModelVersion names the model artifact that scored this plan — under
	// concurrent hot-swaps, exactly the snapshot this request resolved.
	ModelVersion string `json:"modelVersion"`
	// Assignments maps operator id (slice index) to platform name.
	Assignments []string `json:"assignments"`
	// Conversions lists the data movement operators of the plan.
	Conversions []ConversionJSON `json:"conversions,omitempty"`
	// PredictedRuntimeSec is the model's estimate (the λ-adjusted selection
	// score on risk-aware requests).
	PredictedRuntimeSec float64 `json:"predictedRuntimeSec"`
	// PredictedLoSec/PredictedHiSec/PredictedSpreadSec describe the model's
	// predictive interval for the chosen plan; omitted when the model
	// exposes no uncertainty.
	PredictedLoSec     float64 `json:"predictedLoSec,omitempty"`
	PredictedHiSec     float64 `json:"predictedHiSec,omitempty"`
	PredictedSpreadSec float64 `json:"predictedSpreadSec,omitempty"`
	// RiskLambda is the effective risk-aversion weight behind this plan: the
	// request's λ, or — on cache hits — the λ the cached plan was optimized
	// under (same band, not necessarily the same float).
	RiskLambda float64 `json:"riskLambda,omitempty"`
	// SimulatedRuntimeSec is filled when simulate=1 and the simulated run
	// completed; an OOM or aborted run surfaces via SimulatedLabel only.
	SimulatedRuntimeSec float64 `json:"simulatedRuntimeSec,omitempty"`
	SimulatedLabel      string  `json:"simulatedLabel,omitempty"`
	// Degraded reports that the enumeration budget (or the soft deadline)
	// was exhausted and the plan is best-effort; DegradeReason names the
	// exhausted dimension ("load-shed" when admission pressure shed the
	// request onto the beam up front).
	Degraded      bool   `json:"degraded,omitempty"`
	DegradeReason string `json:"degradeReason,omitempty"`
	// Stats summarizes the enumeration work.
	Stats StatsJSON `json:"stats"`
	// StageMs breaks the optimization latency down by pipeline stage.
	StageMs map[string]float64 `json:"stageMs"`
	// OptimizationMs is the wall-clock optimization latency.
	OptimizationMs float64 `json:"optimizationMs"`
	// TraceID names the request's trace: the remote W3C trace ID when the
	// caller sent a traceparent header, the request ID otherwise. Retained
	// traces resolve via GET /tracez?id=<TraceID>.
	TraceID string `json:"traceId,omitempty"`
	// Trace inlines the request's finished trace when it asked for one with
	// ?trace=1: the document GET /tracez?id=<TraceID> serves, whatever tier
	// answered. An enumeration's optimize span carries the pruning audit
	// trail as its detail; a cache answer is one cache span and a link to
	// the trace that produced the plan.
	Trace *obs.TraceSnapshot `json:"trace,omitempty"`
	// CachedAt timestamps the cache entry that served this response
	// (RFC 3339; present on cache hits and collapsed requests only).
	CachedAt string `json:"cachedAt,omitempty"`
	// ServedModelVersion names the model version that produced the served
	// plan when it came from the cache. It always equals ModelVersion:
	// entries are keyed by model version, so a swap can never pair a
	// cached plan with a model that did not produce it.
	ServedModelVersion string `json:"servedModelVersion,omitempty"`
}

// ConversionJSON is one conversion operator in the reply.
type ConversionJSON struct {
	Name     string  `json:"name"`
	AfterOp  int     `json:"afterOp"`
	BeforeOp int     `json:"beforeOp"`
	Tuples   float64 `json:"tuples"`
}

// StatsJSON mirrors the counter fields of core.Stats. The pool fields
// describe the parallel-enumeration scheduler: rounds and tasks are
// schedule-deterministic, steals and queue depth depend on the Workers
// setting and timing.
type StatsJSON struct {
	VectorsCreated int `json:"vectorsCreated"`
	Merges         int `json:"merges"`
	ModelBatches   int `json:"modelBatches"`
	ModelRows      int `json:"modelRows"`
	MemoHits       int `json:"memoHits"`
	Pruned         int `json:"pruned"`
	IntervalKept   int `json:"intervalKept,omitempty"`
	PeakEnumSize   int `json:"peakEnumSize"`
	PoolRounds     int `json:"poolRounds,omitempty"`
	PoolTasks      int `json:"poolTasks,omitempty"`
	PoolSteals     int `json:"poolSteals,omitempty"`
	PoolQueueDepth int `json:"poolQueueDepth,omitempty"`
}

// ErrorResponse is the JSON body of every error reply.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"requestId"`
}

// required names the Server fields a replica cannot serve without.
var required = [...]string{"Provider", "PlanCache", "Admission", "Tracer", "SLO", "Logger", "Cluster", "Feedback"}

// Handler returns the HTTP handler serving the routes documented in the
// package comment. It panics, naming the field, when a required layer is
// missing, so a misconfigured embedder fails at start-up and not on its first
// request.
func (s *Server) Handler() http.Handler {
	v := reflect.ValueOf(s).Elem()
	for _, name := range required {
		if v.FieldByName(name).IsNil() {
			panic("service: Server." + name + " is required")
		}
	}
	if s.Admission.Metrics == nil {
		s.Admission.Metrics = s.Metrics()
	}
	mux := http.NewServeMux()
	for path, h := range s.routes() {
		mux.HandleFunc(path, h)
	}
	return mux
}

// routes maps every path Handler mounts to its handler. The package
// comment's # Endpoints section names the same paths, and a test holds the
// two equal.
func (s *Server) routes() map[string]http.HandlerFunc {
	routes := map[string]http.HandlerFunc{
		"/optimize":       s.handleOptimize,
		"/optimize/batch": s.handleOptimizeBatch,
		"/healthz":        s.handleHealthz,
		"/readyz":         s.handleReadyz,
		"/statz":          s.handleStatz,
		"/metricz":        s.handleMetricz,
	}
	s.admin(routes, "GET /modelz", s.handleModelz)
	s.admin(routes, "POST /modelz/promote?version=vN", s.handleModelzPromote)
	s.admin(routes, "GET /modelz/feedback", s.handleModelzFeedback)
	s.admin(routes, "GET /tracez", s.handleTracez)
	s.admin(routes, "GET /cachez", s.handleCachez)
	s.admin(routes, "POST /cachez/purge", s.handleCachezPurge)
	s.admin(routes, "GET /peercache?fp=&version=&band=", s.handlePeercache)
	s.registerPprof(routes)
	return routes
}

// admin routes h at usage's path ("POST /modelz/promote?version=vN" is the
// method, the path and a hint of the query) behind the prologue the admin
// endpoints share: mint the request ID, send it as X-Request-Id, and answer
// any other method with a 405 whose error is usage. The path goes to the mux
// bare, so the 405 is this package's ErrorResponse and not the mux's text.
func (s *Server) admin(routes map[string]http.HandlerFunc, usage string, h func(w http.ResponseWriter, r *http.Request, reqID string)) {
	method, target, _ := strings.Cut(usage, " ")
	path, _, _ := strings.Cut(target, "?")
	routes[path] = func(w http.ResponseWriter, r *http.Request) {
		reqID := s.nextReqID()
		w.Header().Set("X-Request-Id", reqID)
		if r.Method != method {
			s.fail(w, reqID, http.StatusMethodNotAllowed, errors.New(usage))
			return
		}
		h(w, r, reqID)
	}
}

// fail writes an error reply as JSON. It counts nothing: the optimize
// endpoints account their failures in account, and an admin endpoint's error
// is not an optimize request.
func (s *Server) fail(w http.ResponseWriter, reqID string, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error(), RequestID: reqID})
}
