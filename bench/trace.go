package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/service"
)

// span is one benchmark-side span: a call into one layer's public function,
// recorded from outside the program. Spans of one request share op; parent
// names the span that caused it ("" for the request's root).
type span struct {
	Op      int                `json:"op"`
	Name    string             `json:"name"`
	Parent  string             `json:"parent"`
	StartNs int64              `json:"startNs"`
	EndNs   int64              `json:"endNs"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the tracing overhead is measured: the same replay
// with and without it.
type recorder struct {
	base  time.Time
	spans []span
	op    int
	stack []int
}

func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	parent := ""
	if n := len(r.stack); n > 0 {
		parent = r.spans[r.stack[n-1]].Name
	}
	r.stack = append(r.stack, len(r.spans))
	r.spans = append(r.spans, span{Op: r.op, Name: name, Parent: parent, StartNs: time.Since(r.base).Nanoseconds()})
}

func (r *recorder) end() {
	if r == nil {
		return
	}
	i := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[i].EndNs = time.Since(r.base).Nanoseconds()
}

// rename renames the innermost open span, for calls whose outcome names them.
func (r *recorder) rename(name string) {
	if r != nil {
		r.spans[r.stack[len(r.stack)-1]].Name = name
	}
}

// attr attaches a number to the innermost open span.
func (r *recorder) attr(key string, v float64) {
	if r == nil {
		return
	}
	s := &r.spans[r.stack[len(r.stack)-1]]
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
}

// rootSpan is the name of every request's root; its self time is the
// replay's own bookkeeping and is not counted as a layer.
const rootSpan = "request"

// selfTimes folds the spans of ops [from, to) into per-name self time in
// microseconds, one sample per op: a span's duration minus its children's.
func selfTimes(spans []span, acc *samples, slotOf func(op int) int) {
	type key struct {
		op   int
		name string
	}
	self := map[key]float64{}
	for _, s := range spans {
		d := float64(s.EndNs-s.StartNs) / 1e3
		self[key{s.Op, s.Name}] += d
		if s.Parent != "" {
			self[key{s.Op, s.Parent}] -= d
		}
	}
	for k, us := range self {
		acc.add(k.name, slotOf(k.op), us)
	}
}

// samples collects per-request-slot observations of named quantities. A
// quantity's value is the mean over slots of each slot's median, so the
// plan mix is weighted as replayed and a stalled request does not count.
type samples struct {
	slots int
	v     map[string][][]float64
}

func newSamples(slots int) *samples { return &samples{slots: slots, v: map[string][][]float64{}} }

func (a *samples) add(name string, slot int, x float64) {
	if a.v[name] == nil {
		a.v[name] = make([][]float64, a.slots)
	}
	a.v[name][slot] = append(a.v[name][slot], x)
}

func (a *samples) value(name string) float64 {
	// Slots the quantity never occurred on contribute zero: the value is
	// per replayed request, not per occurrence.
	sum := 0.0
	for _, s := range a.v[name] {
		sum += median(s)
	}
	return sum / float64(a.slots)
}

// allocsPer runs f n times and returns the allocations and kilobytes per
// call, as runtime.MemStats counts them.
func allocsPer(n int, f func()) (allocs, kb float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(n)
}

// Each traced phase replays between minCycles and maxCycles whole cycles: 5
// cycles of 64 plans is 320 requests, and 40 keep the span buffer small.
const (
	minCycles = 5
	maxCycles = 40
)

// runTraced is the per-layer run. It runs the layer probes in a fresh
// process, sets the workload up once, times the real end-to-end operation and
// replays the same requests by calling each layer's public functions in
// pipeline order under benchmark-side spans — once recording, once not.
func runTraced(e *env, def workloadDef, o options) (*runRecord, error) {
	rec := &runRecord{Workload: def.name, Why: def.why, Trace: 1, TailQ: def.tailQ}
	rec.CalibMs[0] = calibrate()
	pl := map[string]float64{}
	w := &window{}
	if err := e.probes(pl, w); err != nil {
		return nil, err
	}
	w.refMs = append(w.refMs, refKernel())
	in, _, err := setupOnce(e, def, o.seed)
	if err != nil {
		return nil, err
	}
	defer in.close()
	if err := in.reference(); err != nil {
		return nil, err
	}
	var spans []span
	if in.sv != nil {
		spans, err = traceServing(e, in.sv, o, pl, w)
	} else {
		spans, err = traceFig9(in.fig, o, pl, w)
	}
	if err != nil {
		return nil, err
	}
	for _, err := range in.validate() {
		w.fail(err)
	}
	pl["mlmodel.train_s"] = e.fx.TrainS
	pl["mlmodel.trees"] = float64(e.fx.Trees)
	pl["tdgen.generate_s"] = e.fx.GenerateS
	pl["tdgen.rows"] = float64(e.fx.Rows)
	rec.CalibMs[1] = calibrate()

	// Per-layer timings are reference-scaled once, by the run's median
	// reference-kernel time (sampled around the probes and after every
	// cycle): coarser than the untraced run's chunks, enough to compare
	// layers across runs. Ratios are unaffected; the fixture's training times
	// (unit s) were measured in another process and stay raw.
	w.refMs = append(w.refMs, rec.CalibMs[0], rec.CalibMs[1])
	scale := refNominalMs / median(w.refMs)
	rec.Metrics = map[string]metric{}
	for _, m := range perLayer {
		v := pl[m.name]
		if m.unit == "ns" || m.unit == "us" || m.unit == "ms" {
			v *= scale
		}
		rec.Metrics[m.name] = metric{v, m.unit}
		delete(pl, m.name)
	}
	rec.Metrics["host.calib_ms"] = metric{median(w.refMs), "ms"}
	rec.Metrics["host.calib_drift_ratio"] = metric{rec.CalibMs[1] / rec.CalibMs[0], "ratio"}
	for name := range pl {
		return nil, fmt.Errorf("bench: per-layer metric %q is not declared", name)
	}
	rec.finish(w)
	if err := writeJSON(filepath.Join(o.outDir, "trace-"+def.name+".json"), spans); err != nil {
		return nil, err
	}
	return rec, nil
}

// phase runs whole cycles until budget has elapsed, at least minCycles and at
// most maxCycles of them, and returns how many it ran.
func phase(budget time.Duration, cycle func(c int)) int {
	start, c := time.Now(), 0
	for c < minCycles || (c < maxCycles && time.Since(start) < budget) {
		cycle(c)
		c++
	}
	return c
}

// traceServing produces the per-layer numbers of a serving workload.
func traceServing(e *env, sv *serving, o options, pl map[string]float64, w *window) ([]span, error) {
	n := len(sv.order)
	budget := time.Duration(o.seconds * 0.75 * float64(time.Second))
	acc := newSamples(len(sv.slots))
	slotOf := func(op int) int { return sv.order[op%n] }

	// A second replica booted the same way, whose parts the replay calls
	// directly instead of through its handler.
	kit, err := e.newReplayKit(sv)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ { // pre-fill / warm-up, unrecorded
		if err := kit.replay(nil, slotOf(i), sv.slots[slotOf(i)], nil); err != nil {
			return nil, err
		}
	}
	// Every cycle runs the same requests three ways back to back, so the
	// three are compared under the same host conditions: through the real
	// handler (checked like the untraced run), layer by layer under spans,
	// and layer by layer without the recorder (the difference is what
	// tracing costs).
	var respBytes float64
	rec := &recorder{base: time.Now()}
	runtime.GC()
	cycles := phase(budget, func(c int) {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			err := sv.op(i)
			acc.add("handler", slotOf(i), usSince(t0))
			if err != nil {
				w.fail(err)
			}
			respBytes += float64(sv.w.buf.Len())
		}
		for i := 0; i < n; i++ {
			rec.op = c*n + i
			s := sv.slots[slotOf(i)]
			if err := kit.replay(rec, slotOf(i), s, acc); err != nil {
				w.fail(fmt.Errorf("replay %s: %w", s.name, err))
			}
		}
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := kit.replay(nil, slotOf(i), sv.slots[slotOf(i)], nil); err != nil {
				w.fail(err)
			}
			acc.add("untraced", slotOf(i), usSince(t0))
		}
		w.attempted += 2 * n
		w.passes++
		w.refMs = append(w.refMs, refKernel())
	})
	selfTimes(rec.spans, acc, slotOf)
	pl["service.handler_us"] = acc.value("handler")
	pl["service.response_bytes"] = respBytes / float64(cycles*n)

	layers := 0.0
	for name, m := range spanMetric {
		layers += acc.value(name)
		pl[m.name] = acc.value(name) * m.scale
	}
	pl["core.self_ms"] = (acc.value("core.optimize") - acc.value("infer_us")) / 1e3
	pl["mlmodel.infer_ms"] = acc.value("infer_us") / 1e3
	if opt := acc.value("core.optimize"); opt > 0 {
		pl["mlmodel.infer_share"] = acc.value("infer_us") / opt
	}
	for _, name := range coreStats {
		pl["core."+name] = acc.value(name)
	}
	pl["bench.layers_sum_ratio"] = layers / pl["service.handler_us"]
	pl["service.glue_us"] = pl["service.handler_us"] - layers
	pl["bench.trace_overhead_ratio"] = acc.value("request.total") / acc.value("untraced")

	kit.cacheMetrics(pl)
	if err := kit.allocProbes(sv, pl); err != nil {
		return nil, err
	}
	if err := sv.serviceProbes(pl); err != nil {
		return nil, err
	}
	if sv.peerA != nil {
		if err := kit.peerProbes(sv, pl); err != nil {
			return nil, err
		}
	}
	pl["registry.artifact_load_ms"] = sv.rep.loadMs
	pl["registry.artifact_kb"] = sv.rep.artKB
	t0 := time.Now()
	for _, x := range sv.executions() {
		e.cluster.Run(x)
	}
	pl["simulator.run_us"] = usSince(t0) / float64(len(sv.slots))
	return firstOps(rec.spans, minCycles*n), nil
}

// firstOps keeps the spans of the first n requests: enough to read, small
// enough to commit to memory and disk in one piece.
func firstOps(spans []span, n int) []span {
	for i, s := range spans {
		if s.Op >= n {
			return spans[:i]
		}
	}
	return spans
}

// spanMetric maps a replay span name to the per-layer metric that reports
// its mean self time per request (scale converts from microseconds).
var spanMetric = map[string]struct {
	name  string
	scale float64
}{
	"service.admission":     {"service.admission_ns", 1e3},
	"plan.decode":           {"plan.decode_us", 1},
	"core.context":          {"core.context_us", 1},
	"plancache.fingerprint": {"plancache.fingerprint_us", 1},
	"obs.trace":             {"obs.trace_us", 1},
	"obs.metrics":           {"obs.metrics_us", 1},
	"obs.log":               {"obs.log_us", 1},
	"registry.snapshot":     {"registry.snapshot_ns", 1e3},
	"plancache.get_hit":     {"plancache.get_hit_ns", 1e3},
	"plancache.get_miss":    {"plancache.get_miss_ns", 1e3},
	"peercache.fill":        {"peercache.fill_us", 1},
	"core.optimize":         {"core.optimize_ms", 1e-3},
	"plancache.from_result": {"plancache.from_result_us", 1},
	"plancache.put":         {"plancache.put_us", 1},
	"plancache.materialize": {"plancache.materialize_us", 1},
	"service.encode":        {"service.encode_us", 1},
}

// coreStats are the per-request means read from core.Result.Stats.
var coreStats = []string{
	"vectorize_us", "enumerate_us", "merge_us", "prune_us", "unvectorize_us",
	"vectors_created", "merges", "pruned", "peak_enum_size", "model_rows", "model_batches",
	"memo_hits", "pool_rounds", "pool_tasks", "pool_steals", "degraded",
}

// addCoreStats records one enumeration's public stage timings and counters.
func addCoreStats(acc *samples, slot int, res *core.Result) {
	if acc == nil {
		return
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	st, t := res.Stats, res.Stats.Timings
	for name, v := range map[string]float64{
		"vectorize_us": us(t.Vectorize), "enumerate_us": us(t.Enumerate), "merge_us": us(t.Merge),
		"prune_us": us(t.Prune), "unvectorize_us": us(t.Unvectorize), "infer_us": us(t.Infer),
		"vectors_created": float64(st.VectorsCreated), "merges": float64(st.Merges), "pruned": float64(st.Pruned),
		"peak_enum_size": float64(st.PeakEnumSize), "model_rows": float64(st.ModelRows),
		"model_batches": float64(st.ModelBatches), "memo_hits": float64(st.MemoHits),
		"pool_rounds": float64(st.Par.Rounds), "pool_tasks": float64(st.Par.Tasks), "pool_steals": float64(st.Par.Steals),
	} {
		acc.add(name, slot, v)
	}
	degraded := 0.0
	if res.Degraded {
		degraded = 1
	}
	acc.add("degraded", slot, degraded)
}

// replayKit is a second replica booted like the driven one whose parts —
// admission, tracer, provider, plan cache, metric registry, SLO, logger —
// the replay calls directly.
type replayKit struct {
	rep *replica
	w   respWriter
	seq int
}

// newReplayKit boots the driven replica's twin: same cache, and the same
// peer tier (sharing replica A) when the driven one has it.
func (e *env) newReplayKit(sv *serving) (*replayKit, error) {
	rep, err := e.boot("bench-replay", sv.rep.cache)
	if err != nil {
		return nil, err
	}
	if sv.rep.srv.PeerFill != nil {
		if err := enablePeerFill(rep); err != nil {
			return nil, err
		}
	}
	k := &replayKit{rep: rep}
	k.w.hdr = http.Header{}
	return k, nil
}

// replay serves one request the way service.handleOptimize and runOptimize
// do, as a sequence of calls into each layer's public API; slot is s's index
// in acc. rec and acc may be nil.
func (k *replayKit) replay(rec *recorder, slot int, s *slot, acc *samples) error {
	srv := k.rep.srv
	t0 := time.Now()
	rec.begin(rootSpan)
	defer func() {
		rec.end()
		if acc != nil {
			acc.add("request.total", slot, usSince(t0))
		}
	}()
	k.seq++
	reqID := fmt.Sprintf("r%08d", k.seq)
	k.w.reset()
	k.w.hdr.Set("X-Request-Id", reqID)

	rec.begin("plan.decode")
	l, err := plan.UnmarshalJSONPlan(bytes.NewReader(s.body))
	rec.end()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), srv.DefaultDeadline)
	defer cancel()

	rec.begin("service.admission")
	_, release := srv.Admission.Acquire(ctx)
	rec.end()
	if release == nil {
		return errors.New("admission refused the replayed request")
	}
	defer release()

	rec.begin("core.context")
	cctx, err := core.NewContext(l, srv.Platforms, srv.Avail)
	rec.end()
	if err != nil {
		return err
	}
	cctx.Workers = core.ResolveWorkers(srv.Workers)
	cctx.Budget = core.Budget{SoftDeadline: srv.DefaultDeadline * 4 / 5}

	rec.begin("plancache.fingerprint")
	fp, canon, err := plancache.Compute(l, srv.Platforms, srv.Avail, srv.PlanCache.BandsPerDecade())
	rec.end()
	if err != nil {
		return err
	}

	rec.begin("obs.trace")
	tr := srv.Tracer.Start(reqID)
	cctx.Trace = tr
	rec.end()

	rec.begin("registry.snapshot")
	snap := srv.Provider.Get()
	rec.end()
	version := snap.Version()

	rec.begin("plancache.get_miss")
	cp, hit := srv.PlanCache.GetBand(fp, version, "")
	if hit {
		rec.rename("plancache.get_hit")
	}
	rec.end()

	how := "hit"
	var res *core.Result
	if !hit {
		how = "miss"
		if srv.PeerFill != nil {
			rec.begin("peercache.fill")
			cp, hit = srv.PlanCache.FillRemote(ctx, fp, version, "")
			rec.end()
			how = "peer"
		}
	}
	if !hit {
		how = "miss"
		rec.begin("core.optimize")
		res, err = cctx.OptimizeProvider(ctx, snap)
		if err == nil {
			rec.attr("inferNs", float64(res.Stats.Timings.Infer.Nanoseconds()))
			rec.attr("mergeNs", float64(res.Stats.Timings.Merge.Nanoseconds()))
			rec.attr("pruneNs", float64(res.Stats.Timings.Prune.Nanoseconds()))
		}
		rec.end()
		if err != nil {
			return err
		}
		addCoreStats(acc, slot, res)
		rec.begin("plancache.from_result")
		ncp, err := plancache.FromResult(fp, canon, version, res)
		rec.end()
		if err != nil {
			return err
		}
		ncp.TraceID = tr.ID
		rec.begin("plancache.put")
		srv.PlanCache.Put(ncp)
		rec.end()
	}

	var x *plan.Execution
	if res != nil {
		x = res.Execution
	} else {
		rec.begin("plancache.materialize")
		x, err = cp.Materialize(l, canon, srv.Platforms)
		rec.end()
		if err != nil {
			return err
		}
		rec.begin("obs.trace")
		sp := tr.StartSpan(nil, "cache")
		sp.SetStr("result", how)
		sp.SetStr("fingerprint", cp.Fingerprint.Short())
		sp.SetStr("modelVersion", cp.ModelVersion)
		sp.SetFloat("age_ms", float64(time.Since(cp.CachedAt).Microseconds())/1000)
		sp.End()
		if cp.TraceID != "" && cp.TraceID != tr.ID {
			tr.AddLink(cp.TraceID, "cache-origin")
		}
		rec.end()
	}
	rec.begin("obs.trace")
	retained := srv.Tracer.Finish(tr, false, "")
	rec.end()

	ms := msSince(t0)
	resp := service.OptimizeResponse{
		RequestID:      reqID,
		ModelVersion:   version,
		StageMs:        map[string]float64{},
		OptimizationMs: ms,
		TraceID:        tr.ID,
	}
	if res != nil {
		resp.PredictedRuntimeSec = res.Predicted
		resp.PredictedLoSec, resp.PredictedHiSec, resp.PredictedSpreadSec = res.PredictedDist.Lo, res.PredictedDist.Hi, res.PredictedDist.Spread
		st := res.Stats
		resp.Stats = service.StatsJSON{
			VectorsCreated: st.VectorsCreated, Merges: st.Merges, ModelBatches: st.ModelBatches,
			ModelRows: st.ModelRows, MemoHits: st.MemoHits, Pruned: st.Pruned, IntervalKept: st.IntervalKept,
			PeakEnumSize: st.PeakEnumSize, PoolRounds: st.Par.Rounds, PoolTasks: st.Par.Tasks,
			PoolSteals: st.Par.Steals, PoolQueueDepth: st.Par.MaxQueueDepth,
		}
		resp.StageMs = st.Timings.Milliseconds()
	} else {
		resp.ServedModelVersion = cp.ModelVersion
		resp.CachedAt = cp.CachedAt.UTC().Format(time.RFC3339Nano)
		resp.PredictedRuntimeSec = cp.Predicted
		resp.PredictedLoSec, resp.PredictedHiSec, resp.PredictedSpreadSec = cp.PredictedDist.Lo, cp.PredictedDist.Hi, cp.PredictedDist.Spread
	}
	for _, p := range x.Assign {
		resp.Assignments = append(resp.Assignments, p.String())
	}
	for _, conv := range x.Conversions {
		resp.Conversions = append(resp.Conversions, service.ConversionJSON{
			Name: conv.Name(), AfterOp: int(conv.AfterOp), BeforeOp: int(conv.BeforeOp), Tuples: conv.Card,
		})
	}

	rec.begin("obs.metrics")
	k.recordMetrics(version, how, ms, res, retained, tr)
	rec.end()

	rec.begin("obs.log")
	if res != nil {
		srv.Logger.Info("optimize", "requestId", reqID, "status", http.StatusOK, "ms", ms, "modelVersion", version,
			"degraded", res.Degraded, "shed", false, "traced", true, "predictedSec", res.Predicted)
	} else {
		srv.Logger.Info("optimize", "requestId", reqID, "status", http.StatusOK, "ms", ms, "modelVersion", version,
			"cache", how, "predictedSec", resp.PredictedRuntimeSec)
	}
	rec.end()

	rec.begin("service.encode")
	k.w.hdr.Set("X-Cache", how)
	k.w.hdr.Set("Content-Type", "application/json")
	err = json.NewEncoder(&k.w).Encode(resp)
	rec.end()
	if err != nil {
		return err
	}
	if !bytes.Equal(assignments(k.w.buf.Bytes()), s.wantAssign) {
		return errors.New("replayed assignment differs from the ?nocache=1 enumeration")
	}
	return nil
}

// recordMetrics feeds the registry what service.record, cachedOut and
// countServing feed it for one successful request.
func (k *replayKit) recordMetrics(version, how string, ms float64, res *core.Result, retained bool, tr *obs.Trace) {
	srv := k.rep.srv
	m := srv.Metrics()
	m.Counter("requests_total").Inc()
	m.Counter("model_requests_" + version).Inc()
	m.CounterVec("serving_model_requests_total", "version").With(version).Inc()
	m.Histogram("optimize_ms").Observe(ms)
	if res != nil {
		st := res.Stats
		m.Histogram("vectors_created").Observe(float64(st.VectorsCreated))
		m.Histogram("model_rows").Observe(float64(st.ModelRows))
		if st.ModelBatches > 0 {
			m.Histogram("model_batch_rows").Observe(float64(st.ModelRows) / float64(st.ModelBatches))
		}
		m.Counter("model_batches_total").Add(int64(st.ModelBatches))
		m.Counter("model_rows_total").Add(int64(st.ModelRows))
		m.Counter("memo_hits_total").Add(int64(st.MemoHits))
		m.Counter("interval_kept_total").Add(int64(st.IntervalKept))
		m.Histogram("plan_spread").Observe(res.PredictedDist.Spread)
		m.Histogram("plan_interval_width").Observe(res.PredictedDist.Hi - res.PredictedDist.Lo)
		m.Counter("pool_rounds_total").Add(int64(st.Par.Rounds))
		m.Counter("pool_tasks_total").Add(int64(st.Par.Tasks))
		m.Counter("pool_steals_total").Add(int64(st.Par.Steals))
		if st.Par.MaxQueueDepth > 0 {
			m.Histogram("pool_queue_depth").Observe(float64(st.Par.MaxQueueDepth))
		}
		for stage, v := range st.Timings.Milliseconds() {
			m.Histogram("stage_" + stage + "_ms").Observe(v)
		}
	}
	exemplar := ""
	if retained {
		exemplar = tr.ID
	}
	if how == "peer" {
		m.HistogramVec("peer_fill_ms", "outcome").With("hit").ObserveExemplar(ms, exemplar)
	}
	m.CounterVec("serving_requests_total", "endpoint", "outcome", "cache").With("optimize", "ok", how).Inc()
	m.HistogramVec("serving_latency_ms", "endpoint").With("optimize").ObserveExemplar(ms, exemplar)
	srv.SLO.Record(ms, true)
}

// cacheMetrics reads the replay cache's public counters.
func (k *replayKit) cacheMetrics(pl map[string]float64) {
	st := k.rep.srv.PlanCache.Snapshot()
	if total := st.Hits + st.Misses; total > 0 {
		pl["plancache.hit_ratio"] = float64(st.Hits) / float64(total)
	}
	pl["plancache.evictions"] = float64(st.Evictions)
	pl["plancache.collapsed"] = float64(st.Collapsed)
	pl["plancache.peer_fills"] = float64(st.PeerFills)
	if st.Entries > 0 {
		pl["plancache.bytes_per_entry"] = float64(st.Bytes) / float64(st.Entries)
	}
	if f := k.rep.srv.PeerFill; f != nil {
		ps := f.Snapshot()
		pl["peercache.peer_hits"] = float64(ps.Hits)
		pl["peercache.peer_misses"] = float64(ps.Misses)
		pl["peercache.errors"] = float64(ps.Errors + ps.Timeouts)
	}
}

// traceFig9 produces the per-layer numbers of the library-path workload.
func traceFig9(f *fig9, o options, pl map[string]float64, w *window) ([]span, error) {
	n := len(f.order)
	budget := time.Duration(o.seconds * 0.75 * float64(time.Second))
	acc := newSamples(len(f.plans))
	slotOf := func(op int) int { return f.order[op%n] }

	replay := func(rec *recorder, slot int, acc *samples) error {
		t0 := time.Now()
		rec.begin(rootSpan)
		defer func() {
			rec.end()
			if acc != nil {
				acc.add("request.total", slot, usSince(t0))
			}
		}()
		rec.begin("core.context")
		cctx, err := core.NewContext(f.plans[slot], f.plats, f.avail)
		rec.end()
		if err != nil {
			return err
		}
		cctx.Workers = f.h.Workers
		rec.begin("core.optimize")
		res, err := cctx.Optimize(context.Background(), f.model)
		rec.end()
		if err != nil {
			return err
		}
		addCoreStats(acc, slot, res)
		if res.Predicted != f.want[slot].Predicted {
			return errors.New("replayed plan differs from the reference enumeration")
		}
		return nil
	}
	// Every cycle runs the pass three ways back to back (see traceServing).
	// The object-graph enumeration is not timed here: with three kinds of
	// pass interleaved its comparison would not be like for like, and the
	// Fig 9a probe makes it in every traced run anyway.
	rec := &recorder{base: time.Now()}
	runtime.GC()
	phase(budget, func(c int) {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			err := f.op(i)
			acc.add("handler", slotOf(i), usSince(t0))
			if err != nil {
				w.fail(err)
			}
		}
		for i := 0; i < n; i++ {
			rec.op = c*n + i
			if err := replay(rec, slotOf(i), acc); err != nil {
				w.fail(err)
			}
		}
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := replay(nil, slotOf(i), nil); err != nil {
				w.fail(err)
			}
			acc.add("untraced", slotOf(i), usSince(t0))
		}
		w.attempted += 2 * n
		w.passes++
		w.refMs = append(w.refMs, refKernel())
	})
	selfTimes(rec.spans, acc, slotOf)
	pl["service.handler_us"] = acc.value("handler")
	pl["core.context_us"] = acc.value("core.context")
	pl["core.optimize_ms"] = acc.value("core.optimize") / 1e3
	pl["core.self_ms"] = (acc.value("core.optimize") - acc.value("infer_us")) / 1e3
	pl["mlmodel.infer_ms"] = acc.value("infer_us") / 1e3
	pl["mlmodel.infer_share"] = acc.value("infer_us") / acc.value("core.optimize")
	for _, name := range coreStats {
		pl["core."+name] = acc.value(name)
	}
	layers := acc.value("core.context") + acc.value("core.optimize")
	pl["bench.layers_sum_ratio"] = layers / pl["service.handler_us"]
	pl["service.glue_us"] = pl["service.handler_us"] - layers
	pl["bench.trace_overhead_ratio"] = acc.value("request.total") / acc.value("untraced")
	pl["core.optimize_allocs"], pl["core.optimize_kb"] = allocsPer(n, func() {
		cctx, err := core.NewContext(f.plans[1], f.plats, f.avail)
		if err == nil {
			cctx.Workers = f.h.Workers
			_, err = cctx.Optimize(context.Background(), f.model)
		}
		if err != nil {
			w.fail(err)
		}
	})
	t0 := time.Now()
	for _, r := range f.want {
		f.e.cluster.Run(r.Execution)
	}
	pl["simulator.run_us"] = usSince(t0) / float64(len(f.want))
	return firstOps(rec.spans, minCycles*n), nil
}
