package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mlmodel"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/workload"
)

// perLayer declares every per-layer metric a traced run reports, on every
// workload. A layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"plan.decode_us", "us"}, {"plan.decode_allocs", "count"},

	{"plancache.fingerprint_us", "us"}, {"plancache.fingerprint_allocs", "count"},
	{"plancache.get_hit_ns", "ns"}, {"plancache.get_miss_ns", "ns"},
	{"plancache.from_result_us", "us"}, {"plancache.put_us", "us"}, {"plancache.materialize_us", "us"},
	{"plancache.hit_ratio", "ratio"}, {"plancache.evictions", "count"}, {"plancache.collapsed", "count"},
	{"plancache.peer_fills", "count"}, {"plancache.bytes_per_entry", "B"},

	{"core.context_us", "us"}, {"core.optimize_ms", "ms"}, {"core.optimize_allocs", "count"}, {"core.optimize_kb", "kB"},
	{"core.vectorize_us", "us"}, {"core.enumerate_us", "us"}, {"core.merge_us", "us"}, {"core.prune_us", "us"},
	{"core.unvectorize_us", "us"}, {"core.self_ms", "ms"},
	{"core.vectors_created", "count"}, {"core.merges", "count"}, {"core.pruned", "count"}, {"core.peak_enum_size", "count"},
	{"core.model_rows", "count"}, {"core.model_batches", "count"}, {"core.memo_hits", "count"},
	{"core.pool_rounds", "count"}, {"core.pool_tasks", "count"}, {"core.pool_steals", "count"}, {"core.degraded", "count"},
	{"core.risk_optimize_ms", "ms"}, {"core.degraded_optimize_ms", "ms"}, {"core.parallel_speedup_x", "x"},
	{"core.exhaustive_vectors", "count"}, {"core.pruned_vectors", "count"}, {"core.lemma1_exact_ratio", "ratio"},
	{"core.vec_speedup_x", "x"},

	{"mlmodel.infer_ms", "ms"}, {"mlmodel.infer_share", "ratio"},
	{"mlmodel.predict_batch_ns_per_row", "ns"}, {"mlmodel.predict_batch_allocs", "count"},
	{"mlmodel.predict_dist_ns_per_row", "ns"}, {"mlmodel.predict_scalar_ns", "ns"},
	{"mlmodel.train_s", "s"}, {"mlmodel.trees", "count"},

	{"tdgen.generate_s", "s"}, {"tdgen.rows", "count"},

	{"registry.artifact_load_ms", "ms"}, {"registry.artifact_kb", "kB"}, {"registry.snapshot_ns", "ns"},
	{"registry.replicas_us", "us"}, {"registry.claim_us", "us"},

	{"peercache.fill_us", "us"}, {"peercache.fill_miss_us", "us"}, {"peercache.serve_us", "us"},
	{"peercache.wire_bytes", "B"}, {"peercache.peer_hits", "count"}, {"peercache.peer_misses", "count"},
	{"peercache.errors", "count"},

	{"service.handler_us", "us"}, {"service.admission_ns", "ns"}, {"service.encode_us", "us"},
	{"service.encode_allocs", "count"}, {"service.response_bytes", "B"}, {"service.batch8_us", "us"},
	{"service.glue_us", "us"}, {"service.shed", "count"}, {"service.rejected_429", "count"},
	{"service.deadline_503", "count"},

	{"obs.trace_us", "us"}, {"obs.metrics_us", "us"}, {"obs.log_us", "us"}, {"obs.metrics_snapshot_us", "us"},

	{"simulator.run_us", "us"},
	{"baselines.object_enum_ms", "ms"}, {"baselines.rheemix_ms", "ms"},
	{"host.calib_ms", "ms"}, {"host.calib_drift_ratio", "ratio"},
	{"bench.trace_overhead_ratio", "ratio"}, {"bench.layers_sum_ratio", "ratio"},
}

// medianTurns times the functions in turns — f0, f1, ..., f0, f1, ... — reps
// times each after one unrecorded round, and returns each one's median in ms.
func medianTurns(reps int, fs ...func() error) ([]float64, error) {
	ms := make([][]float64, len(fs))
	for rep := -1; rep < reps; rep++ {
		for i, f := range fs {
			t0 := time.Now()
			if err := f(); err != nil {
				return nil, err
			}
			if rep >= 0 {
				ms[i] = append(ms[i], msSince(t0))
			}
		}
	}
	out := make([]float64, len(fs))
	for i := range ms {
		out[i] = median(ms[i])
	}
	return out, nil
}

// medianOf is medianTurns for one function.
func medianOf(reps int, f func() error) (float64, error) {
	ms, err := medianTurns(reps, f)
	if err != nil {
		return 0, err
	}
	return ms[0], nil
}

// probes measures the layer paths no end-to-end workload runs (risk-aware
// and degraded enumeration, the parallel pool, raw model inference, the
// registry's fleet files) and pins the reproduction: Lemma 1 (boundary
// pruning is lossless) and Figure 9a (vectors beat objects at 40 operators).
// They are the same on every workload, so any traced run guards them.
func (e *env) probes(pl map[string]float64, w *window) error {
	// First, while the heap holds nothing but the benchmark itself (both
	// enumerations allocate heavily, so what the collector has to mark decides
	// their ratio): Figure 9a at 40 operators, two platforms, the latency experiments'
	// linear model: vector enumeration against object-graph enumeration under
	// the same model (Rheem-ML), and against RHEEMix with its own cost oracle.
	runtime.GC()
	h := experiments.NewHarness()
	h.Workers = 1
	two := platform.Subset(2)
	avail2 := platform.DefaultAvailability().Restrict(two)
	lm := h.LatencyModel(two)
	p40 := workload.Pipeline(40, 1e9)
	// The three take turns, rep by rep, so that they meet the same collector
	// phases and the same host.
	turns, err := medianTurns(35,
		func() error { _, err := h.RoboptOptimizeWith(p40, two, avail2, lm); return err },
		func() error { _, err := h.RheemMLOptimizeWith(p40, two, avail2, lm); return err },
		func() error { _, err := h.RheemixOptimize(p40, two, avail2); return err })
	if err != nil {
		return err
	}
	vec, obj := turns[0], turns[1]
	pl["baselines.object_enum_ms"] = obj
	pl["baselines.rheemix_ms"] = turns[2]
	pl["core.vec_speedup_x"] = obj / vec
	if vec >= obj {
		w.fail(fmt.Errorf("Fig 9a: vector enumeration %.3f ms does not beat object enumeration %.3f ms at 40 operators", vec, obj))
	}

	store, err := registry.OpenStore(e.fx.StoreDir)
	if err != nil {
		return err
	}
	art, err := store.LoadActive()
	if err != nil {
		return err
	}
	model := art.Model
	batch := mlmodel.Batcher(model)
	bg := context.Background()
	optimize := func(l *plan.Logical, tune func(*core.Context)) (*core.Result, error) {
		cctx, err := core.NewContext(l, e.plats, e.avail)
		if err != nil {
			return nil, err
		}
		cctx.Workers = 1
		if tune != nil {
			tune(cctx)
		}
		return cctx.Optimize(bg, batch)
	}

	// core: the λ>0 and load-shed paths, and the worker pool.
	join := workload.JoinTree(5, 1e9)
	timed := func(tune func(*core.Context)) (float64, error) {
		return medianOf(5, func() error { _, err := optimize(join, tune); return err })
	}
	if pl["core.risk_optimize_ms"], err = timed(func(c *core.Context) { c.Risk = core.Risk{Lambda: 1, KeepOverlap: true} }); err != nil {
		return err
	}
	if pl["core.degraded_optimize_ms"], err = timed(func(c *core.Context) { c.Budget = core.Budget{ForceDegraded: true} }); err != nil {
		return err
	}
	prev := runtime.GOMAXPROCS(2) // the one place the benchmark leaves its single P
	pool, err := medianTurns(9,
		func() error { _, err := optimize(join, nil); return err },
		func() error { _, err := optimize(join, func(c *core.Context) { c.Workers = 2 }); return err })
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	pl["core.parallel_speedup_x"] = pool[0] / pool[1]

	// Lemma 1: pruned enumeration finds the exhaustive optimum on every plan
	// of at most 8 operators.
	small := []*plan.Logical{workload.Pipeline(8, 1e9), workload.RandomDAG(8, 1e9, 1)}
	for _, q := range workload.Catalog() {
		if q.Operators <= 8 {
			small = append(small, q.Build(q.MinBytes))
		}
	}
	exact := 0
	for _, l := range small {
		pruned, err := optimize(l, nil)
		if err != nil {
			return err
		}
		cctx, err := core.NewContext(l, e.plats, e.avail)
		if err != nil {
			return err
		}
		full, err := cctx.OptimizeExhaustive(bg, batch, 0)
		if err != nil {
			return err
		}
		pl["core.pruned_vectors"] += float64(pruned.Stats.VectorsCreated)
		pl["core.exhaustive_vectors"] += float64(full.Stats.VectorsCreated)
		if pruned.Predicted == full.Predicted {
			exact++
		}
	}
	pl["core.lemma1_exact_ratio"] = float64(exact) / float64(len(small))
	if exact != len(small) {
		w.fail(fmt.Errorf("Lemma 1: pruned enumeration matched the exhaustive optimum on %d of %d small plans", exact, len(small)))
	}

	// mlmodel: raw inference over 512 plan vectors of random assignments.
	cctx, err := core.NewContext(workload.Pipeline(20, 1e9), e.plats, e.avail)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	const rows = 512
	X := mlmodel.Matrix{Rows: rows, Cols: e.schema.Len(), Data: make([]float64, rows*e.schema.Len())}
	for r := 0; r < rows; r++ {
		assign := make([]uint8, cctx.Plan.NumOps())
		for id := range assign {
			alts := cctx.Alternatives(plan.OpID(id))
			assign[id] = alts[rng.Intn(len(alts))]
		}
		copy(X.Row(r), cctx.VectorizeExecution(assign).F)
	}
	out := make([][]float64, 4)
	for i := range out {
		out[i] = make([]float64, rows)
	}
	ms, _ := medianOf(9, func() error { batch.PredictBatch(&X, out[0]); return nil })
	pl["mlmodel.predict_batch_ns_per_row"] = ms * 1e6 / rows
	pl["mlmodel.predict_batch_allocs"], _ = allocsPer(3, func() { batch.PredictBatch(&X, out[0]) })
	dist := mlmodel.DistBatcher(model)
	ms, _ = medianOf(5, func() error { dist.PredictBatchDist(&X, out[0], out[1], out[2], out[3]); return nil })
	pl["mlmodel.predict_dist_ns_per_row"] = ms * 1e6 / rows
	ms, _ = medianOf(5, func() error {
		for r := 0; r < rows; r++ {
			out[0][r] = model.Predict(X.Row(r))
		}
		return nil
	})
	pl["mlmodel.predict_scalar_ns"] = ms * 1e6 / rows

	// registry: peer discovery and the fleet-singleflight claim files, in a
	// scratch store of their own.
	dir := filepath.Join(e.outDir, fmt.Sprintf("probe-store-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	scratch, err := registry.OpenStore(dir)
	if err != nil {
		return err
	}
	if err := scratch.RegisterReplica(registry.ReplicaInfo{ID: "probe", Addr: "127.0.0.1:1", StartedAt: time.Now()}); err != nil {
		return err
	}
	ms, err = medianOf(200, func() error { _, err := scratch.Replicas(registry.DefaultReplicaTTL); return err })
	if err != nil {
		return err
	}
	pl["registry.replicas_us"] = ms * 1e3
	claim := 0
	ms, err = medianOf(50, func() error {
		claim++
		key := fmt.Sprintf("probe-%d", claim)
		if ok, _, _, err := scratch.Claim(key, "probe", "127.0.0.1:1", registry.DefaultClaimTTL); err != nil || !ok {
			return fmt.Errorf("bench: claim probe: acquired=%v: %v", ok, err)
		}
		return scratch.ReleaseClaim(key, "probe")
	})
	if err != nil {
		return err
	}
	pl["registry.claim_us"] = ms * 1e3
	return nil
}

// allocProbes counts allocations of the single-layer calls a request makes,
// over the workload's own plans.
func (k *replayKit) allocProbes(sv *serving, pl map[string]float64) error {
	srv := k.rep.srv
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	each := func(f func(s *slot)) (float64, float64) {
		a, kb := allocsPer(1, func() {
			for _, s := range sv.slots {
				f(s)
			}
		})
		return a / float64(len(sv.slots)), kb / float64(len(sv.slots))
	}
	pl["plan.decode_allocs"], _ = each(func(s *slot) {
		_, err := plan.UnmarshalJSONPlan(bytes.NewReader(s.body))
		note(err)
	})
	pl["plancache.fingerprint_allocs"], _ = each(func(s *slot) {
		_, _, err := plancache.Compute(s.l, srv.Platforms, srv.Avail, srv.PlanCache.BandsPerDecade())
		note(err)
	})
	resps := make(map[*slot]*service.OptimizeResponse, len(sv.slots))
	for _, s := range sv.slots {
		var r service.OptimizeResponse
		note(json.Unmarshal(s.last, &r))
		resps[s] = &r
	}
	pl["service.encode_allocs"], _ = each(func(s *slot) {
		k.w.reset()
		note(json.NewEncoder(&k.w).Encode(resps[s]))
	})
	if sv.want == "miss" {
		snap := srv.Provider.Get()
		pl["core.optimize_allocs"], pl["core.optimize_kb"] = each(func(s *slot) {
			cctx, err := core.NewContext(s.l, srv.Platforms, srv.Avail)
			if err == nil {
				cctx.Workers = core.ResolveWorkers(srv.Workers)
				_, err = cctx.OptimizeProvider(context.Background(), snap)
			}
			note(err)
		})
	}
	return firstErr
}

// serviceProbes reads the driven server's own accounting and times the two
// service entry points the workload loop does not: an 8-member batch and a
// metrics scrape.
func (sv *serving) serviceProbes(pl map[string]float64) error {
	var members []json.RawMessage
	for i := 0; i < 8; i++ {
		members = append(members, sv.slots[sv.order[i]].body)
	}
	body, err := json.Marshal(service.BatchRequest{Plans: members})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, "/optimize/batch", nil)
	if err != nil {
		return err
	}
	ms, err := medianOf(5, func() error {
		sv.w.reset()
		sv.body.Reset(body)
		req.Body = &sv.body
		sv.h.ServeHTTP(&sv.w, req)
		if sv.w.code != http.StatusOK {
			return fmt.Errorf("bench: batch probe: HTTP %d: %s", sv.w.code, sv.w.buf.Bytes())
		}
		return nil
	})
	if err != nil {
		return err
	}
	pl["service.batch8_us"] = ms * 1e3
	m := sv.rep.srv.Metrics()
	ms, _ = medianOf(20, func() error { m.Snapshot(); return nil })
	pl["obs.metrics_snapshot_us"] = ms * 1e3
	c := m.Snapshot().Counters
	pl["service.shed"] = float64(c["shed_total"])
	pl["service.rejected_429"] = float64(c["admission_rejected_total"])
	pl["service.deadline_503"] = float64(c["deadline_exceeded_total"])
	return nil
}

// peerProbes times the two sides of the shared cache tier the replay does
// not separate: replica A answering GET /peercache, and a fleet-wide miss.
func (k *replayKit) peerProbes(sv *serving, pl map[string]float64) error {
	a, srv := sv.peerA, k.rep.srv
	version := srv.Provider.Get().Version()
	var us, wire []float64
	for _, s := range sv.slots {
		fp, _, err := plancache.Compute(s.l, srv.Platforms, srv.Avail, srv.PlanCache.BandsPerDecade())
		if err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodGet, "/peercache?fp="+fp.String()+"&version="+version+"&band=", nil)
		if err != nil {
			return err
		}
		a.w.reset()
		t0 := time.Now()
		a.h.ServeHTTP(&a.w, req)
		us = append(us, usSince(t0))
		if a.w.code != http.StatusOK {
			return fmt.Errorf("bench: peercache probe %s: HTTP %d", s.name, a.w.code)
		}
		wire = append(wire, float64(a.w.buf.Len()))
	}
	pl["peercache.serve_us"] = median(us)
	pl["peercache.wire_bytes"] = mean(wire)
	us = us[:0]
	for i := 0; i < 20; i++ {
		absent := plancache.Fingerprint(sha256.Sum256([]byte(fmt.Sprintf("absent-%d", i))))
		t0 := time.Now()
		if _, ok := srv.PlanCache.FillRemote(context.Background(), absent, version, ""); ok {
			return fmt.Errorf("bench: peer answered a fingerprint nobody holds")
		}
		us = append(us, usSince(t0))
	}
	pl["peercache.fill_miss_us"] = median(us)
	return nil
}
