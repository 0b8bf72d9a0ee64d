package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mlmodel"
	"repro/internal/plan"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/workload"
)

// dagJSON marshals a random multi-branch DAG big enough that the parallel
// scheduler actually runs multiple boundary tasks per round (single chains
// collapse to one task and would not exercise the pool).
func dagJSON(t *testing.T, nOps int, seed int64) []byte {
	t.Helper()
	data, err := plan.MarshalJSONPlan(workload.RandomDAG(nOps, 1e7, seed))
	if err != nil {
		t.Fatalf("MarshalJSONPlan: %v", err)
	}
	return data
}

// TestParallelStressModelSwap is the concurrency certificate for the
// parallel enumeration inside the live service: 8 concurrent optimize
// requests, each enumerated on an 8-worker pool, race against every way a
// version is published — a promoter flipping the active model between v1 and
// v2, follower ticks after another process moved ACTIVE, promotions of
// freshly saved versions, the running store watcher — and an admin purging
// the plan cache. The scaled test models make correctness
// observable per response — under version vN (N ≤ 2) the prediction for a
// plan is exactly N x its v1 prediction — so any torn read between the
// enumeration, the model snapshot and the cache shows up as a
// prediction/version mismatch; at quiescence the provider, the plan cache and
// the store's ACTIVE marker name one version. Run under -race
// (CI does) this also certifies the scheduler's memory discipline: per-task
// contexts, arena merges and the round-barrier reduction.
func TestParallelStressModelSwap(t *testing.T) {
	s, ts, st := newLifecycleServer(t)
	defer ts.Close()
	s.Workers = 8
	bootPublish(t, s)
	watchCtx, stopWatcher := context.WithCancel(context.Background())
	defer stopWatcher()
	watcherDone, err := s.StartStoreWatcher(watchCtx, time.Millisecond)
	if err != nil {
		t.Fatalf("StartStoreWatcher: %v", err)
	}

	// Multi-branch DAGs of different shapes; base predictions measured
	// uncached while v1 is active.
	plans := [][]byte{
		dagJSON(t, 16, 42),
		dagJSON(t, 20, 7),
		dagJSON(t, 24, 99),
		dagJSON(t, 18, -5),
	}
	base := make([]float64, len(plans))
	for i, p := range plans {
		_, out, _ := postPlan(t, ts.URL+"/optimize?nocache=1", p)
		if out.ModelVersion != "v1" {
			t.Fatalf("setup: model version %q", out.ModelVersion)
		}
		if out.Stats.PoolRounds < 1 || out.Stats.PoolTasks < out.Stats.PoolRounds {
			t.Fatalf("setup plan %d: pool stats rounds=%d tasks=%d; the DAG did not exercise the scheduler",
				i, out.Stats.PoolRounds, out.Stats.PoolTasks)
		}
		base[i] = out.PredictedRuntimeSec
	}
	scale := map[string]float64{"v1": 1, "v2": 2}
	width := testWidth(t)

	const workers = 8
	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters+1)
	var rounds, tasks atomic.Int64

	stop := make(chan struct{})
	promoterDone := make(chan struct{})
	tick := s.FollowStore()
	go func() {
		defer close(promoterDone)
		versions := []string{"v2", "v1"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			path := "/modelz/promote?version=" + versions[i%2]
			switch i % 6 {
			case 3:
				// Another process moves ACTIVE; a follower tick, racing the
				// running watcher's, converges on it.
				if err := st.Activate(versions[i%2]); err != nil {
					errs <- err
					return
				}
				tick()
				time.Sleep(time.Millisecond)
				continue
			case 5:
				// A version no request has been served by yet.
				art, err := registry.New(scaledLinear(width, float64(3+i)), width, platformNames(3), 0, mlmodel.Metrics{})
				v := ""
				if err == nil {
					v, err = st.Save(art)
				}
				if err != nil {
					errs <- err
					return
				}
				path = "/modelz/promote?version=" + v
			}
			resp, err := http.Post(ts.URL+path, "application/json", nil)
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s: status %d", path, resp.StatusCode)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				pi := (w + i) % len(plans)
				url := ts.URL + "/optimize"
				if (w+i)%5 == 0 {
					// A mix of uncached requests keeps live parallel
					// enumerations in flight throughout, not just during
					// the warm-up misses.
					url += "?nocache=1"
				}
				if w == 0 && i%7 == 3 {
					resp, err := http.Post(ts.URL+"/cachez/purge", "application/json", nil)
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				resp, err := http.Post(url, "application/json", bytes.NewReader(plans[pi]))
				if err != nil {
					errs <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("optimize: status %d (%.120s)", resp.StatusCode, raw)
					continue
				}
				var out service.OptimizeResponse
				if err := json.Unmarshal(raw, &out); err != nil {
					errs <- err
					continue
				}
				// Versions past v2 are the promoter's fresh saves: no exact
				// scale, so the label check below is all there is.
				if want := scale[out.ModelVersion] * base[pi]; want != 0 && out.PredictedRuntimeSec != want {
					errs <- fmt.Errorf("plan %d: version %s predicted %v, want %v — response paired with the wrong model",
						pi, out.ModelVersion, out.PredictedRuntimeSec, want)
					continue
				}
				rounds.Add(int64(out.Stats.PoolRounds))
				tasks.Add(int64(out.Stats.PoolTasks))
				if out.ServedModelVersion != "" && out.ServedModelVersion != out.ModelVersion {
					errs <- fmt.Errorf("servedModelVersion %q != modelVersion %q",
						out.ServedModelVersion, out.ModelVersion)
				}
			}
		}(w)
	}

	wg.Wait()
	close(stop)
	<-promoterDone
	stopWatcher()
	<-watcherDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Quiescence: every publish was one call of one routine under one lock,
	// so the three places a version is named agree.
	served, active := s.Provider.Get().Version(), s.PlanCache.ActiveVersion()
	if marker, err := st.ActiveVersion(); err != nil || served != active || served != marker {
		t.Errorf("at quiescence: provider %q, plan cache %q, store ACTIVE %q (%v)", served, active, marker, err)
	}

	// The stress's own enumerations ran on the pool: their replies carry
	// the pool's work.
	if rounds.Load() == 0 || tasks.Load() == 0 {
		t.Errorf("replies report no pool work under an 8-worker stress: rounds=%d tasks=%d",
			rounds.Load(), tasks.Load())
	}
}
