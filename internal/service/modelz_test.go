package service_test

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
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mlmodel"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/tdgen"
)

// testWidth is the plan-vector width of the 3-platform test universe.
func testWidth(t *testing.T) int {
	t.Helper()
	sc, err := core.NewSchema(platform.Subset(3))
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return sc.Len()
}

// scaledLinear builds a serializable model predicting scale × sumModel:
// weight i is scale·(i%5), so for any power-of-two scale the prediction is
// exactly scale times the base model's (scaling by 2 only shifts exponents)
// and the argmin plan is identical. That makes the model's identity
// observable in every response: predicted/base == scale.
func scaledLinear(width int, scale float64) *mlmodel.Linear {
	ws := make([]float64, width)
	for i := range ws {
		ws[i] = scale * float64(i%5)
	}
	return &mlmodel.Linear{Weights: ws}
}

func platformNames(n int) []string {
	var out []string
	for _, p := range platform.Subset(n) {
		out = append(out, p.String())
	}
	return out
}

func newArtifact(t *testing.T, width int, scale float64) *registry.Artifact {
	t.Helper()
	a, err := registry.New(scaledLinear(width, scale), width, platformNames(3), 0, mlmodel.Metrics{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return a
}

// newLifecycleServer builds a server with the full lifecycle wired: a store
// holding v1 (scale 1) and v2 (scale 2), a provider serving v1, and a
// feedback buffer.
func newLifecycleServer(t *testing.T) (*service.Server, *httptest.Server, *registry.Store) {
	t.Helper()
	width := testWidth(t)
	st, err := registry.OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	a1, a2 := newArtifact(t, width, 1), newArtifact(t, width, 2)
	for _, a := range []*registry.Artifact{a1, a2} {
		if _, err := st.Save(a); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	if err := st.Activate("v1"); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	p, err := registry.NewProvider(a1)
	if err != nil {
		t.Fatalf("NewProvider: %v", err)
	}
	s := newServer(p)
	s.ModelStore = st
	s.Feedback = registry.NewFeedback(16)
	return s, httptest.NewServer(s.Handler()), st
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d (%.200s)", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func postJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d (%.200s)", url, resp.StatusCode, wantStatus, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("POST %s: decode: %v (%.200s)", url, err, body)
		}
	}
}

// TestModelzLifecycle drives the admin surface end to end: inspect, promote,
// follow a marker moved behind the server's back, label optimize responses,
// and capture execution feedback.
func TestModelzLifecycle(t *testing.T) {
	s, ts, st := newLifecycleServer(t)
	defer ts.Close()

	var mz service.ModelzResponse
	getJSON(t, ts.URL+"/modelz", &mz)
	if mz.Active.Version != "v1" || counter(t, ts.URL, "model_swaps_total") != 0 {
		t.Fatalf("initial modelz = %+v", mz)
	}
	if mz.Store == nil || fmt.Sprint(mz.Store.Versions) != "[v1 v2]" || mz.Store.Active != "v1" {
		t.Fatalf("store section = %+v", mz.Store)
	}
	if mz.Feedback == nil || mz.Feedback.Cap != 16 {
		t.Fatalf("feedback section = %+v", mz.Feedback)
	}

	// The optimize response names the version that scored it, and
	// simulate=1 lands one sample in the feedback buffer.
	var base service.OptimizeResponse
	resp, err := http.Post(ts.URL+"/optimize?simulate=1", "application/json", bytes.NewReader(planJSON(t)))
	if err != nil {
		t.Fatalf("POST optimize: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&base); err != nil {
		t.Fatalf("decode optimize: %v", err)
	}
	resp.Body.Close()
	if base.ModelVersion != "v1" {
		t.Fatalf("modelVersion = %q, want v1", base.ModelVersion)
	}

	// Promote v2: hot-swap plus ACTIVE move; the next response doubles its
	// prediction (scale 2) and carries the new version.
	var sw service.SwapResponse
	postJSON(t, ts.URL+"/modelz/promote?version=v2", http.StatusOK, &sw)
	if !sw.Swapped || sw.Version != "v2" || sw.Previous != "v1" {
		t.Fatalf("promote = %+v", sw)
	}
	if v, _ := st.ActiveVersion(); v != "v2" {
		t.Fatalf("store active = %q after promote", v)
	}
	var out2 service.OptimizeResponse
	resp, err = http.Post(ts.URL+"/optimize?simulate=1", "application/json", bytes.NewReader(planJSON(t)))
	if err != nil {
		t.Fatalf("POST optimize: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out2); err != nil {
		t.Fatalf("decode optimize: %v", err)
	}
	resp.Body.Close()
	if out2.ModelVersion != "v2" {
		t.Fatalf("modelVersion = %q after promote, want v2", out2.ModelVersion)
	}
	if out2.PredictedRuntimeSec != 2*base.PredictedRuntimeSec {
		t.Fatalf("predicted = %g, want exactly 2×%g", out2.PredictedRuntimeSec, base.PredictedRuntimeSec)
	}

	// A follower tick with the served version already active: a no-op.
	tick := s.FollowStore()
	tick()
	if got := s.Provider.Get().Version(); got != "v2" || counter(t, ts.URL, "store_watch_swaps_total") != 0 {
		t.Fatalf("idempotent tick: serving %q after %d follower swaps", got, counter(t, ts.URL, "store_watch_swaps_total"))
	}
	// Move ACTIVE behind the server's back; the next tick picks it up.
	if err := st.Activate("v1"); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	tick()
	if got := s.Provider.Get().Version(); got != "v1" || counter(t, ts.URL, "store_watch_swaps_total") != 1 {
		t.Fatalf("tick after external activate: serving %q after %d follower swaps", got, counter(t, ts.URL, "store_watch_swaps_total"))
	}

	// Feedback: two simulate requests captured, visible in /modelz and
	// /metricz and in the export, which the offline tools read back bit for
	// bit.
	getJSON(t, ts.URL+"/modelz", &mz)
	if mz.Feedback.Len != 2 || counter(t, ts.URL, "feedback_samples_total") != 2 {
		t.Fatalf("feedback after 2 simulate requests = %+v, %d samples counted", mz.Feedback, counter(t, ts.URL, "feedback_samples_total"))
	}
	if n := counter(t, ts.URL, "model_swaps_total"); n != 2 {
		t.Errorf("model_swaps_total = %d, want 2", n)
	}
	fb, err := http.Get(ts.URL + "/modelz/feedback")
	if err != nil {
		t.Fatalf("GET feedback: %v", err)
	}
	defer fb.Body.Close()
	exported, err := tdgen.ReadCSV(fb.Body)
	if err != nil {
		t.Fatalf("ReadCSV(GET /modelz/feedback): %v", err)
	}
	if want := s.Feedback.Dataset(); !reflect.DeepEqual(exported, want) || exported.NumFeatures() != testWidth(t) {
		t.Fatalf("feedback export reads back as %v / %v, want the ring's %v / %v", exported.X, exported.Y, want.X, want.Y)
	}
	raw, err := http.Get(ts.URL + "/modelz")
	if err != nil {
		t.Fatalf("GET modelz: %v", err)
	}
	// State only: the counts are /metricz's, read above.
	var keys struct {
		Retrainer, Swaps json.RawMessage
		Feedback         map[string]json.RawMessage
	}
	err = json.NewDecoder(raw.Body).Decode(&keys)
	raw.Body.Close()
	if _, total := keys.Feedback["total"]; err != nil || keys.Retrainer != nil || keys.Swaps != nil || total {
		t.Errorf("GET /modelz = %+v (%v), want no retrainer, swaps or feedback.total", keys, err)
	}

	// Error paths: unknown version, missing version, wrong methods.
	postJSON(t, ts.URL+"/modelz/promote?version=v9", http.StatusNotFound, nil)
	postJSON(t, ts.URL+"/modelz/promote", http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/modelz/retrain", http.StatusNotFound, nil)
	postJSON(t, ts.URL+"/modelz/reload", http.StatusNotFound, nil)
	postJSON(t, ts.URL+"/modelz", http.StatusMethodNotAllowed, nil)
}

// TestModelzValidatesOnSwap: promoting an artifact whose feature width does
// not match the serving schema is refused, and the served model is untouched.
func TestModelzValidatesOnSwap(t *testing.T) {
	_, ts, st := newLifecycleServer(t)
	defer ts.Close()
	bad, err := registry.New(scaledLinear(7, 1), 7, []string{"java"}, 0, mlmodel.Metrics{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := st.Save(bad); err != nil {
		t.Fatalf("Save: %v", err)
	}
	postJSON(t, ts.URL+"/modelz/promote?version=v3", http.StatusConflict, nil)
	var mz service.ModelzResponse
	getJSON(t, ts.URL+"/modelz", &mz)
	if mz.Active.Version != "v1" || counter(t, ts.URL, "model_swaps_total") != 0 {
		t.Fatalf("failed promote changed the served model: %+v", mz)
	}
}

// TestModelzPromotePinsFallback: a server that booted from the newest
// version via LoadActive's no-marker fallback must persist the ACTIVE
// marker when an operator promotes that same version, even though the
// in-memory swap is a no-op — otherwise the pin silently vanishes on the
// next restart.
func TestModelzPromotePinsFallback(t *testing.T) {
	width := testWidth(t)
	st, err := registry.OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	if _, err := st.Save(newArtifact(t, width, 1)); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// No Activate: boot resolves the newest version through the fallback.
	art, err := st.LoadActive()
	if err != nil || art == nil || art.Version != "v1" {
		t.Fatalf("LoadActive = %+v, %v", art, err)
	}
	p, err := registry.NewProvider(art)
	if err != nil {
		t.Fatalf("NewProvider: %v", err)
	}
	s := newServer(p)
	s.ModelStore = st
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var sw service.SwapResponse
	postJSON(t, ts.URL+"/modelz/promote?version=v1", http.StatusOK, &sw)
	if sw.Swapped || sw.Version != "v1" {
		t.Fatalf("promoting the served version should be a no-op swap: %+v", sw)
	}
	if v, err := st.ActiveVersion(); err != nil || v != "v1" {
		t.Errorf("ACTIVE marker not pinned by the no-op promote: %q, %v", v, err)
	}
}

// TestModelVersionUnversioned: a server whose artifact has no version label
// labels responses "unversioned".
func TestModelVersionUnversioned(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(planJSON(t)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var out service.OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.ModelVersion != "unversioned" {
		t.Errorf("modelVersion = %q, want unversioned", out.ModelVersion)
	}
}

// bootPublish publishes a lifecycle server's artifact the way roboptd boots
// on one read from the store: unpinned, so the plan cache is activated at it.
func bootPublish(t *testing.T, s *service.Server) {
	t.Helper()
	if sw, err := s.Publish(s.Provider.Get().Artifact, false); err != nil || sw.Swapped {
		t.Fatalf("boot publish = %+v, %v", sw, err)
	}
}

// counter reads one counter off /metricz.
func counter(t *testing.T, base, name string) int64 {
	t.Helper()
	var snap obs.Snapshot
	getJSON(t, base+"/metricz", &snap)
	return snap.Counters[name]
}

// checkPublished asserts what every way of publishing a version must leave
// behind: the provider, the plan cache and (when the version is a stored one)
// the store's ACTIVE marker name the same version; a plan cached under the
// outgoing version is not served — the repeat of body is one miss scored by
// the new version, then hits; nothing was dropped by the cache; and
// publishing the same payload again changes and counts nothing.
func checkPublished(t *testing.T, s *service.Server, base string, st *registry.Store, body []byte, want string) {
	t.Helper()
	if got := s.Provider.Get().Version(); got != want {
		t.Fatalf("provider serves %q, want %q", got, want)
	}
	if got := s.PlanCache.ActiveVersion(); got != want {
		t.Errorf("plan cache is active at %q, provider serves %q", got, want)
	}
	if st != nil {
		if got, err := st.ActiveVersion(); err != nil || got != want {
			t.Errorf("store ACTIVE = %q, %v; provider serves %q", got, err, want)
		}
	}
	for i, wantX := range []string{"miss", "hit"} {
		resp, out, _ := postPlan(t, base+"/optimize", body)
		if got := resp.Header.Get("X-Cache"); got != wantX {
			t.Errorf("request %d after publish: X-Cache = %q, want %q", i+1, got, wantX)
		}
		if out.ModelVersion != want || (out.ServedModelVersion != "" && out.ServedModelVersion != want) {
			t.Errorf("request %d after publish: modelVersion %q, servedModelVersion %q, want %q",
				i+1, out.ModelVersion, out.ServedModelVersion, want)
		}
	}
	if d := s.PlanCache.Snapshot().Dropped; d != 0 {
		t.Errorf("plan cache dropped %d inserts: it was not told the version moved", d)
	}

	again := s.Provider.Get().Artifact
	if st != nil {
		var err error
		if again, err = st.Load(want); err != nil {
			t.Fatalf("Load(%s): %v", want, err)
		}
	}
	served, gen, counted := s.Provider.Get(), s.PlanCache.Generation(), counter(t, base, "model_swaps_total")
	sw, err := s.Publish(again, st != nil)
	if err != nil || sw.Swapped || sw.Version != want {
		t.Errorf("re-publishing the served payload = %+v, %v; want a no-op at %s", sw, err, want)
	}
	if s.Provider.Get() != served || s.PlanCache.Generation() != gen || counter(t, base, "model_swaps_total") != counted {
		t.Errorf("re-publishing the served payload bumped something: snapshot replaced %v, generation %d→%d, model_swaps_total %d→%d",
			s.Provider.Get() != served, gen, s.PlanCache.Generation(), counted, counter(t, base, "model_swaps_total"))
	}
}

// TestPublishEntryPoints is the one table behind fleet invariant 1 ("never
// serve a plan scored by a non-active model"): boot, promote, one follower
// tick and the running store watcher each leave the same post-conditions,
// because each is a call of the one publish routine. Every row starts from a
// server serving v1 (store: v1, v2; ACTIVE v1) with one plan cached under
// v1; act drives one entry point and returns the server it left serving
// want.
func TestPublishEntryPoints(t *testing.T) {
	type act func(t *testing.T, s *service.Server, ts *httptest.Server, st *registry.Store) (*service.Server, *httptest.Server)
	for _, tc := range []struct {
		name      string
		want      string
		wantSwaps int64
		act       act
	}{
		// A replica booting on a -model file the store has not seen: a second
		// server over the same store, doing what roboptd's main does with the
		// artifact bootArtifact hands it. The provider was built on the
		// artifact, so publishing it swaps nothing.
		{"boot", "v3", 0, func(t *testing.T, _ *service.Server, _ *httptest.Server, st *registry.Store) (*service.Server, *httptest.Server) {
			art := newArtifact(t, testWidth(t), 4)
			p, err := registry.NewProvider(art)
			if err != nil {
				t.Fatalf("NewProvider: %v", err)
			}
			s := newServer(p)
			s.ModelStore = st
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)
			if sw, err := s.Publish(art, true); err != nil || sw.Swapped || sw.Version != "v3" {
				t.Fatalf("boot publish = %+v, %v", sw, err)
			}
			return s, ts
		}},
		{"promote", "v2", 1, func(t *testing.T, s *service.Server, ts *httptest.Server, _ *registry.Store) (*service.Server, *httptest.Server) {
			var sw service.SwapResponse
			postJSON(t, ts.URL+"/modelz/promote?version=v2", http.StatusOK, &sw)
			if !sw.Swapped || sw.Version != "v2" || sw.Previous != "v1" {
				t.Fatalf("promote = %+v", sw)
			}
			return s, ts
		}},
		// Another process moves ACTIVE; one follower tick, driven by hand,
		// converges on it.
		{"follower tick", "v2", 1, func(t *testing.T, s *service.Server, ts *httptest.Server, st *registry.Store) (*service.Server, *httptest.Server) {
			if err := st.Activate("v2"); err != nil {
				t.Fatalf("Activate: %v", err)
			}
			s.FollowStore()()
			if n := counter(t, ts.URL, "store_watch_swaps_total"); n != 1 {
				t.Fatalf("store_watch_swaps_total = %d after one tick, want 1", n)
			}
			return s, ts
		}},
		{"watcher tick", "v2", 1, func(t *testing.T, s *service.Server, ts *httptest.Server, st *registry.Store) (*service.Server, *httptest.Server) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done, err := s.StartStoreWatcher(ctx, time.Millisecond)
			if err != nil {
				t.Fatalf("StartStoreWatcher: %v", err)
			}
			if err := st.Activate("v2"); err != nil {
				t.Fatalf("Activate: %v", err)
			}
			for deadline := time.Now().Add(5 * time.Second); counter(t, ts.URL, "store_watch_swaps_total") == 0; {
				if time.Now().After(deadline) {
					t.Fatal("the watcher never converged on v2")
				}
				time.Sleep(time.Millisecond)
			}
			cancel()
			<-done
			return s, ts
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts, st := newLifecycleServer(t)
			defer ts.Close()
			bootPublish(t, s)
			body := planJSON(t)
			postPlan(t, ts.URL+"/optimize", body)
			if resp, _, _ := postPlan(t, ts.URL+"/optimize", body); resp.Header.Get("X-Cache") != "hit" {
				t.Fatalf("warm-up X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
			}
			before := counter(t, ts.URL, "model_swaps_total")
			s, ts = tc.act(t, s, ts, st)
			if got := counter(t, ts.URL, "model_swaps_total") - before; got != tc.wantSwaps {
				t.Errorf("model_swaps_total moved by %d, want %d", got, tc.wantSwaps)
			}
			checkPublished(t, s, ts.URL, st, body, tc.want)
		})
	}
}

// TestPromoteMarkerFailure: publish moves the store's ACTIVE marker before it
// swaps the provider, so a marker that cannot be written fails the promote
// with nothing changed — the replica keeps serving (and caching under) the
// version its peers can still converge on. At the parent commit the swap came
// first: the reply was a 500 from a replica already serving v2.
func TestPromoteMarkerFailure(t *testing.T) {
	s, ts, st := newLifecycleServer(t)
	defer ts.Close()
	bootPublish(t, s)
	body := planJSON(t)
	postPlan(t, ts.URL+"/optimize", body)

	// A non-empty directory where the marker goes: the rename onto it fails,
	// for root too.
	marker := filepath.Join(st.Dir(), "ACTIVE")
	if err := os.Remove(marker); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := os.MkdirAll(filepath.Join(marker, "x"), 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	postJSON(t, ts.URL+"/modelz/promote?version=v2", http.StatusInternalServerError, nil)

	var mz service.ModelzResponse
	getJSON(t, ts.URL+"/modelz", &mz)
	if mz.Active.Version != "v1" {
		t.Errorf("failed promote changed the served model: active %s", mz.Active.Version)
	}
	if got := s.PlanCache.ActiveVersion(); got != "v1" {
		t.Errorf("failed promote moved the plan cache to %q", got)
	}
	if n := counter(t, ts.URL, "model_swaps_total"); n != 0 {
		t.Errorf("failed promote counted model_swaps_total = %d", n)
	}
	if resp, out, _ := postPlan(t, ts.URL+"/optimize", body); resp.Header.Get("X-Cache") != "hit" || out.ModelVersion != "v1" {
		t.Errorf("after the failed promote: X-Cache %q, modelVersion %q; want a v1 hit",
			resp.Header.Get("X-Cache"), out.ModelVersion)
	}
}

// TestStressHotSwapUnderLoad is the torn-read check of the hot-swap path: 64
// goroutines POST /optimize while a swapper publishes a scale-1 artifact (v1)
// and a scale-2 artifact (v2) in turn as fast as it can, with a scale-4
// artifact (v4) every few flips. The models choose the same plan but predict
// exactly a power of 2 apart, so every response must satisfy
// predicted == base·scale(version): any response whose
// label does not match the model that scored it — or any torn read — fails;
// and with the plan cache on, every cached answer must come from the version
// the response names. Run with -race this also exercises the provider's
// atomic publication against the cache's flash invalidation.
func TestStressHotSwapUnderLoad(t *testing.T) {
	width := testWidth(t)
	a1, a2, a4 := newArtifact(t, width, 1), newArtifact(t, width, 2), newArtifact(t, width, 4)
	a1.Version, a2.Version, a4.Version = "v1", "v2", "v4"
	p, err := registry.NewProvider(a1)
	if err != nil {
		t.Fatalf("NewProvider: %v", err)
	}
	s := newServer(p)
	bootPublish(t, s)
	// Room for the whole burst: this test checks labels, not refusals.
	s.Admission = &service.Admission{MaxConcurrent: 256}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	valid := planJSON(t)

	// Baseline prediction under v1, before any concurrency.
	var base service.OptimizeResponse
	resp, err := client.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(valid))
	if err != nil {
		t.Fatalf("baseline POST: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&base); err != nil {
		t.Fatalf("baseline decode: %v", err)
	}
	resp.Body.Close()
	if base.ModelVersion != "v1" || base.PredictedRuntimeSec <= 0 {
		t.Fatalf("baseline = %+v", base)
	}

	// Swapper: flip artifacts until the load is done, publishing v4 now and
	// then. flips counts its publishes; the load paces itself on it, so that
	// cache hits, much faster than a publish, still spread over many of them.
	done := make(chan struct{})
	var flips atomic.Int64
	var swapperWG sync.WaitGroup
	swapperWG.Add(1)
	go func() {
		defer swapperWG.Done()
		defer flips.Store(math.MaxInt32) // never leave the load waiting
		arts := [2]*registry.Artifact{a2, a1}
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := s.Publish(arts[i%2], false); err != nil {
				t.Errorf("Publish: %v", err)
				return
			}
			flips.Add(1)
			if i%8 == 3 || i%8 == 6 {
				if _, err := s.Publish(a4, false); err != nil {
					t.Errorf("Publish: %v", err)
					return
				}
				flips.Add(1)
			}
		}
	}()

	const goroutines = 64
	const perG = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	versionSeen := map[string]int{}
	var mu sync.Mutex
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				for flips.Load() < int64(3*i) {
					runtime.Gosched()
				}
				resp, err := client.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(valid))
				if err != nil {
					errs <- err
					return
				}
				var out service.OptimizeResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errs <- err
					continue
				}
				if out.ServedModelVersion != "" && out.ServedModelVersion != out.ModelVersion {
					errs <- fmt.Errorf("servedModelVersion %q != modelVersion %q", out.ServedModelVersion, out.ModelVersion)
					continue
				}
				scale := map[string]float64{"v1": 1, "v2": 2, "v4": 4}[out.ModelVersion]
				if scale == 0 {
					errs <- fmt.Errorf("unknown model version %q", out.ModelVersion)
					continue
				}
				if out.PredictedRuntimeSec != scale*base.PredictedRuntimeSec {
					errs <- fmt.Errorf("version %s predicted %g, want exactly %g — response labeled with a model that did not score it",
						out.ModelVersion, out.PredictedRuntimeSec, scale*base.PredictedRuntimeSec)
					continue
				}
				mu.Lock()
				versionSeen[out.ModelVersion]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(done)
	swapperWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	swaps := s.Metrics().Snapshot().Counters["model_swaps_total"]
	if swaps < 2 {
		t.Errorf("swapper only swapped %d times", swaps)
	}
	if versionSeen["v4"] == 0 {
		t.Error("no response was scored by v4: the load never raced its publish")
	}
	t.Logf("responses: %v, swaps=%d", versionSeen, swaps)
	if n := versionSeen["v1"] + versionSeen["v2"] + versionSeen["v4"]; n != goroutines*perG {
		t.Errorf("accounted responses = %d, want %d", n, goroutines*perG)
	}
	// Quiescence: whatever was published last, the cache follows the provider.
	if got, want := s.PlanCache.ActiveVersion(), p.Get().Version(); got != want {
		t.Errorf("plan cache is active at %q, provider serves %q", got, want)
	}
}
