package service_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/peercache"
	"repro/internal/plancache"
	"repro/internal/registry"
	"repro/internal/service"
)

// newPeerReplica builds one fleet member with the shared cache tier wired:
// its own store handle over dir, its own plan cache, a peer-fill client
// discovering peers through the store, and a registration so the other
// replicas can discover it. The tracer retains everything, so origin
// traces are always linkable, and ?simulate=1 lands execution feedback.
func newPeerReplica(t *testing.T, dir, id string) (*service.Server, *httptest.Server) {
	t.Helper()
	st, err := registry.OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	art, err := st.LoadActive()
	if err != nil || art == nil {
		t.Fatalf("LoadActive: %v (art=%v)", err, art)
	}
	p, err := registry.NewProvider(art)
	if err != nil {
		t.Fatalf("NewProvider: %v", err)
	}
	s := newServer(p)
	s.ModelStore = st
	s.Feedback = registry.NewFeedback(16)
	s.Tracer = obs.NewTracer(64, 1, 0)
	s.ReplicaID = id
	s.PlanCache.Activate(art.Version)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	addr := strings.TrimPrefix(ts.URL, "http://")
	filler, err := peercache.New(peercache.Config{
		SelfID:   id,
		SelfAddr: addr,
		Peers:    func() ([]registry.ReplicaInfo, error) { return st.Replicas(0) },
		Metrics:  s.Metrics(),
	})
	if err != nil {
		t.Fatalf("peercache.New: %v", err)
	}
	s.PlanCache.SetRemoteFiller(filler)
	s.PeerFill = filler
	if err := st.RegisterReplica(registry.ReplicaInfo{ID: id, Addr: addr}); err != nil {
		t.Fatalf("RegisterReplica: %v", err)
	}
	return s, ts
}

// seedPeerStore populates a store directory with v1 (scale 1) and v2
// (scale 2), v1 active — the scaledLinear pair whose predictions make the
// serving model observable in every response.
func seedPeerStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := registry.OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	width := testWidth(t)
	for _, scale := range []float64{1, 2} {
		if _, err := st.Save(newArtifact(t, width, scale)); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	if err := st.Activate("v1"); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	return dir
}

// TestPeerFillServesFromPeer is the tentpole acceptance path: replica A
// enumerates a plan once; replica B then serves the same plan from A's
// cache (X-Cache: peer) without enumerating, installs it locally, links
// A's origin trace as "peer-fill", and reports the fill everywhere the
// operator looks (/cachez, /metricz).
func TestPeerFillServesFromPeer(t *testing.T) {
	dir := seedPeerStore(t)
	_, tsA := newPeerReplica(t, dir, "ra")
	_, tsB := newPeerReplica(t, dir, "rb")
	body := planJSON(t)

	respA, first, _ := postPlan(t, tsA.URL+"/optimize", body)
	if respA.Header.Get("X-Cache") != "miss" {
		t.Fatalf("cold A X-Cache = %q, want miss", respA.Header.Get("X-Cache"))
	}
	if first.TraceID == "" {
		t.Fatal("A's enumeration retained no trace — the origin link has nothing to point at")
	}

	// B has never seen the plan: a local miss, served from A over the tier.
	respB, got, _ := postPlan(t, tsB.URL+"/optimize?trace=1", body)
	if respB.Header.Get("X-Cache") != "peer" {
		t.Fatalf("B X-Cache = %q, want peer", respB.Header.Get("X-Cache"))
	}
	if got.ModelVersion != "v1" || got.ServedModelVersion != "v1" {
		t.Fatalf("peer-served versions = %q/%q, want v1/v1", got.ModelVersion, got.ServedModelVersion)
	}
	if got.PredictedRuntimeSec != first.PredictedRuntimeSec {
		t.Fatalf("peer-served prediction %g != origin %g", got.PredictedRuntimeSec, first.PredictedRuntimeSec)
	}
	if len(got.Assignments) != len(first.Assignments) {
		t.Fatalf("peer-served assignment shape differs: %v vs %v", got.Assignments, first.Assignments)
	}
	for i := range got.Assignments {
		if got.Assignments[i] != first.Assignments[i] {
			t.Fatalf("peer-served assignment differs at %d: %v vs %v", i, got.Assignments, first.Assignments)
		}
	}

	// The peer-filled request's trace links the origin enumeration.
	var snap obs.TraceSnapshot
	getJSON(t, tsB.URL+"/tracez?id="+got.TraceID, &snap)
	foundLink := false
	for _, l := range snap.Links {
		if l.Reason == "peer-fill" && l.TraceID == first.TraceID {
			foundLink = true
		}
	}
	if !foundLink {
		t.Fatalf("peer-fill trace link to %s missing: %+v", first.TraceID, snap.Links)
	}

	// The entry is installed locally: the next identical request is a plain
	// local hit, no network.
	if resp, _, _ := postPlan(t, tsB.URL+"/optimize", body); resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("post-fill X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	}

	// Observability: metrics and the /cachez peer sections.
	var mz obs.Snapshot
	getJSON(t, tsB.URL+"/metricz", &mz)
	if mz.Counters["peer_fill_hits_total"] != 1 {
		t.Fatalf("peer_fill_hits_total = %d, want 1", mz.Counters["peer_fill_hits_total"])
	}
	if mz.Counters["plan_cache_peer_fills_total"] != 1 {
		t.Fatalf("plan_cache_peer_fills_total = %d, want 1", mz.Counters["plan_cache_peer_fills_total"])
	}
	var cz struct {
		Stats struct {
			PeerFills int64 `json:"peerFills"`
		} `json:"stats"`
		PeerFill *peercache.Stats `json:"peerFill"`
	}
	getJSON(t, tsB.URL+"/cachez", &cz)
	if cz.Stats.PeerFills != 1 {
		t.Fatalf("/cachez peerFills = %d, want 1", cz.Stats.PeerFills)
	}
	if cz.PeerFill == nil || cz.PeerFill.Hits != 1 {
		t.Fatalf("/cachez peerFill section = %+v, want hits 1", cz.PeerFill)
	}
	// A answered the probe without its own hit/miss accounting moving.
	var mzA obs.Snapshot
	getJSON(t, tsA.URL+"/metricz", &mzA)
	if mzA.Counters["peer_serve_total"] < 1 {
		t.Fatalf("peer_serve_total on A = %d, want >= 1", mzA.Counters["peer_serve_total"])
	}
	if mzA.Counters["plan_cache_hits_total"] != 0 {
		t.Fatalf("A's probe-serving distorted its hit count: %d", mzA.Counters["plan_cache_hits_total"])
	}
}

// TestPeerFillBypass: ?nopeer=1 keeps a request off the tier entirely — no
// probes, a plain local enumeration.
func TestPeerFillBypass(t *testing.T) {
	dir := seedPeerStore(t)
	_, tsA := newPeerReplica(t, dir, "ra")
	srvB, tsB := newPeerReplica(t, dir, "rb")
	body := planJSON(t)

	postPlan(t, tsA.URL+"/optimize", body) // A has the entry
	resp, _, _ := postPlan(t, tsB.URL+"/optimize?nopeer=1", body)
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("nopeer X-Cache = %q, want miss (local enumeration)", resp.Header.Get("X-Cache"))
	}
	if s := srvB.PeerFill.Snapshot(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("nopeer request still touched the tier: %+v", s)
	}
}

// TestConcurrentColdKeyAcrossReplicas: a cold fingerprint hit concurrently
// across two replicas enumerates at most once per replica — the in-process
// singleflight collapses same-replica duplicates, and a replica that misses
// while its peer is still enumerating enumerates for itself — and every
// answer, whichever tier gave it, is byte-equal to a fresh enumeration.
func TestConcurrentColdKeyAcrossReplicas(t *testing.T) {
	dir := seedPeerStore(t)
	_, tsA := newPeerReplica(t, dir, "ra")
	_, tsB := newPeerReplica(t, dir, "rb")
	body := planJSON(t)
	planOf := func(r service.OptimizeResponse) string {
		b, err := json.Marshal(struct {
			A []string
			C []service.ConversionJSON
			P float64
		}{r.Assignments, r.Conversions, r.PredictedRuntimeSec})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	_, fresh, _ := postPlan(t, tsA.URL+"/optimize?nocache=1&nopeer=1", body)
	want := planOf(fresh)

	urls := []string{tsA.URL, tsB.URL, tsA.URL, tsB.URL, tsA.URL, tsB.URL}
	dispositions := make([]string, len(urls))
	bodies := make([][]byte, len(urls))
	var wg sync.WaitGroup
	for i, u := range urls {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			resp, err := http.Post(u+"/optimize", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			dispositions[i] = resp.Header.Get("X-Cache")
			if bodies[i], err = io.ReadAll(resp.Body); err != nil {
				t.Error(err)
			}
		}(i, u)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	misses := map[string]int{}
	for i, d := range dispositions {
		switch d {
		case "miss":
			misses[urls[i]]++
		case "hit", "collapsed", "peer":
		default:
			t.Fatalf("unexpected X-Cache %q in %v", d, dispositions)
		}
		var got service.OptimizeResponse
		if err := json.Unmarshal(bodies[i], &got); err != nil {
			t.Fatalf("answer %d: %v (%.200s)", i, err, bodies[i])
		}
		if p := planOf(got); p != want {
			t.Fatalf("answer %d (%s) = %s, want the fresh enumeration's %s", i, d, p, want)
		}
	}
	for u, n := range misses {
		if n > 1 {
			t.Fatalf("dispositions = %v: %d enumerations on %s, want at most 1 per replica", dispositions, n, u)
		}
	}
}

// TestPeerFillModelSwapRace pins the version-guard invariant under -race:
// while one replica hot-swaps models mid-flight, every response must be
// internally consistent — the v1 model predicts the baseline, v2 exactly
// twice it, and no response may pair one version's label with the other's
// prediction. After B's swap, A (still on v1) keeps answering B's probes
// with v1 entries, which B must refuse to install or serve.
func TestPeerFillModelSwapRace(t *testing.T) {
	dir := seedPeerStore(t)
	_, tsA := newPeerReplica(t, dir, "ra")
	_, tsB := newPeerReplica(t, dir, "rb")
	body := planJSON(t)

	// Baseline under v1, warmed through A so B's cold requests peer-fill.
	_, first, _ := postPlan(t, tsA.URL+"/optimize", body)
	base := first.PredictedRuntimeSec
	if base <= 0 {
		t.Fatalf("baseline prediction %g", base)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, got, _ := postPlan(t, tsB.URL+"/optimize", body)
				switch got.ModelVersion {
				case "v1":
					if got.PredictedRuntimeSec != base {
						t.Errorf("v1 response predicts %g, want the baseline %g", got.PredictedRuntimeSec, base)
					}
				case "v2":
					if got.PredictedRuntimeSec != 2*base {
						t.Errorf("v2 response predicts %g, want exactly 2x the baseline %g", got.PredictedRuntimeSec, base)
					}
				default:
					t.Errorf("unexpected model version %q", got.ModelVersion)
				}
				if got.ServedModelVersion != "" && got.ServedModelVersion != got.ModelVersion {
					t.Errorf("cross-version serve: requested %q, served %q", got.ModelVersion, got.ServedModelVersion)
				}
			}
		}()
	}

	// Promote v2 on B mid-hammer; A stays pinned to v1.
	time.Sleep(50 * time.Millisecond)
	var swap service.SwapResponse
	postJSON(t, tsB.URL+"/modelz/promote?version=v2", 200, &swap)
	if !swap.Swapped || swap.Version != "v2" {
		t.Fatalf("promote = %+v", swap)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Settled state: B serves v2 at exactly 2x, even though its only peer
	// still holds (and offers) v1 entries.
	_, after, _ := postPlan(t, tsB.URL+"/optimize", body)
	if after.ModelVersion != "v2" || after.PredictedRuntimeSec != 2*base {
		t.Fatalf("post-swap response %q/%g, want v2 at %g", after.ModelVersion, after.PredictedRuntimeSec, 2*base)
	}
}

// TestPeercacheEndpointBody: a hit is answered in peercache's wire format,
// and an entry that format cannot carry is a 500 with the usual error body,
// not an empty 200.
func TestPeercacheEndpointBody(t *testing.T) {
	s := newServer(modelProvider(sumModel{}))
	s.ReplicaID = "ra"
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	good := &plancache.CachedPlan{ModelVersion: "v1", Predicted: 1.5, CachedAt: time.Now(), AssignCanon: []uint8{0, 2}}
	bad := &plancache.CachedPlan{ModelVersion: "v1", Predicted: math.NaN(), CachedAt: time.Now(), AssignCanon: []uint8{1}}
	good.Fingerprint[0], bad.Fingerprint[0] = 1, 2
	s.PlanCache.Put(good)
	s.PlanCache.Put(bad)

	get := func(cp *plancache.CachedPlan) (int, []byte) {
		resp, err := http.Get(ts.URL + "/peercache?fp=" + cp.Fingerprint.String() + "&version=v1&band=")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type = %q", ct)
		}
		return resp.StatusCode, body
	}
	code, body := get(good)
	want, _ := peercache.AppendEntry(nil, good, "ra")
	if code != http.StatusOK || !bytes.Equal(body, want) {
		t.Errorf("hit = %d %s, want 200 %s", code, body, want)
	}
	if cp, err := peercache.DecodeEntry(body); err != nil || cp.Predicted != 1.5 || len(cp.AssignCanon) != 2 {
		t.Errorf("DecodeEntry(%s) = %+v, %v", body, cp, err)
	}
	if code, body := get(bad); code != http.StatusInternalServerError || !bytes.Contains(body, []byte(`"error"`)) {
		t.Errorf("unencodable entry = %d %s, want a 500 error body", code, body)
	}
}
