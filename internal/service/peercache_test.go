package service_test

import (
	"bytes"
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
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/simulator"
)

// newPeerReplica builds one fleet member with the shared cache tier wired:
// its own store handle over dir, its own plan cache, a peer-fill client
// discovering peers through the store, and a registration so the other
// replicas can discover it. The tracer retains everything, so origin
// traces are always linkable.
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
	s := &service.Server{
		Provider:   p,
		ModelStore: st,
		Platforms:  platform.Subset(3),
		Avail:      platform.UniformAvailability(3),
		Cluster:    simulator.Default(),
		Tracer:     obs.NewTracer(64, 1, 0),
		ReplicaID:  id,
	}
	s.PlanCache = plancache.New(plancache.Config{Metrics: s.Metrics()})
	s.PlanCache.Activate(art.Version)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	addr := strings.TrimPrefix(ts.URL, "http://")
	s.AdvertiseAddr = addr
	filler, err := peercache.New(peercache.Config{
		SelfID:   id,
		SelfAddr: addr,
		Peers:    func() ([]registry.ReplicaInfo, error) { return st.Replicas(0) },
		// Memoized negatives would make the probe sequence timing-dependent
		// across test steps; the memo has its own unit tests.
		NegTTL:  -1,
		Metrics: s.Metrics(),
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

// testClaimKey computes the fleet-singleflight claim key the serving path
// uses for the running-example plan at version/band.
func testClaimKey(t *testing.T, s *service.Server, body []byte, version, band string) (plancache.Fingerprint, string) {
	t.Helper()
	l, err := plan.UnmarshalJSONPlan(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("UnmarshalJSONPlan: %v", err)
	}
	fp, _, err := plancache.Compute(l, s.Platforms, s.Avail, s.PlanCache.BandsPerDecade())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	return fp, service.ClaimKey(fp, version, band)
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
		Enabled bool `json:"enabled"`
		Stats   struct {
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
// probes, no claims, a plain local enumeration.
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
	var mz obs.Snapshot
	getJSON(t, tsB.URL+"/metricz", &mz)
	if mz.Counters["fleet_singleflight_claims_total"] != 0 {
		t.Fatalf("nopeer request took a claim: %d", mz.Counters["fleet_singleflight_claims_total"])
	}
}

// TestFleetSingleflightWait: a replica that loses the claim race polls the
// claim holder and serves the holder's result as a peer fill instead of
// enumerating.
func TestFleetSingleflightWait(t *testing.T) {
	dir := seedPeerStore(t)
	srvA, tsA := newPeerReplica(t, dir, "ra")
	srvB, tsB := newPeerReplica(t, dir, "rb")
	srvB.ClaimWait = 5 * time.Second
	body := planJSON(t)

	// Plant a live claim owned by a "ghost" whose advertised address is A:
	// B must wait behind it and poll A for the result.
	_, key := testClaimKey(t, srvA, body, "v1", "")
	addrA := strings.TrimPrefix(tsA.URL, "http://")
	if acquired, _, _, err := srvA.ModelStore.Claim(key, "ghost", addrA, time.Minute); err != nil || !acquired {
		t.Fatalf("planting claim: %v (acquired=%v)", err, acquired)
	}

	done := make(chan struct{})
	var respB *http.Response
	var gotB service.OptimizeResponse
	go func() {
		defer close(done)
		respB, gotB, _ = postPlan(t, tsB.URL+"/optimize", body)
	}()

	// Let B reach the wait loop, then publish the result on A. The nopeer
	// bypass keeps A itself from queueing behind the ghost claim.
	time.Sleep(150 * time.Millisecond)
	_, first, _ := postPlan(t, tsA.URL+"/optimize?nopeer=1", body)

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("B never finished waiting on the claim")
	}
	if respB.Header.Get("X-Cache") != "peer" {
		t.Fatalf("waiter X-Cache = %q, want peer", respB.Header.Get("X-Cache"))
	}
	if gotB.PredictedRuntimeSec != first.PredictedRuntimeSec {
		t.Fatalf("waiter prediction %g != holder's %g", gotB.PredictedRuntimeSec, first.PredictedRuntimeSec)
	}
	var mz obs.Snapshot
	getJSON(t, tsB.URL+"/metricz", &mz)
	if mz.Counters["fleet_singleflight_waits_total"] < 1 {
		t.Fatalf("fleet_singleflight_waits_total = %d, want >= 1", mz.Counters["fleet_singleflight_waits_total"])
	}
	if mz.Counters["fleet_singleflight_claims_total"] != 0 {
		t.Fatalf("waiter took a claim of its own: %d", mz.Counters["fleet_singleflight_claims_total"])
	}
}

// TestFleetSingleflightTakeover: a claim whose owner crashed (TTL lapsed)
// is reaped by the next cold request, which then enumerates normally.
func TestFleetSingleflightTakeover(t *testing.T) {
	dir := seedPeerStore(t)
	srvB, tsB := newPeerReplica(t, dir, "rb")
	body := planJSON(t)

	_, key := testClaimKey(t, srvB, body, "v1", "")
	if acquired, _, _, err := srvB.ModelStore.Claim(key, "crashed", "127.0.0.1:1", time.Millisecond); err != nil || !acquired {
		t.Fatalf("planting claim: %v (acquired=%v)", err, acquired)
	}
	time.Sleep(10 * time.Millisecond)

	resp, _, _ := postPlan(t, tsB.URL+"/optimize", body)
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("takeover X-Cache = %q, want miss (own enumeration)", resp.Header.Get("X-Cache"))
	}
	var mz obs.Snapshot
	getJSON(t, tsB.URL+"/metricz", &mz)
	if mz.Counters["fleet_singleflight_takeovers_total"] != 1 {
		t.Fatalf("fleet_singleflight_takeovers_total = %d, want 1", mz.Counters["fleet_singleflight_takeovers_total"])
	}
	if mz.Counters["fleet_singleflight_claims_total"] != 1 {
		t.Fatalf("fleet_singleflight_claims_total = %d, want 1", mz.Counters["fleet_singleflight_claims_total"])
	}
	// The claim was released after the entry was published.
	if c, _ := srvB.ModelStore.LoadClaim(key); c != nil {
		t.Fatalf("claim still present after the takeover enumeration: %+v", c)
	}
}

// TestFleetSingleflightSingleEnumeration: a cold fingerprint hit
// concurrently across both replicas enumerates exactly once fleet-wide —
// in-process singleflight collapses same-replica duplicates, the claim
// protocol serializes the replicas.
func TestFleetSingleflightSingleEnumeration(t *testing.T) {
	dir := seedPeerStore(t)
	srvA, tsA := newPeerReplica(t, dir, "ra")
	srvB, tsB := newPeerReplica(t, dir, "rb")
	srvA.ClaimWait = 5 * time.Second
	srvB.ClaimWait = 5 * time.Second
	body := planJSON(t)

	urls := []string{tsA.URL, tsB.URL, tsA.URL, tsB.URL, tsA.URL, tsB.URL}
	dispositions := make([]string, len(urls))
	var wg sync.WaitGroup
	for i, u := range urls {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			resp, _, _ := postPlan(t, u+"/optimize", body)
			dispositions[i] = resp.Header.Get("X-Cache")
		}(i, u)
	}
	wg.Wait()

	misses := 0
	for _, d := range dispositions {
		switch d {
		case "miss":
			misses++
		case "hit", "collapsed", "peer":
		default:
			t.Fatalf("unexpected X-Cache %q in %v", d, dispositions)
		}
	}
	if misses != 1 {
		t.Fatalf("dispositions = %v: %d enumerations, want exactly 1 fleet-wide", dispositions, misses)
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
	s := &service.Server{Model: sumModel{}, Platforms: platform.Subset(3), Avail: platform.UniformAvailability(3), ReplicaID: "ra"}
	s.PlanCache = plancache.New(plancache.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	good := &plancache.CachedPlan{ModelVersion: "v1", Predicted: 1.5, CachedAt: time.Now(), AssignCanon: []uint8{0, 2}, VectorF: []float64{1e-7, 2}}
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
	if cp, err := peercache.DecodeEntry(body); err != nil || cp.Predicted != 1.5 || len(cp.VectorF) != 2 {
		t.Errorf("DecodeEntry(%s) = %+v, %v", body, cp, err)
	}
	if code, body := get(bad); code != http.StatusInternalServerError || !bytes.Contains(body, []byte(`"error"`)) {
		t.Errorf("unencodable entry = %d %s, want a 500 error body", code, body)
	}
}
