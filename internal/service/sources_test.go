package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/service"
)

// served is what one answered plan looks like from outside: who served it,
// how it says it was served, and where to look for the rest.
type served struct {
	base     string   // replica that answered
	endpoint string   // "optimize" or "batch"
	cache    string   // X-Cache header, or the batch member's cache field
	traceID  string   // trace of the answered request
	origin   string   // trace of the run that enumerated the plan; "" when the request itself did
	assign   []string // the answered assignments
}

// TestAnswerSources pins the source table: for every source reachable over
// HTTP, the X-Cache value, the trace-link reason and the
// serving_requests_total cache label name the same source, and the plan is
// the one a ?nocache=1&nopeer=1 enumeration of the same body returns.
func TestAnswerSources(t *testing.T) {
	body := planJSON(t)
	try := func(url string) (served, error) {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return served{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return served{}, fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
		}
		var out service.OptimizeResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		return served{endpoint: "optimize", cache: resp.Header.Get("X-Cache"), traceID: out.TraceID, assign: out.Assignments}, err
	}
	post := func(t *testing.T, url string) served {
		t.Helper()
		sv, err := try(url)
		if err != nil {
			t.Fatal(err)
		}
		return sv
	}
	traced := func(t *testing.T) *httptest.Server {
		s := newServer(modelProvider(sumModel{}))
		s.Tracer = obs.NewTracer(16, 1, 0)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	// fleet is replica B of a two-replica fleet whose replica A has already
	// enumerated the plan.
	fleet := func(t *testing.T) (base, origin string) {
		dir := seedPeerStore(t)
		_, tsA := newPeerReplica(t, dir, "ra")
		_, tsB := newPeerReplica(t, dir, "rb")
		return tsB.URL, post(t, tsA.URL+"/optimize").traceID
	}

	for _, tc := range []struct {
		name string
		// cache is the source as X-Cache spells it; link and label are what
		// the trace link and the metric must say for that source.
		cache, link, label string
		// setup primes a fixture and returns the request under test.
		setup func(t *testing.T) func() served
	}{
		{name: "miss", cache: "miss", label: "miss", setup: func(t *testing.T) func() served {
			ts := traced(t)
			return func() served {
				sv := post(t, ts.URL+"/optimize")
				sv.base = ts.URL
				return sv
			}
		}},
		{name: "hit", cache: "hit", link: "cache-origin", label: "hit", setup: func(t *testing.T) func() served {
			ts := traced(t)
			origin := post(t, ts.URL+"/optimize").traceID
			return func() served {
				sv := post(t, ts.URL+"/optimize")
				sv.base, sv.origin = ts.URL, origin
				return sv
			}
		}},
		{name: "collapsed", cache: "collapsed", link: "singleflight-leader", label: "collapsed", setup: func(t *testing.T) func() served {
			gm := newGateModel()
			s := newServer(modelProvider(gm))
			s.Tracer = obs.NewTracer(16, 1, 0)
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)
			return func() served {
				// The leader parks inside the model; the follower misses
				// locally and joins its flight. There is no observable join
				// event, only the follower's cache lookup just before it.
				async := func() <-chan served {
					ch := make(chan served, 1)
					go func() {
						sv, err := try(ts.URL + "/optimize")
						if err != nil {
							t.Error(err)
						}
						ch <- sv
					}()
					return ch
				}
				leader := async()
				<-gm.entered
				follower := async()
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
					var cz struct {
						Stats plancache.Stats `json:"stats"`
					}
					getJSON(t, ts.URL+"/cachez", &cz)
					if cz.Stats.Misses == 2 {
						break
					}
					if time.Now().After(deadline) {
						t.Fatal("follower never reached the cache")
					}
				}
				time.Sleep(100 * time.Millisecond)
				close(gm.gate)
				sv := <-follower
				sv.base, sv.origin = ts.URL, (<-leader).traceID
				return sv
			}
		}},
		{name: "peer", cache: "peer", link: "peer-fill", label: "peer", setup: func(t *testing.T) func() served {
			base, origin := fleet(t)
			return func() served {
				sv := post(t, base+"/optimize")
				sv.base, sv.origin = base, origin
				return sv
			}
		}},
		{name: "dedup", cache: "dedup", link: "batch-dedup-leader", label: "dedup", setup: func(t *testing.T) func() served {
			// The leader is itself peer-filled, so the plan's origin trace is
			// not the batch's own and the duplicate's link is observable.
			base, origin := fleet(t)
			return func() served {
				_, out, raw := postBatch(t, base, "", []json.RawMessage{body, body})
				if len(out.Results) != 2 || out.Results[1].Plan == nil {
					t.Fatalf("batch: %.300s", raw)
				}
				dup := out.Results[1]
				return served{base: base, endpoint: "batch", cache: dup.Cache, traceID: out.TraceID, origin: origin, assign: dup.Plan.Assignments}
			}
		}},
		{name: "cache off", cache: "", label: "none", setup: func(t *testing.T) func() served {
			ts := traced(t)
			return func() served {
				sv := post(t, ts.URL+"/optimize?nocache=1")
				sv.base = ts.URL
				return sv
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fire := tc.setup(t)
			sv := fire()
			if sv.cache != tc.cache {
				t.Fatalf("served as %q, want %q", sv.cache, tc.cache)
			}
			var mz obs.Snapshot
			getJSON(t, sv.base+"/metricz", &mz)
			key := `serving_requests_total{endpoint="` + sv.endpoint + `",outcome="ok",cache="` + tc.label + `"}`
			if got := mz.Counters[key]; got != 1 {
				t.Errorf("%s = %d, want 1", key, got)
			}

			var tr obs.TraceSnapshot
			getJSON(t, sv.base+"/tracez?id="+sv.traceID, &tr)
			linked := false
			for _, l := range tr.Links {
				linked = linked || (l.TraceID == sv.origin && l.Reason == tc.link)
			}
			if tc.link == "" && len(tr.Links) != 0 {
				t.Errorf("trace links = %+v, want none", tr.Links)
			}
			if tc.link != "" && !linked {
				t.Errorf("trace links = %+v, want %s -> %s", tr.Links, tc.link, sv.origin)
			}

			_, ref, _ := postPlan(t, sv.base+"/optimize?nocache=1&nopeer=1", body)
			got, _ := json.Marshal(sv.assign)
			want, _ := json.Marshal(ref.Assignments)
			if !bytes.Equal(got, want) {
				t.Errorf("assignments %s differ from the uncached enumeration's %s", got, want)
			}
		})
	}
}

// TestUnrunnablePlanIs400: a well-formed plan with an operator no
// configured platform implements is the client's error, whether or not the
// cache sits in front of the enumeration that discovers it.
func TestUnrunnablePlanIs400(t *testing.T) {
	for _, query := range []string{"?nocache=1", ""} {
		s := newServer(modelProvider(sumModel{}))
		s.Avail = platform.NewAvailability()
		ts := httptest.NewServer(s.Handler())
		resp, err := http.Post(ts.URL+"/optimize"+query, "application/json", bytes.NewReader(planJSON(t)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ts.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status %d, want 400", query, resp.StatusCode)
		}
	}
}
