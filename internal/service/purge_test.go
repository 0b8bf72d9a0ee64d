package service_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
)

// TestPurgeDuringSingleflight is the regression pinning the admin-lock
// contract: purging the cache while a singleflight leader is mid-enumeration
// must not strand its followers — both the leader and the follower finish
// with a full plan, and the purge returns without waiting on either.
func TestPurgeDuringSingleflight(t *testing.T) {
	gm := newGateModel()
	s := newServer(modelProvider(gm))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := planJSON(t)

	post := func(done chan<- service.OptimizeResponse) {
		resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("optimize: %v", err)
			done <- service.OptimizeResponse{}
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var out service.OptimizeResponse
		if resp.StatusCode != http.StatusOK {
			t.Errorf("optimize status %d (%.200s)", resp.StatusCode, raw)
		} else if err := json.Unmarshal(raw, &out); err != nil {
			t.Errorf("decode: %v", err)
		}
		done <- out
	}

	// The leader enters the enumeration and parks inside the model.
	leader := make(chan service.OptimizeResponse, 1)
	go post(leader)
	<-gm.entered

	// A follower for the same plan joins the leader's flight. There is no
	// observable join event, so give it a moment to reach the singleflight;
	// the assertions below hold either way.
	follower := make(chan service.OptimizeResponse, 1)
	go post(follower)
	time.Sleep(100 * time.Millisecond)

	// Purge while both are in flight. It must return promptly — the admin
	// lock serializes it against swaps, never against the optimize path.
	purged := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/cachez/purge", "application/json", nil)
		if err != nil {
			t.Errorf("purge: %v", err)
			purged <- -1
			return
		}
		resp.Body.Close()
		purged <- resp.StatusCode
	}()
	select {
	case code := <-purged:
		if code != http.StatusOK {
			t.Fatalf("purge status %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("purge blocked behind an in-flight singleflight leader")
	}

	// Release the model: the leader completes and the follower is served —
	// from the leader's flight or by its own enumeration, but never stranded.
	close(gm.gate)
	deadline := time.After(30 * time.Second)
	var got [2]service.OptimizeResponse
	for i, ch := range []chan service.OptimizeResponse{leader, follower} {
		select {
		case got[i] = <-ch:
		case <-deadline:
			t.Fatalf("request %d never completed after purge", i)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	for i, out := range got {
		if len(out.Assignments) == 0 {
			t.Fatalf("request %d returned an empty plan: %+v", i, out)
		}
	}
	if got[0].PredictedRuntimeSec != got[1].PredictedRuntimeSec {
		t.Fatalf("leader and follower disagree on the plan: %g vs %g", got[0].PredictedRuntimeSec, got[1].PredictedRuntimeSec)
	}
}
