package service_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mlmodel"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/workload"
)

// gateModel blocks every prediction until gate is closed and signals the
// first call through entered — the handle tests use to hold a request
// in-flight deterministically.
type gateModel struct {
	entered chan struct{}
	gate    chan struct{}
	once    *sync.Once
}

func newGateModel() gateModel {
	return gateModel{entered: make(chan struct{}), gate: make(chan struct{}), once: &sync.Once{}}
}

func (m gateModel) Predict(f []float64) float64 {
	m.once.Do(func() { close(m.entered) })
	<-m.gate
	return sumModel{}.Predict(f)
}

func (m gateModel) PredictBatchDist(X *mlmodel.Matrix, mean, spread, lo, hi []float64) {
	pointKernel(m.Predict, X, mean, spread, lo, hi)
}

// TestAdmissionSaturationHTTP saturates a one-slot server with a burst and
// checks the three admission outcomes at the HTTP surface: full-quality
// 200s, shed 200s that carry a valid degraded plan with reason "load-shed",
// and 429s with a Retry-After hint — and that the admission counters
// reconcile exactly with what the clients saw.
func TestAdmissionSaturationHTTP(t *testing.T) {
	s := &service.Server{
		Model:     slowSumModel{d: 200 * time.Microsecond},
		Platforms: platform.Subset(3),
		Avail:     platform.UniformAvailability(3),
		Admission: &service.Admission{
			MaxConcurrent: 1,
			MaxQueue:      3,
			// shedAt = ceil(0.01·3) = 1: every request that has to queue is
			// shed, so the test is not timing-sensitive about which ones.
			ShedFraction: 0.01,
			RetryAfter:   7 * time.Second,
		},
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := planJSON(t)
	nOps := len(workload.RunningExample().Ops)

	const burst = 12
	type reply struct {
		status     int
		retryAfter string
		resp       service.OptimizeResponse
	}
	replies := make([]reply, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			replies[i] = reply{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
			if resp.StatusCode == http.StatusOK {
				if err := json.Unmarshal(raw, &replies[i].resp); err != nil {
					t.Errorf("request %d: decode: %v (%.200s)", i, err, raw)
				}
			}
		}(i)
	}
	wg.Wait()

	var ok, shed, rejected int64
	for i, r := range replies {
		switch r.status {
		case http.StatusOK:
			ok++
			if len(r.resp.Assignments) != nOps {
				t.Fatalf("request %d: %d assignments, want %d", i, len(r.resp.Assignments), nOps)
			}
			if r.resp.DegradeReason == core.ShedReason {
				shed++
				if !r.resp.Degraded {
					t.Fatalf("request %d: shed response not marked degraded", i)
				}
			}
		case http.StatusTooManyRequests:
			rejected++
			if r.retryAfter != "7" {
				t.Fatalf("request %d: 429 Retry-After = %q, want 7", i, r.retryAfter)
			}
		default:
			t.Fatalf("request %d: unexpected status %d", i, r.status)
		}
	}
	// One slot and a three-deep queue against a 12-wide burst must refuse
	// and shed: the slot holder blocks long enough (hundreds of model calls
	// through a slow oracle) for every other arrival to pile up.
	if ok == 0 || shed == 0 || rejected == 0 {
		t.Fatalf("burst outcomes ok=%d shed=%d rejected=%d; want all three nonzero", ok, shed, rejected)
	}

	var snap obs.Snapshot
	getJSON(t, ts.URL+"/metricz", &snap)
	c := snap.Counters
	offered := c["admission_offered_total"]
	sum := c["admission_admitted_total"] + c["admission_shed_total"] +
		c["admission_rejected_total"] + c["admission_canceled_total"]
	if offered != burst || sum != offered {
		t.Fatalf("admission counters do not reconcile: offered=%d sum=%d (%v)", offered, sum, c)
	}
	if c["admission_shed_total"] != shed || c["admission_rejected_total"] != rejected {
		t.Fatalf("admission counters disagree with clients: shed %d vs %d, rejected %d vs %d",
			c["admission_shed_total"], shed, c["admission_rejected_total"], rejected)
	}
	if c["shed_total"] != shed {
		t.Fatalf("shed_total = %d, want %d (one per shed 200)", c["shed_total"], shed)
	}

	var statz struct {
		Requests int64 `json:"requests"`
		Shed     int64 `json:"shed"`
		Rejected int64 `json:"rejected"`
		Workers  int   `json:"workers"`
	}
	getJSON(t, ts.URL+"/statz", &statz)
	if statz.Shed != shed || statz.Rejected != rejected {
		t.Fatalf("statz shed=%d rejected=%d, want %d/%d", statz.Shed, statz.Rejected, shed, rejected)
	}
	if statz.Workers <= 0 {
		t.Fatalf("statz workers = %d, want the resolved (positive) pool size", statz.Workers)
	}
}

// TestAdmissionQueueHonorsDeadline: a request whose deadline lapses while
// it waits for a slot is dequeued as a 503, not optimized late.
func TestAdmissionQueueHonorsDeadline(t *testing.T) {
	gm := newGateModel()
	s := &service.Server{
		Model:     gm,
		Platforms: platform.Subset(3),
		Avail:     platform.UniformAvailability(3),
		Admission: &service.Admission{MaxConcurrent: 1, MaxQueue: 2},
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := planJSON(t)

	holderDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			holderDone <- -1
			return
		}
		resp.Body.Close()
		holderDone <- resp.StatusCode
	}()
	<-gm.entered // the holder owns the slot and is inside the model

	resp, err := http.Post(ts.URL+"/optimize?deadline_ms=50", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("queued request: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued request past its deadline: status %d (%.200s)", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "admission queue") {
		t.Fatalf("503 body does not name the admission queue: %.200s", raw)
	}

	close(gm.gate)
	if got := <-holderDone; got != http.StatusOK {
		t.Fatalf("slot holder finished with status %d", got)
	}
}
