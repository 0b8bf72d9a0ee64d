package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mlmodel"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/simulator"
)

// slowSumModel adds a per-call latency to sumModel, so a 1ms request
// deadline reliably expires mid-enumeration.
type slowSumModel struct{ d time.Duration }

func (m slowSumModel) Predict(f []float64) float64 {
	time.Sleep(m.d)
	return sumModel{}.Predict(f)
}

func (m slowSumModel) PredictBatchDist(X *mlmodel.Matrix, mean, spread, lo, hi []float64) {
	pointKernel(m.Predict, X, mean, spread, lo, hi)
}

const stressMaxBody = 64 << 10

func newStressServer() *httptest.Server {
	s := &service.Server{
		Model:        slowSumModel{d: 500 * time.Microsecond},
		Platforms:    platform.Subset(3),
		Avail:        platform.UniformAvailability(3),
		Cluster:      simulator.Default(),
		MaxBodyBytes: stressMaxBody,
	}
	return httptest.NewServer(s.Handler())
}

// oversizedBody is a single syntactically valid JSON object larger than the
// body limit; the streaming decoder must read past the limit to complete
// the value, so the request dies on MaxBytesReader (413), not on a parse
// error (400).
func oversizedBody() []byte {
	var b bytes.Buffer
	b.WriteString(`{"avgTupleBytes": `)
	b.Write(bytes.Repeat([]byte("1"), 2*stressMaxBody))
	b.WriteString(`}`)
	return b.Bytes()
}

// TestStressConcurrentMixedRequests hammers the server with 64 goroutines,
// each sending one request of every kind — valid, malformed, oversized, and
// valid-with-1ms-deadline — then checks that every response carried the
// expected status with a well-formed body and that the ledger's totals add
// up exactly. Run with -race this doubles as the data-race check on the
// handler's counters and metric registry.
func TestStressConcurrentMixedRequests(t *testing.T) {
	ts := newStressServer()
	defer ts.Close()
	client := ts.Client()

	const goroutines = 64
	valid := planJSON(t)
	oversized := oversizedBody()

	var wg sync.WaitGroup
	errs := make(chan error, goroutines*4)
	var mu sync.Mutex
	seenIDs := map[string]bool{}

	post := func(path string, body []byte) (*http.Response, []byte, error) {
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, nil, err
		}
		id := resp.Header.Get("X-Request-Id")
		if id == "" {
			return nil, nil, fmt.Errorf("%s: response missing X-Request-Id", path)
		}
		mu.Lock()
		if seenIDs[id] {
			mu.Unlock()
			return nil, nil, fmt.Errorf("%s: duplicate request id %s", path, id)
		}
		seenIDs[id] = true
		mu.Unlock()
		return resp, data, nil
	}

	// checkError asserts an error reply: the given status and a JSON body
	// naming the request id.
	checkError := func(kind string, resp *http.Response, body []byte, want int) error {
		if resp.StatusCode != want {
			return fmt.Errorf("%s: status = %d, want %d (body %.120q)", kind, resp.StatusCode, want, body)
		}
		var e service.ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			return fmt.Errorf("%s: error body is not JSON: %v (%.120q)", kind, err, body)
		}
		if e.Error == "" || e.RequestID == "" {
			return fmt.Errorf("%s: incomplete error body %+v", kind, e)
		}
		return nil
	}

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Valid plan, no deadline: 200 with a full response.
			resp, body, err := post("/optimize", valid)
			if err == nil {
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("valid: status = %d (body %.120q)", resp.StatusCode, body)
				} else {
					var out service.OptimizeResponse
					if jerr := json.Unmarshal(body, &out); jerr != nil {
						err = fmt.Errorf("valid: bad body: %v", jerr)
					} else if len(out.Assignments) == 0 {
						err = fmt.Errorf("valid: no assignments")
					}
				}
			}
			if err != nil {
				errs <- err
			}
			// Malformed JSON: 400.
			if resp, body, err := post("/optimize", []byte("{nope")); err != nil {
				errs <- err
			} else if err := checkError("malformed", resp, body, http.StatusBadRequest); err != nil {
				errs <- err
			}
			// Oversized body: 413.
			if resp, body, err := post("/optimize", oversized); err != nil {
				errs <- err
			} else if err := checkError("oversized", resp, body, http.StatusRequestEntityTooLarge); err != nil {
				errs <- err
			}
			// Valid plan with a 1ms deadline: the slow model cannot finish
			// a single prune pass in time, so 503 with a JSON error body.
			if resp, body, err := post("/optimize?deadline_ms=1", valid); err != nil {
				errs <- err
			} else if err := checkError("deadline", resp, body, http.StatusServiceUnavailable); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Every response was entered in the ledger once: the plain counters, the
	// labeled series and /statz are readings of the same instruments.
	c := checkLedger(t, ts.URL)
	for name, want := range map[string]int64{
		"requests_total":          4 * goroutines,
		"failures_total":          3 * goroutines,
		"deadline_exceeded_total": goroutines,
		`serving_requests_total{endpoint="optimize",outcome="ok",cache="none"}`:  goroutines,
		`serving_requests_total{endpoint="optimize",outcome="400",cache="none"}`: goroutines,
		`serving_requests_total{endpoint="optimize",outcome="413",cache="none"}`: goroutines,
		`serving_requests_total{endpoint="optimize",outcome="503",cache="none"}`: goroutines,
	} {
		if c[name] != want {
			t.Errorf("%s = %d, want %d", name, c[name], want)
		}
	}
}

// TestDeadlineQueryValidation: a malformed deadline_ms is a client error.
func TestDeadlineQueryValidation(t *testing.T) {
	ts := newStressServer()
	defer ts.Close()
	for _, q := range []string{"deadline_ms=abc", "deadline_ms=0", "deadline_ms=-5"} {
		resp, err := http.Post(ts.URL+"/optimize?"+q, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", q, resp.StatusCode)
		}
	}
}
