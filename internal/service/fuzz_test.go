package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/workload"
)

const (
	fuzzMaxBody  = 128 << 10
	fuzzDeadline = 2 * time.Second
)

// FuzzOptimizeBody sends arbitrary bytes to POST /optimize and, wrapped as
// the one member of a batch, to POST /optimize/batch. The handlers parse the
// body themselves, so whatever arrives must end in an orderly answer: no
// panic, a status from the documented set (200; 400 malformed; 413
// oversized; 422 unoptimizable; 503 only once the deadline has really
// passed), and never later than the deadline plus scheduling slack.
func FuzzOptimizeBody(f *testing.F) {
	const src = `{"id":0,"kind":"TextFileSource","card":1000}`
	for _, seed := range []string{
		`{"operators":[` + src + `,{"id":1,"kind":"Map","in":[0]},{"id":2,"kind":"CollectionSink","in":[1]}]}`,
		// forward and self references
		`{"operators":[` + src + `,{"id":1,"kind":"Map","in":[2]},{"id":2,"kind":"CollectionSink","in":[1]}]}`,
		`{"operators":[` + src + `,{"id":1,"kind":"Map","in":[1]},{"id":2,"kind":"CollectionSink","in":[1]}]}`,
		`{"operators":[` + src + `,{"id":1,"kind":"Map","in":[-1]}]}`,
		// a fan-in of 10⁴
		`{"operators":[` + src + `,{"id":1,"kind":"Union","in":[` + strings.TrimSuffix(strings.Repeat("0,", 10000), ",") + `]}]}`,
		// cardinalities out of range
		`{"operators":[{"id":0,"kind":"TextFileSource","card":1e999}]}`,
		`{"operators":[{"id":0,"kind":"TextFileSource","card":-1}]}`,
		`{"operators":[{"id":0,"kind":"TextFileSource","card":0}]}`,
		// ids past int64
		`{"operators":[{"id":18446744073709551616,"kind":"TextFileSource","card":1}]}`,
		`{"operators":[` + src + `,{"id":1,"kind":"Map","in":[9223372036854775808]}]}`,
		// 10⁵-deep nesting
		strings.Repeat("[", 100000),
		`{"operators":` + strings.Repeat("[", 100000),
		// unknown kinds and fields
		`{"operators":[{"id":0,"kind":"Teleport","card":1}]}`,
		`{"operators":[{"id":0,"kind":"TextFileSource","card":1,"colour":"red"}]}`,
		// valid, but nothing can run it: no source
		`{"operators":[]}`,
		`{`, `null`, ``,
	} {
		f.Add([]byte(seed))
	}
	for _, l := range []*plan.Logical{workload.RunningExample(), workload.Catalog()[3].Build(1e8), workload.JoinTree(3, 1e8)} {
		body, err := plan.MarshalJSONPlan(l)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}

	s := &service.Server{
		Model:           sumModel{},
		Platforms:       platform.Subset(3),
		Avail:           platform.UniformAvailability(3),
		MaxBodyBytes:    fuzzMaxBody,
		DefaultDeadline: fuzzDeadline,
	}
	s.PlanCache = plancache.New(plancache.Config{Metrics: s.Metrics()})
	h := s.Handler()
	post := func(t *testing.T, path string, body []byte, allowed ...int) *httptest.ResponseRecorder {
		t.Helper()
		w := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		elapsed := time.Since(start)
		if elapsed > fuzzDeadline+time.Second {
			t.Fatalf("POST %s answered after %v, deadline %v", path, elapsed, fuzzDeadline)
		}
		if w.Code == http.StatusServiceUnavailable && elapsed >= fuzzDeadline {
			return w
		}
		for _, code := range allowed {
			if w.Code == code {
				return w
			}
		}
		t.Fatalf("POST %s: status %d (%s) for body %q", path, w.Code, w.Body.Bytes(), body)
		return nil
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := post(t, "/optimize", body, http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity)
		if len(body) > fuzzMaxBody && w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("a %d-byte body got status %d, want 413", len(body), w.Code)
		}

		batch := append(append([]byte(`{"plans":[`), body...), `]}`...)
		w = post(t, "/optimize/batch", batch, http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge)
		if w.Code != http.StatusOK {
			return
		}
		var resp service.BatchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("batch response does not decode: %v", err)
		}
		for _, r := range resp.Results {
			if (r.Plan == nil) == (r.Error == "") {
				t.Fatalf("batch member has neither or both of plan and error: %+v", r)
			}
		}
	})
}

// TestOversizedBodyIs413: the size limit is enforced before parsing, so a
// body over it is a 413 on both endpoints whether or not its first bytes are
// a plan, with net/http's "request body too large" in the message
// (TestReadBodyWrapsMaxBytesError checks the error chain).
func TestOversizedBodyIs413(t *testing.T) {
	s := &service.Server{
		Model:        sumModel{},
		Platforms:    platform.Subset(3),
		Avail:        platform.UniformAvailability(3),
		MaxBodyBytes: 1 << 10,
	}
	h := s.Handler()
	for name, body := range map[string][]byte{
		"all braces":      bytes.Repeat([]byte("{"), 2<<10),
		"garbage":         append([]byte("{nope"), bytes.Repeat([]byte(" "), 2<<10)...),
		"endless in list": append([]byte(`{"operators":[{"id":0,"kind":"Map","in":[`), bytes.Repeat([]byte("0,"), 1<<10)...),
	} {
		for _, path := range []string{"/optimize", "/optimize/batch"} {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if w.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s to %s: status %d, want 413: %s", name, path, w.Code, w.Body.Bytes())
			}
			if !strings.Contains(w.Body.String(), "request body too large") {
				t.Errorf("%s to %s: error does not carry the MaxBytesError: %s", name, path, w.Body.Bytes())
			}
		}
	}
	// The same bodies under the limit are plain 400s.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/optimize", strings.NewReader(strings.Repeat("{", 512))))
	if w.Code != http.StatusBadRequest {
		t.Errorf("malformed body under the limit: status %d, want 400", w.Code)
	}
}
