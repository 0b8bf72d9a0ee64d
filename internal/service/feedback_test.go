package service_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/workload"
)

// bandedTwins are two plans that share a fingerprint through cardinality
// banding — the same pipeline, its source 20 % larger in the second — and
// so share a cache entry.
func bandedTwins(t *testing.T) (first, second *plan.Logical) {
	t.Helper()
	first, second = workload.Pipeline(12, 1e8), workload.Pipeline(12, 1.2e8)
	plats, avail := platform.Subset(3), platform.UniformAvailability(3)
	fp1, _, err := plancache.Compute(first, plats, avail, 0)
	if err != nil {
		t.Fatal(err)
	}
	fp2, _, err := plancache.Compute(second, plats, avail, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatal("the twins do not share a fingerprint")
	}
	return first, second
}

// twinContext is the optimizer context of l in the test servers' universe.
func twinContext(t *testing.T, l *plan.Logical) *core.Context {
	t.Helper()
	cctx, err := core.NewContext(l, platform.Subset(3), platform.UniformAvailability(3))
	if err != nil {
		t.Fatal(err)
	}
	return cctx
}

// servedVector is the plan vector of l under the assignment a response
// served for it.
func servedVector(t *testing.T, l *plan.Logical, resp service.OptimizeResponse) []float64 {
	t.Helper()
	var err error
	assign := make([]platform.ID, len(resp.Assignments))
	for i, name := range resp.Assignments {
		if assign[i], err = platform.ByName(name); err != nil {
			t.Fatal(err)
		}
	}
	v, err := twinContext(t, l).VectorizeAssignment(assign)
	if err != nil {
		t.Fatal(err)
	}
	return v.F
}

// enumeratedVector is Result.Vector of a fresh enumeration of l under the
// provider's model: the row a fresh answer lands.
func enumeratedVector(t *testing.T, l *plan.Logical, p *registry.Provider) []float64 {
	t.Helper()
	res, err := twinContext(t, l).OptimizeProvider(context.Background(), p.Get())
	if err != nil {
		t.Fatal(err)
	}
	return res.Vector.F
}

// lastRow is the newest execution-feedback row of s, after checking that
// the buffer holds want rows.
func lastRow(t *testing.T, s *service.Server, want int) []float64 {
	t.Helper()
	ds := s.Feedback.Dataset()
	if ds.Len() != want {
		t.Fatalf("feedback holds %d rows, want %d", ds.Len(), want)
	}
	return ds.X[want-1]
}

// TestFeedbackVectorizesServedPlan: a ?simulate=1 answer served from a cache
// entry another plan filled — locally or by a peer — lands the feedback row
// of the requesting plan under the served assignment, not the vector of the
// plan that filled the entry. A fresh enumeration's row is its Result.Vector.
func TestFeedbackVectorizesServedPlan(t *testing.T) {
	first, second := bandedTwins(t)
	body1, body2 := marshalPlan(t, first), marshalPlan(t, second)

	t.Run("local hit", func(t *testing.T) {
		s := newServer(modelProvider(sumModel{}))
		s.Feedback = registry.NewFeedback(8)
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		resp, out1, _ := postPlan(t, ts.URL+"/optimize?simulate=1", body1)
		if xc := resp.Header.Get("X-Cache"); xc != "miss" {
			t.Fatalf("first plan X-Cache = %q, want miss", xc)
		}
		fresh := enumeratedVector(t, first, s.Provider)
		if row := lastRow(t, s, 1); !reflect.DeepEqual(row, fresh) || !reflect.DeepEqual(row, servedVector(t, first, out1)) {
			t.Fatal("a fresh enumeration's feedback row is not its Result.Vector")
		}
		resp, out2, _ := postPlan(t, ts.URL+"/optimize?simulate=1", body2)
		if xc := resp.Header.Get("X-Cache"); xc != "hit" {
			t.Fatalf("banded twin X-Cache = %q, want hit", xc)
		}
		checkTwinRow(t, lastRow(t, s, 2), servedVector(t, second, out2), fresh)
	})

	t.Run("peer fill", func(t *testing.T) {
		dir := seedPeerStore(t)
		sA, tsA := newPeerReplica(t, dir, "ra")
		sB, tsB := newPeerReplica(t, dir, "rb")
		postPlan(t, tsA.URL+"/optimize?simulate=1", body1)
		fresh := enumeratedVector(t, first, sA.Provider)
		if row := lastRow(t, sA, 1); !reflect.DeepEqual(row, fresh) {
			t.Fatal("the filling replica's feedback row is not its Result.Vector")
		}
		resp, out2, _ := postPlan(t, tsB.URL+"/optimize?simulate=1", body2)
		if xc := resp.Header.Get("X-Cache"); xc != "peer" {
			t.Fatalf("banded twin on B X-Cache = %q, want peer", xc)
		}
		checkTwinRow(t, lastRow(t, sB, 1), servedVector(t, second, out2), fresh)
	})
}

// checkTwinRow: the twin's row is its own plan's vector, and so not the one
// of the plan that filled the entry.
func checkTwinRow(t *testing.T, row, want, filler []float64) {
	t.Helper()
	if !reflect.DeepEqual(row, want) {
		t.Fatal("the cached answer's feedback row is not the requesting plan's vector under the served assignment")
	}
	if reflect.DeepEqual(row, filler) {
		t.Fatal("the cached answer's feedback row is the vector of the plan that filled the entry")
	}
}
