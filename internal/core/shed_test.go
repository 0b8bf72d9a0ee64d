package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/workload"
)

// shedModel returns the deterministic oracle the shed tests score with.
func shedModel(t *testing.T) linModel {
	t.Helper()
	sc, err := core.NewSchema(platform.Subset(3))
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return newLinModel(sc.Len(), 17)
}

// TestForceDegradedServesBeam: a run started with Budget.ForceDegraded
// completes, returns a valid executable plan, and is flagged degraded with
// the load-shed reason — the contract the serving layer's admission
// controller relies on when it sheds a request instead of refusing it.
func TestForceDegradedServesBeam(t *testing.T) {
	m := shedModel(t)
	l := workload.RandomDAG(24, 1e7, 11)

	full := newCtx(t, l, 3)
	fres, err := full.Optimize(context.Background(), m)
	if err != nil {
		t.Fatalf("full Optimize: %v", err)
	}

	shed := newCtx(t, l, 3)
	shed.Budget = core.Budget{ForceDegraded: true}
	res, err := shed.Optimize(context.Background(), m)
	if err != nil {
		t.Fatalf("shed Optimize: %v", err)
	}
	if !res.Degraded {
		t.Fatal("ForceDegraded run not flagged Degraded")
	}
	if res.Stats.DegradeReason != core.ShedReason {
		t.Fatalf("DegradeReason = %q, want %q", res.Stats.DegradeReason, core.ShedReason)
	}
	if res.Execution == nil || len(res.Execution.Assign) != l.NumOps() {
		t.Fatal("shed run did not produce a full assignment")
	}
	// The beam walk must do strictly less enumeration work than the full
	// run on a DAG this size.
	if res.Stats.VectorsCreated >= fres.Stats.VectorsCreated {
		t.Fatalf("shed run created %d vectors, full run %d — shedding saved nothing",
			res.Stats.VectorsCreated, fres.Stats.VectorsCreated)
	}
}

// TestForceDegradedDeterministic pins that shed runs are deterministic
// across worker counts like every other enumeration mode.
func TestForceDegradedDeterministic(t *testing.T) {
	m := shedModel(t)
	l := workload.RandomDAG(20, 1e7, 5)

	var want string
	for _, w := range []int{1, 4} {
		c := newCtx(t, l, 3)
		c.Workers = w
		c.Budget = core.Budget{ForceDegraded: true}
		res, err := c.Optimize(context.Background(), m)
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		got := ""
		for _, p := range res.Execution.Assign {
			got += p.String() + ","
		}
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("Workers=%d plan %q differs from Workers=1 plan %q", w, got, want)
		}
	}
}

// TestResolveWorkers pins the auto-resolution contract.
func TestResolveWorkers(t *testing.T) {
	if got := core.ResolveWorkers(3); got != 3 {
		t.Fatalf("ResolveWorkers(3) = %d", got)
	}
	if got := core.ResolveWorkers(0); got < 1 {
		t.Fatalf("ResolveWorkers(0) = %d, want >= 1", got)
	}
	if core.ResolveWorkers(0) != core.ResolveWorkers(-7) {
		t.Fatal("zero and negative should resolve identically")
	}
}
