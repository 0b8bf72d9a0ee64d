package registry_test

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mlmodel"
	"repro/internal/obs"
	"repro/internal/registry"
)

// badLinear returns a serializable model with deliberately wrong
// coefficients, so any model actually fit on the data beats it on holdout.
func badLinear(nf int) mlmodel.Model {
	return &mlmodel.Linear{Weights: make([]float64, nf), Intercept: 1e6}
}

func newRetrainer(t *testing.T, active mlmodel.Model, cap int) (*registry.Retrainer, *registry.Feedback, *registry.Provider) {
	t.Helper()
	art, err := registry.New(active, 3, []string{"java", "spark", "flink"}, 0, mlmodel.Metrics{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p, err := registry.NewProvider(art)
	if err != nil {
		t.Fatalf("NewProvider: %v", err)
	}
	fb := registry.NewFeedback(cap)
	r := &registry.Retrainer{
		Provider:    p,
		Feedback:    fb,
		Train:       func(ds *mlmodel.Dataset) (mlmodel.Model, error) { return mlmodel.FitLinear(ds, mlmodel.LinearConfig{}) },
		MinSamples:  32,
		HoldoutFrac: 0.25,
		Seed:        11,
		SchemaWidth: 3,
		Platforms:   []string{"java", "spark", "flink"},
		Metrics:     obs.NewRegistry(),
	}
	return r, fb, p
}

// publishTo is the publish function of a retrainer tested on its own: what
// service.Server's publish routine does, minus the server — store the
// artifact and move ACTIVE when there is a store, then swap the provider.
func publishTo(p *registry.Provider, st *registry.Store) func(*registry.Artifact) error {
	return func(a *registry.Artifact) error {
		if st != nil {
			v, err := st.Save(a)
			if err == nil {
				err = st.Activate(v)
			}
			if err != nil {
				return err
			}
		}
		_, err := p.Swap(a)
		return err
	}
}

func feed(t *testing.T, fb *registry.Feedback, n int, seed int64) {
	t.Helper()
	ds := synth(n, 3, seed, func(x []float64) float64 { return 4*x[0] - 2*x[1] + x[2] + 1 }, 0.05)
	for i := 0; i < ds.Len(); i++ {
		if err := fb.Add(ds.X[i], ds.Y[i]); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
}

// TestRetrainerPromotes: with a hopeless active model and informative
// feedback, one retraining promotes a candidate, hot-swaps the provider,
// and persists+activates the artifact in the store.
func TestRetrainerPromotes(t *testing.T) {
	r, fb, p := newRetrainer(t, badLinear(3), 512)
	st, err := registry.OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	pub := publishTo(p, st)

	// Below MinSamples: skipped.
	feed(t, fb, 10, 21)
	out, err := r.RetrainOnce(pub)
	if err != nil || out.Reason != "insufficient-samples" {
		t.Fatalf("undersized buffer: %+v, %v", out, err)
	}

	feed(t, fb, 200, 22)
	out, err = r.RetrainOnce(pub)
	if err != nil {
		t.Fatalf("RetrainOnce: %v", err)
	}
	if !out.Promoted || out.Reason != "promoted" || out.Version != "v1" {
		t.Fatalf("expected promotion to v1, got %+v", out)
	}
	if out.Candidate.MAE >= out.Active.MAE {
		t.Fatalf("candidate should beat the hopeless active model: %+v", out)
	}
	if got := p.Get().Artifact.Version; got != "v1" {
		t.Errorf("provider serves %q, want v1", got)
	}
	if v, err := st.ActiveVersion(); err != nil || v != "v1" {
		t.Errorf("store active = %q, %v", v, err)
	}
	if p.Swaps() != 1 {
		t.Errorf("swaps = %d, want 1", p.Swaps())
	}
	if got := r.Metrics.Counter("retrain_promoted_total").Load(); got != 1 {
		t.Errorf("retrain_promoted_total = %d", got)
	}

	// No new samples since: skipped without touching the model.
	out, err = r.RetrainOnce(pub)
	if err != nil || out.Reason != "no-new-samples" {
		t.Fatalf("stale buffer: %+v, %v", out, err)
	}
	if p.Swaps() != 1 {
		t.Errorf("skip still swapped: %d", p.Swaps())
	}
}

// TestRetrainerPublishContract: the retrainer changes nothing itself. Without
// a publish function an attempt is an immediate error, and a candidate whose
// publication fails is a failed attempt — not promoted, the provider as it was.
func TestRetrainerPublishContract(t *testing.T) {
	r, fb, p := newRetrainer(t, badLinear(3), 512)
	feed(t, fb, 200, 71)
	if _, err := r.RetrainOnce(nil); err == nil {
		t.Fatal("RetrainOnce accepted a nil publish function")
	}
	var got *registry.Artifact
	out, err := r.RetrainOnce(func(a *registry.Artifact) error {
		got = a
		return errors.New("store is read-only")
	})
	if err == nil || out.Promoted {
		t.Fatalf("failed publication reported as %+v, %v", out, err)
	}
	if got == nil || got.Model == nil || !strings.HasPrefix(got.Version, "retrain-") {
		t.Fatalf("publish was handed %+v, want a content-labelled candidate", got)
	}
	if p.Swaps() != 0 {
		t.Errorf("the retrainer swapped the provider itself: swaps = %d", p.Swaps())
	}
	if n := r.Metrics.Counter("retrain_failures_total").Load(); n != 1 {
		t.Errorf("retrain_failures_total = %d, want 1", n)
	}
	if n := r.Metrics.Counter("retrain_promoted_total").Load(); n != 0 {
		t.Errorf("retrain_promoted_total = %d, want 0", n)
	}
}

// TestRetrainerRejectsRegression: when the candidate trainer is worse than
// the active model, the gate holds and nothing is swapped or stored.
func TestRetrainerRejectsRegression(t *testing.T) {
	ds := synth(400, 3, 31, func(x []float64) float64 { return 4*x[0] - 2*x[1] + x[2] + 1 }, 0.05)
	good, err := mlmodel.FitLinear(ds, mlmodel.LinearConfig{})
	if err != nil {
		t.Fatalf("FitLinear: %v", err)
	}
	r, fb, p := newRetrainer(t, good, 512)
	st, err := registry.OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	r.Train = func(*mlmodel.Dataset) (mlmodel.Model, error) { return badLinear(3), nil }

	feed(t, fb, 200, 32)
	out, err := r.RetrainOnce(publishTo(p, st))
	if err != nil {
		t.Fatalf("RetrainOnce: %v", err)
	}
	if out.Promoted || out.Reason != "holdout-regression" {
		t.Fatalf("bad candidate was not rejected: %+v", out)
	}
	if p.Swaps() != 0 {
		t.Errorf("rejected retrain swapped the model")
	}
	if vs, _ := st.Versions(); len(vs) != 0 {
		t.Errorf("rejected retrain stored an artifact: %v", vs)
	}
	if got := r.Metrics.Counter("retrain_rejected_total").Load(); got != 1 {
		t.Errorf("retrain_rejected_total = %d", got)
	}
}

// TestRetrainerHoldoutRecency: rows surviving in the ring after a promotion
// are training provenance of the now-active model, so the next attempt must
// judge on rows added since — with too few unseen samples it declines
// rather than scoring the incumbent on data it trained on.
func TestRetrainerHoldoutRecency(t *testing.T) {
	r, fb, p := newRetrainer(t, badLinear(3), 512)
	pub := publishTo(p, nil)
	feed(t, fb, 200, 61)
	out, err := r.RetrainOnce(pub)
	if err != nil || !out.Promoted {
		t.Fatalf("first retrain: %+v, %v", out, err)
	}
	// Two fresh samples: not enough to carve a holdout slice from.
	feed(t, fb, 2, 62)
	out, err = r.RetrainOnce(pub)
	if err != nil || out.Reason != "insufficient-unseen-samples" {
		t.Fatalf("tiny unseen set was judged anyway: %+v, %v", out, err)
	}
	// Plenty of fresh samples: the gate runs again on unseen data only.
	feed(t, fb, 100, 63)
	out, err = r.RetrainOnce(pub)
	if err != nil {
		t.Fatalf("RetrainOnce: %v", err)
	}
	if out.Reason != "promoted" && out.Reason != "holdout-regression" {
		t.Fatalf("fresh samples were not judged: %+v", out)
	}
	if out.Candidate.MAE == 0 && out.Active.MAE == 0 {
		t.Fatalf("holdout evaluation looks empty: %+v", out)
	}
}

// TestRetrainerConcurrentRetrainOnce: RetrainOnce is reachable from both
// the background Run loop and POST /modelz/retrain; concurrent calls must
// not race on the retrainer's bookkeeping (run under -race) and each
// promotion must store exactly one version, with the provider and the
// ACTIVE marker agreeing once the dust settles.
func TestRetrainerConcurrentRetrainOnce(t *testing.T) {
	r, fb, p := newRetrainer(t, badLinear(3), 2048)
	st, err := registry.OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	pub := publishTo(p, st)
	feed(t, fb, 200, 51)

	var promoted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				// Half the goroutines keep feeding so later attempts see
				// new samples instead of short-circuiting on no-new-samples.
				if g%2 == 0 {
					x := []float64{float64(g), float64(i), 1}
					_ = fb.Add(x, 4*x[0]-2*x[1]+x[2]+1)
				}
				out, err := r.RetrainOnce(pub)
				if err != nil {
					t.Errorf("RetrainOnce: %v", err)
					return
				}
				if out.Promoted {
					promoted.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if promoted.Load() == 0 {
		t.Fatal("no attempt promoted")
	}
	vs, err := st.Versions()
	if err != nil {
		t.Fatalf("Versions: %v", err)
	}
	if int64(len(vs)) != promoted.Load() {
		t.Errorf("%d stored versions for %d promotions — overlapping attempts trained twice", len(vs), promoted.Load())
	}
	active, err := st.ActiveVersion()
	if err != nil {
		t.Fatalf("ActiveVersion: %v", err)
	}
	if got := p.Get().Version(); got != active {
		t.Errorf("provider serves %q but the ACTIVE marker records %q", got, active)
	}
}
