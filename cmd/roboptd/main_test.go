package main

import (
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/mlmodel"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/simulator"
	"repro/internal/tdgen"
)

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// noTraining is bootArtifact's train function in tests that must not reach it.
func noTraining(t *testing.T) func() (*registry.Artifact, error) {
	return func() (*registry.Artifact, error) {
		t.Fatal("boot fell through to training")
		return nil, nil
	}
}

// linearFile saves a tiny linear artifact trained "for" nPlats platforms —
// weights scaled so different scales are different payloads — and returns
// its path.
func linearFile(t *testing.T, nPlats int, scale float64) string {
	t.Helper()
	plats := platform.Subset(nPlats)
	schema, err := core.NewSchema(plats)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	ws := make([]float64, schema.Len())
	names := make([]string, len(plats))
	for i := range ws {
		ws[i] = scale * float64(i%5)
	}
	for i, p := range plats {
		names[i] = p.String()
	}
	art, err := registry.New(&mlmodel.Linear{Weights: ws}, schema.Len(), names, 0, mlmodel.Metrics{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := art.Write(f); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path
}

// boot does what main does between flag parsing and serving, for a
// 3-platform deployment: resolve the boot artifact, build the provider and the
// server on it, publish it.
func boot(t *testing.T, modelPath string, store *registry.Store) (*service.Server, error) {
	t.Helper()
	art, pin, err := bootArtifact(modelPath, store, quiet, noTraining(t))
	if err != nil {
		return nil, err
	}
	provider, err := registry.NewProvider(art)
	if err != nil {
		return nil, err
	}
	srv := &service.Server{
		Provider:   provider,
		ModelStore: store,
		Platforms:  platform.Subset(3),
		Avail:      platform.UniformAvailability(3),
	}
	srv.PlanCache = plancache.New(plancache.Config{Metrics: srv.Metrics()})
	_, err = srv.Publish(art, pin)
	return srv, err
}

// storeState reads what a boot left in the store.
func storeState(t *testing.T, store *registry.Store) (versions []string, active string) {
	t.Helper()
	versions, err := store.Versions()
	if err != nil {
		t.Fatalf("Versions: %v", err)
	}
	if active, err = store.ActiveVersion(); err != nil {
		t.Fatalf("ActiveVersion: %v", err)
	}
	return versions, active
}

// TestBootFileWinsOverStore: an explicit -model file is served, saved and made
// ACTIVE even when the store already has an active version; without the flag
// the store's active version boots, and is not written again.
func TestBootFileWinsOverStore(t *testing.T) {
	store, err := registry.OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	if _, err := boot(t, linearFile(t, 3, 1), store); err != nil {
		t.Fatalf("first boot: %v", err)
	}
	srv, err := boot(t, linearFile(t, 3, 2), store)
	if err != nil {
		t.Fatalf("boot on a second file: %v", err)
	}
	versions, active := storeState(t, store)
	if len(versions) != 2 || active != "v2" {
		t.Fatalf("store after booting on a new file: versions %v, ACTIVE %q; want [v1 v2], v2", versions, active)
	}
	if got := srv.Provider.Get().Version(); got != "v2" || srv.PlanCache.ActiveVersion() != "v2" {
		t.Errorf("serving %q with the plan cache at %q, want v2 for both", got, srv.PlanCache.ActiveVersion())
	}

	// An operator moves ACTIVE back; a replica restarted without -model
	// follows the marker and leaves it alone.
	if err := store.Activate("v1"); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	marker := filepath.Join(store.Dir(), "ACTIVE")
	before, err := os.Stat(marker)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	srv, err = boot(t, "", store)
	if err != nil {
		t.Fatalf("boot from the store: %v", err)
	}
	if got := srv.Provider.Get().Version(); got != "v1" || srv.PlanCache.ActiveVersion() != "v1" {
		t.Errorf("serving %q with the plan cache at %q, want v1 for both", got, srv.PlanCache.ActiveVersion())
	}
	after, err := os.Stat(marker)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if !os.SameFile(before, after) {
		t.Error("booting from the store rewrote the ACTIVE marker: a restart could undo a concurrent promote")
	}
}

// TestBootSameFileReusesVersion: restarting on the same -model file serves the
// version the first boot stored; the store stays at one version.
func TestBootSameFileReusesVersion(t *testing.T) {
	store, err := registry.OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	path := linearFile(t, 3, 1)
	for restart := 0; restart < 3; restart++ {
		srv, err := boot(t, path, store)
		if err != nil {
			t.Fatalf("boot %d: %v", restart, err)
		}
		versions, active := storeState(t, store)
		if len(versions) != 1 || active != "v1" {
			t.Fatalf("boot %d: versions %v, ACTIVE %q; want [v1], v1", restart, versions, active)
		}
		if got := srv.Provider.Get().Version(); got != "v1" || srv.Provider.Swaps() != 0 {
			t.Errorf("boot %d: serving %q after %d swaps, want v1 after none", restart, got, srv.Provider.Swaps())
		}
	}
}

// TestBootRejectsUnservableArtifact: a model of the wrong plan-vector width
// or platform count fails the boot before anything is saved or activated.
func TestBootRejectsUnservableArtifact(t *testing.T) {
	store, err := registry.OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	// Trained for 4 platforms: wider plan vectors and one platform too many
	// for the 3-platform deployment boot builds.
	if _, err := boot(t, linearFile(t, 4, 1), store); err == nil {
		t.Fatal("booted on a 4-platform model in a 3-platform deployment")
	}
	if versions, active := storeState(t, store); len(versions) != 0 || active != "" {
		t.Errorf("the refused artifact reached the store: versions %v, ACTIVE %q", versions, active)
	}
	if _, _, err := bootArtifact(filepath.Join(t.TempDir(), "missing.json"), store, quiet, noTraining(t)); err == nil {
		t.Error("a missing -model file was not an error")
	}
}

// TestBootTrainRecordsRows: an artifact trained at boot says how many rows
// its model was fitted on — the sum of its members' datasets — instead of 0.
func TestBootTrainRecordsRows(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model (~1 s)")
	}
	plats := platform.Subset(2)
	recipe := tdgen.Recipe{
		Size:      tdgen.SizeTiny,
		Platforms: plats,
		Avail:     platform.DefaultAvailability().Restrict(plats),
		Cluster:   simulator.Default(),
	}
	art, pin, err := bootArtifact("", nil, quiet, func() (*registry.Artifact, error) {
		return trainArtifact(recipe, core.MustSchema(plats).Len(), []string{"Java", "Spark"})
	})
	if err != nil || !pin {
		t.Fatalf("bootArtifact: pin=%v err=%v", pin, err)
	}
	// SizeTiny has two members; Recipe.Train draws member i at offset 101·i.
	want := 0
	for _, offset := range []int64{0, 101} {
		ds, err := recipe.Dataset(offset)
		if err != nil {
			t.Fatalf("Dataset(%d): %v", offset, err)
		}
		want += ds.Len()
	}
	if art.TrainingRows != want || want == 0 {
		t.Errorf("TrainingRows = %d, want the %d rows the members were fitted on", art.TrainingRows, want)
	}
}
