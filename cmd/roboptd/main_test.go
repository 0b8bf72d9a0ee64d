package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

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

var updateHelp = flag.Bool("update", false, "rewrite testdata/help.golden")

// TestHelpGolden pins roboptd's flag set: adding, removing or rewording a flag
// shows up as a diff of testdata/help.golden (rewrite it with -update). The
// flags removed because no deployment set them must not come back in the
// docs either. Other commands keep some of those names (robopt -workers and
// -deadline, benchharness -workers), so for them only a line that names
// roboptd counts.
func TestHelpGolden(t *testing.T) {
	var out bytes.Buffer
	if _, err := parseConfig([]string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("roboptd -h: %v, want flag.ErrHelp\n%s", err, out.Bytes())
	}
	golden := filepath.Join("testdata", "help.golden")
	if *updateHelp {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("roboptd -h differs from %s (rerun with -update and review the diff):\n%s", golden, out.Bytes())
	}

	removed := []string{"-peer-timeout", "-peer-hedge", "-max-body-bytes", "-batch-members",
		"-trace-sample", "-trace-cap", "-trace-slow", "-admit-concurrency", "-admit-queue",
		"-shed-threshold", "-cache-entries", "-cache-bytes", "-cache-ttl", "-shutdown-grace",
		"-slo-latency-ms", "-slo-target", "-retrain-interval", "-store-watch-interval", "-fleet-heartbeat"}
	// The whole flag name: -deadline, not loadgen's -deadline-ms.
	shared := regexp.MustCompile(`-(workers|deadline)([^\w-]|$)`)
	for _, doc := range []string{"main.go", "../../README.md", "../../.claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range removed {
			if bytes.Contains(text, []byte(f)) {
				t.Errorf("%s still names the removed flag %s", doc, f)
			}
		}
		for i, line := range bytes.Split(text, []byte("\n")) {
			if bytes.Contains(line, []byte("roboptd")) && shared.Match(line) {
				t.Errorf("%s:%d names a removed roboptd flag: %s", doc, i+1, line)
			}
		}
	}
}

// TestParseConfig: the default command line gives the settings bench/serving.go
// boots its replicas with, and each setting roboptd cannot run with, and each
// removed flag, is refused with the usage (main exits 2 on it).
func TestParseConfig(t *testing.T) {
	c, err := parseConfig(nil, io.Discard)
	if err != nil {
		t.Fatalf("default config refused: %v", err)
	}
	// What bench/serving.go's boot writes out: the feedback buffer, the
	// deadline, the tracer, the SLO, the cache TTL and the registration
	// heartbeat. The admission layer and
	// the cache's capacity are zero values there and here.
	if c.feedbackCap != registry.DefaultFeedbackCap || deadline != 30*time.Second ||
		traceSample != 0.1 || traceSlow != time.Second ||
		sloLatencyMs != 500 || sloTarget != 0.99 || cacheTTL != 10*time.Minute || heartbeat != 5*time.Second {
		t.Errorf("defaults drifted from the benchmark's replicas: feedbackCap %d, deadline %v, trace %g/%v, SLO %d ms/%g, cache TTL %v, heartbeat %v",
			c.feedbackCap, deadline, traceSample, traceSlow, sloLatencyMs, sloTarget, cacheTTL, heartbeat)
	}
	if c.platforms != platform.NumPlatforms || c.budget != (core.Budget{}) || c.peerFill || c.addr != ":8080" {
		t.Errorf("default config %+v", c)
	}

	for _, args := range [][]string{
		{"-platforms", "1"},
		{"-platforms", "6"},
		{"-log-level", "loud"},
		{"-log-format", "xml"},
		{"-peer-fill"},
		{"-feedback-cap", "0"},
		{"-feedback-cap", "-5"},
		{"-budget-vectors", "-1"},
		{"-budget-model-calls", "-3"},
		// Removed: a -model-dir replica always follows its store and
		// always registers in it.
		{"-store-watch-interval", "1s"},
		{"-fleet-heartbeat", "1s"},
	} {
		var out bytes.Buffer
		if _, err := parseConfig(args, &out); err == nil {
			t.Errorf("%v accepted", args)
		} else if !bytes.Contains(out.Bytes(), []byte("Usage of roboptd")) {
			t.Errorf("%v: refused without the usage:\n%s", args, out.Bytes())
		}
	}
	if _, err := parseConfig([]string{"-peer-fill", "-model-dir", "store", "-platforms", "2"}, io.Discard); err != nil {
		t.Errorf("-peer-fill with -model-dir refused: %v", err)
	}
}

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
		Logger:     quiet,
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
		swaps := srv.Metrics().Snapshot().Counters["model_swaps_total"]
		if got := srv.Provider.Get().Version(); got != "v1" || swaps != 0 {
			t.Errorf("boot %d: serving %q after %d swaps, want v1 after none", restart, got, swaps)
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
