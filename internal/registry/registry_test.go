package registry_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/mlmodel"
	"repro/internal/registry"
)

// synth builds a deterministic dataset y = f(x) + noise over nf features.
func synth(n, nf int, seed int64, f func([]float64) float64, noise float64) *mlmodel.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &mlmodel.Dataset{}
	for i := 0; i < n; i++ {
		x := make([]float64, nf)
		for j := range x {
			x[j] = rng.Float64() * 10
		}
		ds.Append(x, f(x)+noise*rng.NormFloat64())
	}
	return ds
}

func trainLinear(t *testing.T, ds *mlmodel.Dataset) mlmodel.Model {
	t.Helper()
	m, err := mlmodel.FitLinear(ds, mlmodel.LinearConfig{})
	if err != nil {
		t.Fatalf("FitLinear: %v", err)
	}
	return m
}

func TestArtifactRoundTrip(t *testing.T) {
	ds := synth(100, 4, 1, func(x []float64) float64 { return 2*x[0] + x[3] }, 0.1)
	m := trainLinear(t, ds)
	art, err := registry.New(m, 4, []string{"java", "spark"}, ds.Len(), mlmodel.Evaluate(m, ds))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if art.Family != "linear" || art.FeatureWidth != 4 || !art.WidthExact {
		t.Fatalf("artifact metadata wrong: %+v", art)
	}
	if art.Hash == "" {
		t.Fatal("artifact has no content hash")
	}

	var buf bytes.Buffer
	if err := art.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := registry.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if back.Hash != art.Hash || back.Family != art.Family || back.TrainingRows != 100 {
		t.Fatalf("metadata did not round-trip: %+v", back)
	}
	for i := 0; i < 10; i++ {
		if got, want := back.Model.Predict(ds.X[i]), m.Predict(ds.X[i]); got != want {
			t.Fatalf("reloaded model disagrees at row %d: %g != %g", i, got, want)
		}
	}

	// Corrupting the payload must be detected by the hash check.
	tampered := strings.Replace(buf.String(), `"intercept":`, `"intercept":1e9,"x":`, 1)
	if tampered == buf.String() {
		t.Fatal("tamper replacement did not apply")
	}
	if _, err := registry.Read(strings.NewReader(tampered)); err == nil {
		t.Error("Read accepted a tampered payload")
	}
}

// TestBareModelRefused: a bare mlmodel envelope, SaveModel's output without
// the artifact metadata around it, is not an artifact file. Read refuses it,
// and Store.Load refuses one copied into a store with Read's error.
func TestBareModelRefused(t *testing.T) {
	var buf bytes.Buffer
	if err := mlmodel.SaveModel(&buf, splitArtifact(t, 5).Model); err != nil {
		t.Fatalf("SaveModel: %v", err)
	}
	_, readErr := registry.Read(bytes.NewReader(buf.Bytes()))
	if readErr == nil || !strings.Contains(readErr.Error(), "not an artifact file") {
		t.Fatalf("Read(bare envelope) = %v, want a not-an-artifact-file error", readErr)
	}
	dir := t.TempDir()
	st, err := registry.OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "v1.json"), buf.Bytes(), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := st.Load("v1"); err == nil || !strings.Contains(err.Error(), readErr.Error()) {
		t.Errorf("Store.Load(bare envelope) = %v, want Read's error %q", err, readErr)
	}
}

func TestArtifactValidate(t *testing.T) {
	ds := synth(60, 5, 3, func(x []float64) float64 { return x[0] }, 0)
	m := trainLinear(t, ds)
	art, err := registry.New(m, 5, []string{"java", "spark", "flink"}, ds.Len(), mlmodel.Metrics{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := art.Validate(5, 3); err != nil {
		t.Errorf("matching config rejected: %v", err)
	}
	if err := art.Validate(7, 3); err == nil {
		t.Error("width mismatch accepted")
	}
	if err := art.Validate(5, 4); err == nil {
		t.Error("platform count mismatch accepted")
	}
	// Declaring a schema width the model contradicts fails at wrap time.
	if _, err := registry.New(m, 9, nil, 0, mlmodel.Metrics{}); err == nil {
		t.Error("New accepted a contradictory schema width")
	}
}

// splitArtifact wraps a linear model fit on a seed-chosen split of one small
// dataset: a distinct payload per seed, the same payload for the same seed.
func splitArtifact(t *testing.T, seed int64) *registry.Artifact {
	t.Helper()
	ds := synth(60, 2, 4, func(x []float64) float64 { return x[0] + x[1] }, 0)
	sub, _ := ds.Split(0.2, seed)
	a, err := registry.New(trainLinear(t, sub), 2, []string{"java", "spark"}, sub.Len(), mlmodel.Metrics{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return a
}

func TestStoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	st, err := registry.OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	if a, err := st.LoadActive(); err != nil || a != nil {
		t.Fatalf("empty store LoadActive = %v, %v", a, err)
	}

	a1, a2 := splitArtifact(t, 1), splitArtifact(t, 2)
	v1, err := st.Save(a1)
	if err != nil || v1 != "v1" {
		t.Fatalf("Save #1 = %q, %v", v1, err)
	}
	v2, err := st.Save(a2)
	if err != nil || v2 != "v2" {
		t.Fatalf("Save #2 = %q, %v", v2, err)
	}
	if vs, err := st.Versions(); err != nil || fmt.Sprint(vs) != "[v1 v2]" {
		t.Fatalf("Versions = %v, %v", vs, err)
	}

	// Without an ACTIVE marker, the newest version serves.
	act, err := st.LoadActive()
	if err != nil || act.Version != "v2" {
		t.Fatalf("LoadActive = %+v, %v", act, err)
	}
	if err := st.Activate("v1"); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	act, err = st.LoadActive()
	if err != nil || act.Version != "v1" {
		t.Fatalf("LoadActive after Activate = %+v, %v", act, err)
	}
	if err := st.Activate("v9"); err == nil {
		t.Error("Activate accepted a missing version")
	}
	if _, err := st.Load("nope"); err == nil {
		t.Error("Load accepted a malformed version name")
	}

	// A copied-in artifact file is promotable under its filename version.
	var buf bytes.Buffer
	if err := splitArtifact(t, 3).Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "v7.json"), buf.Bytes(), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if a, err := st.Load("v7"); err != nil || a.Version != "v7" {
		t.Fatalf("Load(v7) = %+v, %v", a, err)
	}
	// The next Save lands after the copied-in version.
	if v, err := st.Save(splitArtifact(t, 4)); err != nil || v != "v8" {
		t.Fatalf("Save after copy-in = %q, %v", v, err)
	}
	arts, err := st.List()
	if err != nil || len(arts) != 4 {
		t.Fatalf("List = %d artifacts, %v", len(arts), err)
	}
}

// TestStoreSaveConcurrentHandles: two Store handles on one directory — two
// replicas retraining at once — never get the same version name, and each name
// loads the payload its Save wrote. The process mutex cannot order them; the
// exclusive install does.
func TestStoreSaveConcurrentHandles(t *testing.T) {
	dir := t.TempDir()
	const perHandle = 40
	arts := make([][]*registry.Artifact, 2)
	for h := range arts {
		for i := 0; i < perHandle; i++ {
			arts[h] = append(arts[h], splitArtifact(t, int64(100+h*perHandle+i)))
		}
	}
	var mu sync.Mutex
	wrote := map[string]string{} // version name → hash of the artifact saved under it
	var wg sync.WaitGroup
	for h := range arts {
		st, err := registry.OpenStore(dir)
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		wg.Add(1)
		go func(st *registry.Store, mine []*registry.Artifact) {
			defer wg.Done()
			for _, a := range mine {
				v, err := st.Save(a)
				if err != nil {
					t.Errorf("Save: %v", err)
					return
				}
				mu.Lock()
				if _, dup := wrote[v]; dup {
					t.Errorf("Save handed out %s twice", v)
				}
				wrote[v] = a.Hash
				mu.Unlock()
			}
		}(st, arts[h])
	}
	wg.Wait()
	if len(wrote) != 2*perHandle {
		t.Fatalf("%d saves got %d distinct names", 2*perHandle, len(wrote))
	}
	st, err := registry.OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	for v, hash := range wrote {
		if a, err := st.Load(v); err != nil {
			t.Errorf("Load(%s): %v", v, err)
		} else if a.Hash != hash {
			t.Errorf("Load(%s) holds hash %.8s, its Save wrote %.8s", v, a.Hash, hash)
		}
	}
}

// TestStoreAdopt: Adopt names the stored version holding an artifact's
// payload — the one the artifact already names, else one with the same hash —
// and writes a new version only when there is none.
func TestStoreAdopt(t *testing.T) {
	dir := t.TempDir()
	st, err := registry.OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	adopt := func(a *registry.Artifact, want string, wantVersions int) {
		t.Helper()
		v, err := st.Adopt(a)
		if err != nil || v != want || a.Version != want {
			t.Fatalf("Adopt = %q (artifact says %q), %v; want %q", v, a.Version, err, want)
		}
		if vs, _ := st.Versions(); len(vs) != wantVersions {
			t.Fatalf("store holds %v, want %d versions", vs, wantVersions)
		}
	}
	adopt(splitArtifact(t, 1), "v1", 1) // new payload: saved
	adopt(splitArtifact(t, 1), "v1", 1) // same payload from elsewhere (a restart on one file): reused
	adopt(splitArtifact(t, 2), "v2", 2)
	// The same payload stored twice: an artifact that names one of the copies
	// keeps its name, whichever copy a hash scan would meet first.
	if _, err := st.Save(splitArtifact(t, 1)); err != nil {
		t.Fatalf("Save: %v", err)
	}
	v3, err := st.Load("v3")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	adopt(v3, "v3", 3)
	// A name the store uses for a different payload is not trusted.
	foreign := splitArtifact(t, 2)
	foreign.Version = "v1"
	adopt(foreign, "v2", 3)
}

func TestFeedbackRing(t *testing.T) {
	f := registry.NewFeedback(3)
	for i := 0; i < 5; i++ {
		if err := f.Add([]float64{float64(i)}, float64(i)); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if f.Len() != 3 || f.Total() != 5 {
		t.Fatalf("len=%d total=%d, want 3/5", f.Len(), f.Total())
	}
	ds := f.Dataset()
	seen := map[float64]bool{}
	for _, y := range ds.Y {
		seen[y] = true
	}
	// The ring keeps the 3 newest samples (2, 3, 4).
	for _, want := range []float64{2, 3, 4} {
		if !seen[want] {
			t.Fatalf("ring lost newest sample %g: %v", want, ds.Y)
		}
	}
	// Snapshot returns them oldest-first with the right sequence base.
	snap, firstSeq := f.Snapshot()
	if firstSeq != 2 || fmt.Sprint(snap.Y) != "[2 3 4]" {
		t.Fatalf("Snapshot = %v at seq %d, want [2 3 4] at 2", snap.Y, firstSeq)
	}
	if err := f.Add([]float64{1, 2}, 0); err == nil {
		t.Error("Add accepted a width-inconsistent sample")
	}
}

func TestFeedbackConcurrent(t *testing.T) {
	f := registry.NewFeedback(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = f.Add([]float64{float64(g), float64(i)}, 1)
				_ = f.Dataset()
			}
		}(g)
	}
	wg.Wait()
	if f.Total() != 800 || f.Len() != 64 {
		t.Fatalf("total=%d len=%d", f.Total(), f.Len())
	}
}

func TestProviderSwap(t *testing.T) {
	ds := synth(60, 2, 5, func(x []float64) float64 { return x[0] }, 0)
	a1, err := registry.New(trainLinear(t, ds), 2, nil, ds.Len(), mlmodel.Metrics{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p, err := registry.NewProvider(a1)
	if err != nil {
		t.Fatalf("NewProvider: %v", err)
	}
	if p.Get().Artifact != a1 || p.Swaps() != 0 {
		t.Fatal("initial snapshot wrong")
	}
	a2, err := registry.New(trainLinear(t, ds), 2, nil, ds.Len(), mlmodel.Metrics{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	old, err := p.Swap(a2)
	if err != nil || old.Artifact != a1 || p.Get().Artifact != a2 || p.Swaps() != 1 {
		t.Fatalf("swap wrong: old=%v err=%v", old, err)
	}
	if _, err := p.Swap(&registry.Artifact{}); err == nil {
		t.Error("Swap accepted an artifact without a model")
	}
	// The snapshot satisfies core.ModelProvider and scores like the model.
	if got, want := p.Get().ActiveModel().Predict(ds.X[0]), a2.Model.Predict(ds.X[0]); got != want {
		t.Errorf("ActiveModel predict = %g, want %g", got, want)
	}
	// An artifact without a version label is served as "unversioned".
	up, err := registry.NewProvider(&registry.Artifact{Model: a2.Model})
	if err != nil {
		t.Fatalf("NewProvider: %v", err)
	}
	if v := up.Get().Version(); v != "unversioned" {
		t.Errorf("unlabeled version = %q", v)
	}
}

// TestReadChecksMetadataAgainstModel: serving decides from the artifact's
// metadata whether the model fits its plan vectors, so Read must refuse
// metadata the payload contradicts — hash-valid or not. An understated width
// used to pass Validate and index past the plan vector inside a request; a
// tree whose split is its own child used to loop Predict forever.
func TestReadChecksMetadataAgainstModel(t *testing.T) {
	ds := synth(200, 6, 4, func(x []float64) float64 { return x[0] + 3*x[5] }, 0.1)
	gbm, err := mlmodel.FitGBM(ds, mlmodel.GBMConfig{Trees: 20, Seed: 1})
	if err != nil {
		t.Fatalf("FitGBM: %v", err)
	}
	bound, _ := mlmodel.FeatureWidth(gbm)
	if bound != 6 {
		t.Fatalf("test model splits on features below %d, want 6", bound)
	}
	write := func(m mlmodel.Model, width int) string {
		t.Helper()
		art, err := registry.New(m, width, nil, ds.Len(), mlmodel.Metrics{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var buf bytes.Buffer
		if err := art.Write(&buf); err != nil {
			t.Fatalf("Write: %v", err)
		}
		return buf.String()
	}
	redeclare := func(file string, from, to int) string {
		t.Helper()
		old, repl := fmt.Sprintf(`"featureWidth":%d,`, from), fmt.Sprintf(`"featureWidth":%d,`, to)
		if !strings.Contains(file, old) {
			t.Fatalf("artifact does not declare %s", old)
		}
		return strings.Replace(file, old, repl, 1)
	}
	treeFile, linFile := write(gbm, 8), write(trainLinear(t, ds), 6)

	// The looping tree, wrapped with the hash of its own payload.
	loop := `{"type":"tree","payload":{"feature":[0,0,-1],"threshold":[0,0,0],"left":[1,1,0],"right":[2,1,0],"value":[0,0,0]}}`
	loopFile := fmt.Sprintf(`{"artifact":{"family":"tree","featureWidth":1,"hash":"%x"},"model":%s}`, sha256.Sum256([]byte(loop)), loop)

	for _, c := range []struct {
		name, file, wantErr string
	}{
		{"as written", treeFile, ""},
		{"tree bound below the declared width", redeclare(treeFile, 8, 6), ""},
		{"tree width understated", redeclare(treeFile, 8, 5), "references feature 5"},
		{"linear width understated", redeclare(linFile, 6, 5), "feature width 6"},
		{"linear width overstated", redeclare(linFile, 6, 7), "feature width 6"},
		{"hash-valid looping tree", loopFile, "out-of-range children"},
	} {
		_, err := registry.Read(strings.NewReader(c.file))
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: Read: %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: Read error = %v, want one mentioning %q", c.name, err, c.wantErr)
		}
	}

	// An artifact that declares no width gets the model's own, so Validate
	// still has something to hold against the serving schema.
	art, err := registry.Read(strings.NewReader(redeclare(treeFile, 8, 0)))
	if err != nil {
		t.Fatalf("Read of an undeclared width: %v", err)
	}
	if art.FeatureWidth != 6 || art.WidthExact {
		t.Errorf("undeclared width read back as (%d, %v), want the model's bound (6, false)", art.FeatureWidth, art.WidthExact)
	}
	if err := art.Validate(5, 0); err == nil {
		t.Error("Validate let a 6-feature model serve 5-wide plan vectors")
	}
}
