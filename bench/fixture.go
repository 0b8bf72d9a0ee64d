package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mlmodel"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/registry"
	"repro/internal/simulator"
	"repro/internal/workload"
)

// env is what every workload shares: the serving platform universe of
// `roboptd -quick -platforms 3`, the simulated cluster, and the trained
// model fixture.
type env struct {
	outDir  string
	plats   []platform.ID
	avail   *platform.Availability
	schema  *core.Schema
	names   []string
	cluster *simulator.Cluster
	fx      fixtureMeta
}

// fixtureMeta is the sidecar written next to the fixture store: what training
// cost, so a traced run can report it without retraining.
type fixtureMeta struct {
	Key       string  `json:"key"`
	Model     string  `json:"model"`
	StoreDir  string  `json:"-"`
	Family    string  `json:"family"`
	Trees     int     `json:"trees"`
	TrainS    float64 `json:"trainS"`
	GenerateS float64 `json:"generateS"`
	Rows      int     `json:"rows"`
}

func newEnv(outDir, model string) (*env, error) {
	plats := platform.Subset(3)
	schema, err := core.NewSchema(plats)
	if err != nil {
		return nil, err
	}
	e := &env{
		outDir:  outDir,
		plats:   plats,
		avail:   platform.DefaultAvailability().Restrict(plats),
		schema:  schema,
		cluster: simulator.Default(),
	}
	for _, p := range plats {
		e.names = append(e.names, p.String())
	}
	if e.fx, err = e.ensureFixture(model); err != nil {
		return nil, err
	}
	return e, nil
}

// binaryKey identifies the code under test. The benchmark binary links every
// program package, so its hash changes exactly when the commit or the dirty
// diff does — and it works in a checkout that is not a git repository.
func binaryKey() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// ensureFixture returns the trained-model store for this binary, training and
// saving it on first use. model is "gbm" (the `roboptd -quick` boot ensemble)
// or "linear" (a seconds-cheap stand-in for bench_test.go).
func (e *env) ensureFixture(model string) (fixtureMeta, error) {
	key, err := binaryKey()
	if err != nil {
		return fixtureMeta{}, err
	}
	dir := filepath.Join(e.outDir, "fixture-"+model+"-"+key)
	metaPath := filepath.Join(dir, "fixture.json")
	var meta fixtureMeta
	if raw, err := os.ReadFile(metaPath); err == nil && json.Unmarshal(raw, &meta) == nil && meta.Key == key {
		meta.StoreDir = dir
		return meta, nil
	}
	// Stale fixtures of other binaries would only pile up.
	if old, _ := filepath.Glob(filepath.Join(e.outDir, "fixture-"+model+"-*")); len(old) > 0 {
		for _, d := range old {
			os.RemoveAll(d)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: training the %s fixture (once per binary)\n", model)
	h := experiments.NewHarness()
	h.Quick = true
	t0 := time.Now()
	ds, err := h.GenerateTrainingData(e.plats, e.avail, 0)
	if err != nil {
		return meta, err
	}
	meta = fixtureMeta{Key: key, Model: model, GenerateS: time.Since(t0).Seconds(), Rows: ds.Len()}
	var m mlmodel.Model
	t0 = time.Now()
	switch model {
	case "gbm":
		m, err = h.Model(e.plats, e.avail)
	case "linear":
		m, err = mlmodel.LogTargetTrainer{Inner: mlmodel.LinearTrainer{}}.Fit(ds)
	default:
		err = fmt.Errorf("bench: unknown fixture model %q", model)
	}
	if err != nil {
		return meta, err
	}
	meta.TrainS = time.Since(t0).Seconds()
	meta.Trees = countTrees(m)
	art, err := registry.New(m, e.schema.Len(), e.names, ds.Len(), mlmodel.Metrics{})
	if err != nil {
		return meta, err
	}
	meta.Family = art.Family
	tmp := dir + ".tmp"
	os.RemoveAll(tmp)
	store, err := registry.OpenStore(tmp)
	if err != nil {
		return meta, err
	}
	v, err := store.Save(art)
	if err != nil {
		return meta, err
	}
	if err := store.Activate(v); err != nil {
		return meta, err
	}
	raw, _ := json.MarshalIndent(meta, "", "  ")
	if err := os.WriteFile(filepath.Join(tmp, "fixture.json"), raw, 0o644); err != nil {
		return meta, err
	}
	os.RemoveAll(dir)
	if err := os.Rename(tmp, dir); err != nil {
		return meta, err
	}
	meta.StoreDir = dir
	return meta, nil
}

func countTrees(m mlmodel.Model) int {
	switch t := m.(type) {
	case mlmodel.Ensemble:
		n := 0
		for _, member := range t.Models {
			n += countTrees(member)
		}
		return n
	case mlmodel.LogTarget:
		return countTrees(t.Inner)
	case *mlmodel.GBM:
		return t.NumTrees()
	case *mlmodel.Forest:
		return t.NumTrees()
	case *mlmodel.Tree:
		return 1
	}
	return 0
}

// namedPlan is one distinct request of a serving workload.
type namedPlan struct {
	name string
	l    *plan.Logical
}

// numServingPlans is the size of the serving workloads' working set: four
// times the 16-entry cache of cold-enum and peer-fill's replica B, so a cyclic
// replay never finds a plan it has seen in that cache.
const numServingPlans = 64

// servingPlans is the fixed working set of the three serving workloads: the
// Table II catalog at three data sizes, the synthetic pipelines and join
// trees, and RandomDAG(14) plans to fill up to 64 distinct fingerprints. The
// set does not depend on --seed (the seed orders the requests), so allocation
// counts, enumeration counts and plan quality are comparable across seeds.
func (e *env) servingPlans() ([]namedPlan, error) {
	var out []namedPlan
	seen := map[plancache.Fingerprint]bool{}
	add := func(name string, l *plan.Logical) error {
		fp, _, err := plancache.Compute(l, e.plats, e.avail, 0)
		if err != nil {
			return fmt.Errorf("bench: fingerprinting %s: %w", name, err)
		}
		if !seen[fp] {
			seen[fp] = true
			out = append(out, namedPlan{name, l})
		}
		return nil
	}
	for _, q := range workload.Catalog() {
		mid := q.MinBytes * 31.6 // 1.5 decades above the Table II minimum
		if mid > q.MaxBytes {
			mid = q.MaxBytes / 2
		}
		for i, b := range []float64{q.MinBytes, mid, q.MaxBytes} {
			if err := add(fmt.Sprintf("%s/%d", q.Name, i), q.Build(b)); err != nil {
				return nil, err
			}
		}
	}
	for _, n := range []int{12, 20, 40} {
		for _, b := range []float64{1e8, 1e10} {
			if err := add(fmt.Sprintf("Pipeline(%d)/%g", n, b), workload.Pipeline(n, b)); err != nil {
				return nil, err
			}
		}
	}
	for _, n := range []int{3, 5} {
		for _, b := range []float64{1e8, 1e10} {
			if err := add(fmt.Sprintf("JoinTree(%d)/%g", n, b), workload.JoinTree(n, b)); err != nil {
				return nil, err
			}
		}
	}
	for s := int64(1); len(out) < numServingPlans && s < 1000; s++ {
		if err := add(fmt.Sprintf("RandomDAG(14)/%d", s), workload.RandomDAG(14, 1e9, s)); err != nil {
			return nil, err
		}
	}
	if len(out) != numServingPlans {
		return nil, fmt.Errorf("bench: built %d distinct plans, want %d", len(out), numServingPlans)
	}
	return out, nil
}

// seededOrder is the request order of one cycle: a permutation of n drawn
// from --seed. Every cycle of a run replays the same permutation, which keeps
// each plan's reuse distance at exactly n.
func seededOrder(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
