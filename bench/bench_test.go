package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestMain runs the tests the way main runs the benchmark: on one P.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1)
	os.Exit(m.Run())
}

// TestContractFile holds ../BENCHMARK.json to the program's own tables and
// the names to the contract's alphabet.
func TestContractFile(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := printContract(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; regenerate it with bench/run.sh --print-contract")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is outside the contract's alphabet or used twice", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", name, unit)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name, "")
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, m := range endToEndDefs {
		check(m.name, m.unit)
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v", m.name, m.bound)
		}
	}
	for _, m := range perLayer {
		check(m.name, m.unit)
	}
}

// small shrinks a workload to an eighth of a pass so a run takes a fraction
// of a second; the plans, their order and the checks are unchanged.
func small(def workloadDef) workloadDef {
	def.opsPerPass /= 8
	def.chunkOps = def.opsPerPass
	def.warmOps = def.opsPerPass
	return def
}

func metricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestWorkloads runs every workload briefly on the linear-model fixture, twice
// untraced and twice traced with the same seed: the runs must pass their own
// checks, emit exactly the declared metrics, and agree on everything that is
// supposed to be deterministic.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var wantE2E, wantLayers []string
	units := map[string]string{}
	for _, m := range endToEndDefs {
		wantE2E = append(wantE2E, m.name)
		units[m.name] = m.unit
	}
	for _, m := range perLayer {
		wantLayers = append(wantLayers, m.name)
		units[m.name] = m.unit
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayers)

	e, err := newEnv(t.TempDir(), "linear")
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 7, seconds: 0.2, outDir: e.outDir}
	checkRun := func(t *testing.T, rec *runRecord, want []string) {
		t.Helper()
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
			t.Fatalf("attempted %d, failed %d: %v", rec.Attempted, rec.Failed, rec.Failures)
		}
		if got := metricNames(rec.Metrics); !slices.Equal(got, want) {
			t.Fatalf("metrics %v, want %v", got, want)
		}
		for name, m := range rec.Metrics {
			if m.Unit != units[name] {
				t.Errorf("%s: unit %q, declared %q", name, m.Unit, units[name])
			}
		}
	}
	for _, def := range workloads {
		def := small(def)
		t.Run(def.name, func(t *testing.T) {
			var e2e, layers [2]*runRecord
			for i := range e2e {
				if e2e[i], err = runUntraced(e, def, o); err != nil {
					t.Fatal(err)
				}
				checkRun(t, e2e[i], wantE2E)
				// A second of tracing: enough cycles for the layer sums to settle.
				traced := o
				traced.seconds = 1
				if layers[i], err = runTraced(e, def, traced); err != nil {
					t.Fatal(err)
				}
				checkRun(t, layers[i], wantLayers)
			}
			a, b := e2e[0].Metrics, e2e[1].Metrics
			if x, y := a["allocs_per_op"].Value, b["allocs_per_op"].Value; math.Abs(x-y) > 0.01*x {
				t.Errorf("allocs_per_op %.2f vs %.2f: more than 1%% apart on the same seed", x, y)
			}
			if x, y := a["plan_quality_x"].Value, b["plan_quality_x"].Value; x != y || x <= 0 {
				t.Errorf("plan_quality_x %v vs %v", x, y)
			}
			for _, name := range append([]string{"exhaustive_vectors", "pruned_vectors", "lemma1_exact_ratio"}, coreStats...) {
				if name == "pool_steals" || strings.HasSuffix(name, "_us") {
					continue // timing-dependent
				}
				name = "core." + name
				if x, y := layers[0].Metrics[name].Value, layers[1].Metrics[name].Value; x != y {
					t.Errorf("%s %v vs %v on the same seed", name, x, y)
				}
			}
			m := layers[0].Metrics
			// The handler's own work (mux, query parsing, request IDs, the
			// deadline context) is up to a tenth of a request; allow as much
			// again for noise between the two passes.
			if r := m["bench.layers_sum_ratio"].Value; r < 0.8 || r > 1.2 {
				t.Errorf("bench.layers_sum_ratio %.3f: the layers do not add up to the handler's %.1f us", r, m["service.handler_us"].Value)
			}
			if m["core.lemma1_exact_ratio"].Value != 1 || m["core.vec_speedup_x"].Value <= 1 {
				t.Errorf("reproduction pins: lemma1_exact_ratio %v, vec_speedup_x %v",
					m["core.lemma1_exact_ratio"].Value, m["core.vec_speedup_x"].Value)
			}
		})
	}
}
