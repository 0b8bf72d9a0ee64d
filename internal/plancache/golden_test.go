package plancache

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/workload"
)

// servingPlans rebuilds the 64-plan working set of the benchmark's serving
// workloads (bench/fixture.go): the Table II catalog at three data sizes,
// the synthetic pipelines and join trees, and RandomDAG(14) plans filling up
// to 64 distinct fingerprints.
func servingPlans(t *testing.T, plats []platform.ID, avail *platform.Availability) (names []string, plans []*plan.Logical) {
	t.Helper()
	seen := map[Fingerprint]bool{}
	add := func(name string, l *plan.Logical) {
		fp, _, err := Compute(l, plats, avail, 0)
		if err != nil {
			t.Fatalf("fingerprinting %s: %v", name, err)
		}
		if !seen[fp] {
			seen[fp] = true
			names, plans = append(names, name), append(plans, l)
		}
	}
	for _, q := range workload.Catalog() {
		mid := q.MinBytes * 31.6
		if mid > q.MaxBytes {
			mid = q.MaxBytes / 2
		}
		for i, b := range []float64{q.MinBytes, mid, q.MaxBytes} {
			add(fmt.Sprintf("%s/%d", q.Name, i), q.Build(b))
		}
	}
	for _, n := range []int{12, 20, 40} {
		for _, b := range []float64{1e8, 1e10} {
			add(fmt.Sprintf("Pipeline(%d)/%g", n, b), workload.Pipeline(n, b))
		}
	}
	for _, n := range []int{3, 5} {
		for _, b := range []float64{1e8, 1e10} {
			add(fmt.Sprintf("JoinTree(%d)/%g", n, b), workload.JoinTree(n, b))
		}
	}
	for s := int64(1); len(plans) < 64 && s < 1000; s++ {
		add(fmt.Sprintf("RandomDAG(14)/%d", s), workload.RandomDAG(14, 1e9, s))
	}
	if len(plans) != 64 {
		t.Fatalf("built %d distinct plans, want 64", len(plans))
	}
	// The catalog's iterative queries have one loop region each; this plan
	// has three, interleaved, so the regions' canonical identities matter.
	b := plan.NewBuilder(64)
	prev := b.Source(platform.CollectionSource, "src", 1e6)
	var ops [6]plan.OpID
	for i := range ops {
		prev = b.Add(platform.Map, "m", platform.Linear, 1, prev)
		ops[i] = prev
	}
	b.Add(platform.CollectionSink, "sink", platform.Logarithmic, 1, prev)
	b.Loop(3, ops[4], ops[1])
	b.Loop(5, ops[0], ops[3])
	b.Loop(3, ops[2], ops[5])
	add("ThreeLoops", b.MustBuild())
	return names, plans
}

// TestFingerprintGolden pins the fingerprints of the 64 serving plans (and
// one three-loop plan) to the values recorded at commit b43c92e (testdata/serving_fingerprints.golden).
// Peers exchange fingerprints across versions, so a change to Compute that
// moves any of them splits a fleet's cache during a rolling upgrade.
func TestFingerprintGolden(t *testing.T) {
	plats, avail := fingerprintEnv(t)
	names, plans := servingPlans(t, plats, avail)
	raw, err := os.ReadFile("testdata/serving_fingerprints.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(plans) {
		t.Fatalf("golden has %d lines, want %d", len(want), len(plans))
	}
	for i, l := range plans {
		fp, _, err := Compute(l, plats, avail, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%s %s", fp, names[i]); got != want[i] {
			t.Errorf("fingerprint moved:\n got  %s\n want %s", got, want[i])
		}
	}
}
