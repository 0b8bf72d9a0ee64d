package main

import (
	"encoding/json"
	"io"
)

// runSeconds is the length of one measured window the acceptance driver asks
// for (BENCHMARK.json's run_seconds), and the default of --seconds.
const runSeconds = 20

// endToEndDefs declares the nine end-to-end metrics every workload reports
// with --trace 0. bound is the share of the parent's median by which a later
// change may worsen the metric; bench/README.md holds the A/A evidence.
var endToEndDefs = []struct {
	name, unit, better string
	bound              float64
}{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.20},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.20},
	{"cpu_ms_per_op", "ms", "lower", 0.20},
	{"allocs_per_op", "count", "lower", 0.01},
	{"alloc_kb_per_op", "kB", "lower", 0.02},
	{"heap_live_mb", "MB", "lower", 0.20},
	{"plan_quality_x", "x", "higher", 0.001},
}

// higherIsBetter names the per-layer metrics that are benefits, not costs.
var higherIsBetter = map[string]bool{
	"plancache.hit_ratio": true, "plancache.peer_fills": true, "peercache.peer_hits": true,
	"core.parallel_speedup_x": true, "core.lemma1_exact_ratio": true, "core.vec_speedup_x": true,
	"core.memo_hits": true, "core.pruned": true,
}

// printContract writes BENCHMARK.json from the program's own tables, so the
// file at the repository root cannot drift from what the program emits:
// `bench/run.sh --print-contract > BENCHMARK.json`, and bench_test.go
// compares the two.
func printContract(w io.Writer) error {
	type nameWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	c := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []nameWhy `json:"workloads"`
		EndToEnd   []e2e     `json:"end_to_end"`
		PerLayer   []layer   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, d := range workloads {
		c.Workloads = append(c.Workloads, nameWhy{d.name, d.why})
	}
	for _, d := range endToEndDefs {
		c.EndToEnd = append(c.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		better := "lower"
		if higherIsBetter[d.name] {
			better = "higher"
		}
		c.PerLayer = append(c.PerLayer, layer{d.name, d.unit, better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}
