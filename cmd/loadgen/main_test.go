package main

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestPercentileNearestRank: percentile is the nearest-rank estimator, the
// sample at rank ⌈p·n⌉ of the sorted input.
func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // reversed: percentile sorts
		}
		return out
	}
	for _, c := range []struct {
		name    string
		samples []float64
		p, want float64
	}{
		{"empty", nil, 0.5, 0},
		{"one sample", []float64{4}, 0.99, 4},
		{"p50 of three", []float64{3, 1, 2}, 0.5, 2},
		{"p90 of fifteen", seq(15), 0.9, 14},
		{"p99 of two", []float64{7, 5}, 0.99, 7},
		{"p100 is the maximum", seq(15), 1, 15},
	} {
		if got := percentile(c.samples, c.p); got != c.want {
			t.Errorf("%s: percentile(p=%g) = %g, want %g", c.name, c.p, got, c.want)
		}
	}
}

// TestParseReplicas: every -replicas entry must be an http(s) base URL with a
// host. An empty entry anywhere in the list, or a bare host:port, is refused
// before the run instead of failing its share of the load.
func TestParseReplicas(t *testing.T) {
	for _, c := range []struct {
		list string
		want []string // nil: refused
	}{
		{"http://localhost:8080", []string{"http://localhost:8080"}},
		{" http://a:1/ , https://b:2 ", []string{"http://a:1", "https://b:2"}},
		{"http://a:1,http://b:2,http://c:3", []string{"http://a:1", "http://b:2", "http://c:3"}},
		{"", nil},
		{",http://a:1", nil},
		{"http://a:1,,http://b:2", nil},
		{"http://a:1,", nil},
		{"localhost:8080", nil},
		{"http://a:1,localhost:8081", nil},
		{"ftp://a:1", nil},
		{"http://", nil},
	} {
		got, err := parseReplicas(c.list)
		if c.want == nil {
			if err == nil {
				t.Errorf("parseReplicas(%q) = %q, want an error", c.list, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseReplicas(%q): %v", c.list, err)
			continue
		}
		if strings.Join(got, " ") != strings.Join(c.want, " ") {
			t.Errorf("parseReplicas(%q) = %q, want %q", c.list, got, c.want)
		}
	}
}

// TestStampRecordsProvenance: the -out summary carries, in the keys the
// committed BENCH_serving.json uses, when the run ended (UTC, RFC 3339), the
// command that re-runs it and the host's GOOS, GOARCH and CPU count.
func TestStampRecordsProvenance(t *testing.T) {
	summary := map[string]any{"ok": 1}
	now := time.Date(2026, 10, 18, 7, 30, 5, 0, time.FixedZone("CEST", 2*3600))
	stamp(summary, []string{"/tmp/go-build1/exe/loadgen", "-rate", "40", "-mix", "example=2, random=1", "-out", "BENCH_serving.json"}, now)
	raw, err := json.Marshal(summary)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Generated   string `json:"generated"`
		Command     string `json:"command"`
		Environment struct {
			GOOS   string `json:"goos"`
			GOARCH string `json:"goarch"`
			VCPUs  int    `json:"vcpus"`
		} `json:"environment"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Generated != "2026-10-18T05:30:05Z" {
		t.Errorf("generated = %q, want the end of the run in UTC, RFC 3339", got.Generated)
	}
	if want := `loadgen -rate 40 -mix "example=2, random=1" -out BENCH_serving.json`; got.Command != want {
		t.Errorf("command = %q, want %q", got.Command, want)
	}
	if e := got.Environment; e.GOOS != runtime.GOOS || e.GOARCH != runtime.GOARCH || e.VCPUs != runtime.NumCPU() {
		t.Errorf("environment = %+v, want %s/%s with %d vcpus", e, runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	}
}
