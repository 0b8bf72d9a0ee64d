package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	tr := NewTrace("t1")
	root := tr.StartSpan(nil, "optimize")
	child := tr.StartSpan(root, "prune").SetInt("vectors_in", 8).SetInt("vectors_out", 3)
	grand := tr.StartSpan(child, "infer").SetBool("cancelled", false).SetFloat("x", 1.5).SetStr("s", "v")
	grand.End()
	child.End()
	root.SetStr("plan", "example")
	root.SetDetail([]int{1, 2})
	root.End()
	tr.End()

	snap := tr.Snapshot()
	if snap.ID != "t1" {
		t.Fatalf("ID = %q", snap.ID)
	}
	if len(snap.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(snap.Spans))
	}
	if snap.Spans[0].Parent != -1 {
		t.Errorf("root parent = %d, want -1", snap.Spans[0].Parent)
	}
	if snap.Spans[1].Parent != snap.Spans[0].ID {
		t.Errorf("child parent = %d, want %d", snap.Spans[1].Parent, snap.Spans[0].ID)
	}
	if snap.Spans[2].Parent != snap.Spans[1].ID {
		t.Errorf("grandchild parent = %d, want %d", snap.Spans[2].Parent, snap.Spans[1].ID)
	}
	if got := snap.Spans[1].Attrs["vectors_in"]; got != int64(8) {
		t.Errorf("vectors_in attr = %v (%T)", got, got)
	}
	if got := snap.Spans[2].Attrs["x"]; got != 1.5 {
		t.Errorf("x attr = %v", got)
	}
	if got, ok := snap.Spans[0].Detail.([]int); !ok || len(got) != 2 || snap.Spans[1].Detail != nil {
		t.Errorf("details = %v, %v; want the root's record only", snap.Spans[0].Detail, snap.Spans[1].Detail)
	}
	if snap.Spans[1].DurationMs < 0 || snap.DurationMs < 0 {
		t.Errorf("negative durations: %v %v", snap.Spans[1].DurationMs, snap.DurationMs)
	}
}

// TestNilNoOps pins the disabled fast path: every Trace and Span method must
// be callable on nil receivers without panicking or allocating spans.
func TestNilNoOps(t *testing.T) {
	var tr *Trace
	s := tr.StartSpan(nil, "x")
	if s != nil {
		t.Fatal("nil trace produced a span")
	}
	s.SetInt("a", 1).SetFloat("b", 2).SetStr("c", "d").SetBool("e", true)
	s.End()
	tr.End()
	tr.SetError("boom")
	if NewTracer(4, 1, 0).Finish(nil, true, "") {
		t.Fatal("tracer retained a nil trace")
	}
}

func TestTracerRetention(t *testing.T) {
	cases := []struct {
		name    string
		sample  float64
		slow    time.Duration
		forced  bool
		notable string
		err     string
		sleep   time.Duration
		keep    bool
		reason  string
	}{
		{name: "forced", keep: true, forced: true, reason: "forced"},
		{name: "error", keep: true, err: "boom", reason: "error"},
		{name: "degraded", keep: true, notable: "degraded", reason: "degraded"},
		{name: "slow", keep: true, slow: time.Millisecond, sleep: 5 * time.Millisecond, reason: "slow"},
		{name: "sampled", keep: true, sample: 1, reason: "sampled"},
		{name: "dropped", keep: false, sample: 0},
		// When several reasons apply: forced > error > notable > slow > sampled.
		{name: "forced-over-error", keep: true, forced: true, err: "boom", notable: "degraded", reason: "forced"},
		{name: "error-over-notable", keep: true, err: "boom", notable: "degraded", slow: time.Millisecond, sleep: 2 * time.Millisecond, reason: "error"},
		{name: "notable-over-slow", keep: true, notable: "degraded", slow: time.Millisecond, sleep: 2 * time.Millisecond, sample: 1, reason: "degraded"},
		{name: "slow-over-sampled", keep: true, slow: time.Millisecond, sleep: 2 * time.Millisecond, sample: 1, reason: "slow"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tracer := NewTracer(4, tc.sample, tc.slow)
			tr := tracer.Start(tc.name)
			if tc.err != "" {
				tr.SetError(tc.err)
			}
			if tc.sleep > 0 {
				time.Sleep(tc.sleep)
			}
			kept := tracer.Finish(tr, tc.forced, tc.notable)
			if kept != tc.keep {
				t.Fatalf("retained = %v, want %v", kept, tc.keep)
			}
			if tc.keep {
				if tr.Retained != tc.reason {
					t.Errorf("reason = %q, want %q", tr.Retained, tc.reason)
				}
				if tracer.Get(tc.name) != tr {
					t.Error("Get did not find the retained trace")
				}
				if tracer.Retained() != 1 || tracer.Dropped() != 0 {
					t.Errorf("counters = %d/%d", tracer.Retained(), tracer.Dropped())
				}
			} else {
				if tracer.Get(tc.name) != nil {
					t.Error("dropped trace is retrievable")
				}
				if tracer.Retained() != 0 || tracer.Dropped() != 1 {
					t.Errorf("counters = %d/%d", tracer.Retained(), tracer.Dropped())
				}
			}
		})
	}
}

// TestTraceDetail pins the head-drawn half: a tracer's trace is detailed
// exactly when its request forces it or Start's draw hit, a bare NewTrace
// always is, and a trace retained as "sampled" is one whose draw hit, so it
// is detailed.
func TestTraceDetail(t *testing.T) {
	if !NewTrace("bare").Detailed() {
		t.Error("a bare NewTrace is not detailed")
	}
	var nilTrace *Trace
	nilTrace.SetDetailed()
	if nilTrace.Detailed() {
		t.Error("a nil trace is detailed")
	}
	for _, rate := range []float64{0, 1} {
		tracer := NewTracer(4, rate, 0)
		for i := 0; i < 100; i++ {
			if got := tracer.Start("r").Detailed(); got != (rate == 1) {
				t.Fatalf("rate %v: Start made a trace with Detailed() = %v", rate, got)
			}
		}
	}
	tracer := NewTracer(16, 0.5, 0)
	for i := 0; i < 400; i++ {
		tr := tracer.Start(fmt.Sprint(i))
		drawn := tr.seq&traceDrawn != 0
		forced := i%3 == 0
		if forced {
			tr.SetDetailed()
		}
		if tr.Detailed() != (forced || drawn) {
			t.Fatalf("trace %d: detailed %v, forced %v, drawn %v", i, tr.Detailed(), forced, drawn)
		}
		// Finished unforced, so only the draw can retain it.
		kept := tracer.Finish(tr, false, "")
		if kept != drawn || kept && (tr.Retained != "sampled" || !tr.Detailed()) {
			t.Fatalf("trace %d: kept %v as %q, drawn %v, detailed %v", i, kept, tr.Retained, drawn, tr.Detailed())
		}
	}
}

// TestTracerSampledShare checks the retained share of unremarkable traces is
// the sample rate: 4 000 request IDs at 0.25 keep 1 000 ± 160, about six
// standard deviations. The draw is a function of the id, so a second tracer
// draws the same traces.
func TestTracerSampledShare(t *testing.T) {
	const n, rate = 4000, 0.25
	tracer, again := NewTracer(8, rate, 0), NewTracer(8, rate, 0)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("r%08d", i)
		tr := tracer.Start(id)
		if again.Start(id).Detailed() != tr.Detailed() {
			t.Fatalf("%s: two tracers drew differently", id)
		}
		tracer.Finish(tr, false, "")
	}
	if share := float64(tracer.Retained()) / n; math.Abs(share-rate) > 0.04 {
		t.Errorf("retained share %.3f, want %.2f ± 0.04", share, rate)
	}
	if tracer.Retained()+tracer.Dropped() != n {
		t.Errorf("retained %d + dropped %d != %d", tracer.Retained(), tracer.Dropped(), n)
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tracer := NewTracer(4, 0, 0)
	for i := 0; i < 10; i++ {
		tr := tracer.Start(fmt.Sprintf("t%d", i))
		if !tracer.Finish(tr, true, "") {
			t.Fatalf("forced trace %d not retained", i)
		}
	}
	recent := tracer.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(recent))
	}
	for i, tr := range recent {
		want := fmt.Sprintf("t%d", 9-i)
		if tr.ID != want {
			t.Errorf("recent[%d] = %s, want %s (newest first)", i, tr.ID, want)
		}
	}
	if got := tracer.Recent(2); len(got) != 2 || got[0].ID != "t9" {
		t.Errorf("Recent(2) = %v", got)
	}
	if tracer.Get("t0") != nil {
		t.Error("evicted trace still retrievable")
	}
	if tracer.Get("t9") == nil {
		t.Error("newest trace not retrievable")
	}
}

func TestTracerSampleClamp(t *testing.T) {
	if got := NewTracer(0, -1, 0); got.SampleRate() != 0 || got.Cap() != DefaultTraceCap {
		t.Errorf("sample=%v cap=%d", got.SampleRate(), got.Cap())
	}
	if got := NewTracer(1, 7, 0).SampleRate(); got != 1 {
		t.Errorf("sample = %v, want clamped 1", got)
	}
}

// TestTracerConcurrent exercises the lock-free ring under the race detector:
// concurrent starts (each drawing the sample), finishes and readers must be
// safe, and a trace retained as "sampled" is detailed.
func TestTracerConcurrent(t *testing.T) {
	tracer := NewTracer(8, 0.5, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := tracer.Start(fmt.Sprintf("g%d-%d", g, i))
				forced := i%3 == 0
				if forced {
					tr.SetDetailed()
				}
				tr.StartSpan(nil, "optimize").End()
				if tracer.Finish(tr, forced, "") && tr.Retained == "sampled" && !tr.Detailed() {
					t.Errorf("%s retained as sampled without detail", tr.ID)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			for _, tr := range tracer.Recent(0) {
				tr.Snapshot()
			}
		}
	}()
	wg.Wait()
	if tracer.Retained() == 0 {
		t.Fatal("no traces retained")
	}
	if got := len(tracer.Recent(0)); got > 8 {
		t.Fatalf("ring overflow: %d traces", got)
	}
}

// TestSnapshotGolden pins what a finished trace marshals to, byte for byte:
// testdata/snapshot.golden.json was recorded while every span was its own
// object holding a slice of boxed attributes. The trace covers int64 (small,
// large and negative), float64, bool and string attributes, a key written
// twice (the last write wins), a span without attributes, a detail record, a
// link, an error, and more spans than the first two span chunks hold. Clock
// readings are replaced by fixed values before marshalling.
func TestSnapshotGolden(t *testing.T) {
	tr := NewTrace("4bf92f3577b34da6a3ce929d0e0e4736")
	tr.RequestID = "req-7"
	root := tr.StartSpan(nil, "optimize")
	root.SetInt("ops", 12).SetFloat("searchSpace", 531441).SetInt("big", 1<<40).SetInt("neg", -3)
	var spans []*Span
	for i := 0; i < 14; i++ {
		spans = append(spans, tr.StartSpan(root, fmt.Sprintf("step%d", i)))
	}
	for i, sp := range spans {
		switch i % 4 {
		case 0:
			sp.SetInt("step", int64(i)).SetInt("step", int64(10*i))
		case 1:
			sp.SetFloat("ratio", float64(i)/3).SetBool("stolen", i%2 == 1)
		case 2:
			sp.SetStr("result", "hit").SetStr("result", fmt.Sprint("miss", i))
		}
		sp.End()
	}
	root.SetBool("degraded", true).SetStr("degradeReason", "max-vectors")
	root.SetDetail(map[string]any{"prunes": []int{1, 2}, "final": "x"})
	root.End()
	tr.AddLink("0af7651916cd43dd8448eb211c80319c", "cache-origin")
	tr.SetError("boom")
	tr.End()

	snap := tr.Snapshot()
	snap.Start = time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	snap.DurationMs = 1.5
	for i := range snap.Spans {
		snap.Spans[i].StartMs, snap.Spans[i].DurationMs = float64(i), 0.25
	}
	got, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "snapshot.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.TrimSpace(want)) {
		t.Errorf("snapshot marshals to\n%s\nwant\n%s", got, want)
	}
}

// TestSpanPointersSurviveChunks checks that spans taken before several span
// chunks filled up still read and write their own slots: every span is
// annotated and closed only after all of them were started, a few
// milliseconds later, so a close written anywhere but the span's slot
// leaves a zero duration.
func TestSpanPointersSurviveChunks(t *testing.T) {
	const n = 300 // the first span, then chunks of 4, 8, …, 128 and part of 256
	tr := NewTrace("chunks")
	spans := make([]*Span, n)
	for i := range spans {
		var parent *Span
		if i > 0 {
			parent = spans[(i-1)/2]
		}
		spans[i] = tr.StartSpan(parent, fmt.Sprintf("s%d", i))
	}
	const wait = 2 * time.Millisecond
	time.Sleep(wait)
	for i := n - 1; i >= 0; i-- {
		spans[i].SetInt("i", int64(i)).SetStr("name", fmt.Sprintf("s%d", i))
		spans[i].End()
	}
	tr.End()
	snap := tr.Snapshot()
	if len(snap.Spans) != n {
		t.Fatalf("%d spans, want %d", len(snap.Spans), n)
	}
	for i, ss := range snap.Spans {
		wantParent := -1
		if i > 0 {
			wantParent = (i - 1) / 2
		}
		name := fmt.Sprintf("s%d", i)
		if ss.ID != i || ss.Parent != wantParent || ss.Name != name || ss.DurationMs < durMs(wait) ||
			ss.Attrs["i"] != int64(i) || ss.Attrs["name"] != name || len(ss.Attrs) != 2 {
			t.Fatalf("span %d = %+v", i, ss)
		}
	}
}

// TestSpanConcurrentWriters starts and annotates spans of one trace from
// four goroutines at once, as the workers of a parallel enumeration do (CI
// runs it under the race detector at -cpu 1,2,4).
func TestSpanConcurrentWriters(t *testing.T) {
	const goroutines, each = 4, 200
	tr := NewTrace("concurrent")
	root := tr.StartSpan(nil, "optimize")
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sp := tr.StartSpan(root, fmt.Sprintf("g%d", g))
				sp.SetInt("i", int64(i)).SetFloat("f", float64(i)/2).SetBool("odd", i%2 == 1).SetStr("g", fmt.Sprint(g))
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	root.End()
	tr.End()
	snap := tr.Snapshot()
	if len(snap.Spans) != 1+goroutines*each {
		t.Fatalf("%d spans, want %d", len(snap.Spans), 1+goroutines*each)
	}
	seen := map[string]int{}
	for _, ss := range snap.Spans[1:] {
		i, _ := ss.Attrs["i"].(int64)
		if ss.Parent != 0 || ss.Attrs["g"] != ss.Name[1:] || ss.Attrs["f"] != float64(i)/2 || ss.Attrs["odd"] != (i%2 == 1) {
			t.Fatalf("span %d = %+v", ss.ID, ss)
		}
		if int(i) != seen[ss.Name] {
			t.Fatalf("span %d: %s's spans out of order: i = %d, want %d", ss.ID, ss.Name, i, seen[ss.Name])
		}
		seen[ss.Name]++
	}
}

// TestOneSpanTraceAllocs pins what a cache hit's trace costs: one span with
// four attributes, three of them strings, is the trace itself, its attribute
// block and its string values — three allocations, 432 bytes. While every
// span was its own object holding a slice of boxed attributes it was ten.
func TestOneSpanTraceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const (
		maxAllocs = 3
		maxBytes  = 432
	)
	run := func() {
		tr := NewTrace("4bf92f3577b34da6a3ce929d0e0e4736")
		sp := tr.StartSpan(nil, "cache")
		sp.SetStr("result", "hit").SetStr("fingerprint", "9f0b062d30b1").SetStr("modelVersion", "v1").SetFloat("age_ms", 12.5)
		sp.End()
		tr.End()
	}
	allocs := testing.AllocsPerRun(100, run)
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("one span, four attributes: %.0f allocations, %d bytes", allocs, bytes)
	if allocs > maxAllocs {
		t.Errorf("%.0f allocations, ceiling %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("%d bytes, ceiling %d", bytes, maxBytes)
	}
}
