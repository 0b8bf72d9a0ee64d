package obs

import (
	"fmt"
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
	root.Detail = []int{1, 2}
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

// TestNilNoOps pins the disabled fast path: every method must be callable on
// nil receivers without panicking or allocating spans.
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

	var tc *Tracer
	if got := tc.Start("id"); got != nil {
		t.Fatal("nil tracer started a trace")
	}
	if tc.Finish(nil, true, "") {
		t.Fatal("nil tracer retained a trace")
	}
	if tc.Recent(10) != nil || tc.Get("id") != nil {
		t.Fatal("nil tracer returned traces")
	}
	if tc.SampleRate() != 0 || tc.Cap() != 0 || tc.Retained() != 0 || tc.Dropped() != 0 {
		t.Fatal("nil tracer reported nonzero state")
	}
	// A nil tracer must still close a forced one-shot trace so its duration
	// is usable in the response that inlines it.
	one := NewTrace("oneshot")
	time.Sleep(time.Millisecond)
	if tc.Finish(one, true, "") {
		t.Fatal("nil tracer retained the one-shot trace")
	}
	if one.Duration <= 0 {
		t.Fatal("one-shot trace not closed by nil tracer")
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

// TestTracerConcurrent exercises the lock-free ring and RNG under the race
// detector: concurrent finishes and readers must be safe.
func TestTracerConcurrent(t *testing.T) {
	tracer := NewTracer(8, 0.5, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := tracer.Start(fmt.Sprintf("g%d-%d", g, i))
				tr.StartSpan(nil, "optimize").End()
				tracer.Finish(tr, i%3 == 0, "")
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
