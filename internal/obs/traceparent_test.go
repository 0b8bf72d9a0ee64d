package obs

import (
	"strings"
	"testing"
)

func TestParseTraceParent(t *testing.T) {
	tid := "4bf92f3577b34da6a3ce929d0e0e4736"
	pid := "00f067aa0ba902b7"
	tp, ok := ParseTraceParent("00-" + tid + "-" + pid + "-01")
	if !ok {
		t.Fatal("valid traceparent rejected")
	}
	if tp.TraceID != tid || tp.ParentID != pid || !tp.Sampled {
		t.Errorf("parsed %+v", tp)
	}
	if tp.String() != "00-"+tid+"-"+pid+"-01" {
		t.Errorf("round-trip = %q", tp.String())
	}

	tp, ok = ParseTraceParent("  00-" + tid + "-" + pid + "-00  ")
	if !ok || tp.Sampled {
		t.Error("unsampled traceparent with whitespace should parse with Sampled=false")
	}
}

func TestParseTraceParentRejects(t *testing.T) {
	tid := "4bf92f3577b34da6a3ce929d0e0e4736"
	pid := "00f067aa0ba902b7"
	bad := []string{
		"",
		"01-" + tid + "-" + pid + "-01",      // unknown version
		"00-" + tid[:31] + "-" + pid + "-01", // short trace ID
		"00-" + tid + "-" + pid[:15] + "-01", // short parent ID
		"00-" + strings.Repeat("0", 32) + "-" + pid + "-01", // all-zero trace ID
		"00-" + tid + "-" + strings.Repeat("0", 16) + "-01", // all-zero parent ID
		"00-" + strings.ToUpper(tid) + "-" + pid + "-01",    // uppercase hex
		"00-" + tid + "-" + pid,                             // missing flags
		"00-" + tid + "-" + pid + "-01-extra",               // trailing field
		"00-" + tid[:30] + "zz-" + pid + "-01",              // non-hex
	}
	for _, v := range bad {
		if _, ok := ParseTraceParent(v); ok {
			t.Errorf("accepted malformed traceparent %q", v)
		}
	}
}

func TestTraceLinksAndRequestID(t *testing.T) {
	tr := NewTrace("4bf92f3577b34da6a3ce929d0e0e4736")
	tr.RequestID = "req-42"
	tr.AddLink("aaaa", "singleflight-leader")
	tr.AddLink("aaaa", "singleflight-leader") // duplicate collapses
	tr.AddLink("bbbb", "cache-origin")
	tr.AddLink("", "ignored")
	tr.End()
	snap := tr.Snapshot()
	if snap.RequestID != "req-42" {
		t.Errorf("requestId = %q", snap.RequestID)
	}
	if len(snap.Links) != 2 {
		t.Fatalf("links = %+v, want 2", snap.Links)
	}
	if snap.Links[0].TraceID != "aaaa" || snap.Links[0].Reason != "singleflight-leader" {
		t.Errorf("link[0] = %+v", snap.Links[0])
	}

	var nilTrace *Trace
	nilTrace.AddLink("cccc", "nil-safe") // must not panic
}

func TestTracerOccupancy(t *testing.T) {
	tr := NewTracer(4, 0, 0)
	if tr.Occupancy() != 0 {
		t.Errorf("empty ring occupancy = %d", tr.Occupancy())
	}
	for i := 0; i < 2; i++ {
		run := tr.Start("id")
		tr.Finish(run, true, "")
	}
	if tr.Occupancy() != 2 {
		t.Errorf("occupancy = %d, want 2", tr.Occupancy())
	}
}
