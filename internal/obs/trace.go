package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the tracing half of the observability layer: cheap span trees
// recording one optimization run each, and a Tracer that retains a bounded,
// lock-free ring of recent traces with tail-based sampling (notable runs —
// slow, degraded, errored or explicitly requested — are always retained;
// unremarkable runs are retained with a configurable probability).
//
// The fast path when tracing is disabled is strict: a nil *Trace (and a nil
// *Tracer) turns every method below into a nil-check-and-return, so
// instrumented hot paths pay one predictable branch per call site.

// Attr is one typed span attribute. Value is constrained by the typed
// setters to string, int64, float64 or bool, so snapshots marshal to JSON
// without surprises.
type Attr struct {
	Key   string
	Value any
}

// Span is one timed operation inside a trace. Spans form a tree via Parent
// (the root span has Parent -1). A span is created by Trace.StartSpan,
// annotated with the typed setters, and closed with End; all methods are
// nil-receiver-safe no-ops so disabled tracing costs one branch.
//
// A span's fields are written by the goroutine that created it; snapshots
// must only be taken after the trace is finished (the Tracer's ring only
// ever holds finished traces).
type Span struct {
	ID       int
	Parent   int
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
	// Detail is an optional structured record the span's snapshot renders
	// as-is — the optimizer hangs its pruning audit on the optimize span.
	// It must marshal to JSON and stay unchanged once the span has ended.
	Detail any
}

// SetInt attaches an integer attribute. Returns s for chaining.
func (s *Span) SetInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: v})
	return s
}

// SetFloat attaches a float attribute. Returns s for chaining.
func (s *Span) SetFloat(key string, v float64) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: v})
	return s
}

// SetStr attaches a string attribute. Returns s for chaining.
func (s *Span) SetStr(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: v})
	return s
}

// SetBool attaches a boolean attribute. Returns s for chaining.
func (s *Span) SetBool(key string, v bool) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: v})
	return s
}

// End closes the span, fixing its duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.Duration = time.Since(s.Start)
}

// TraceLink references another trace this one is causally tied to without
// being part of its span tree: a singleflight follower links the leader's
// trace, a cache hit links the trace that produced the cached plan. Reason
// names the relationship ("singleflight-leader", "cache-origin", ...).
type TraceLink struct {
	TraceID string `json:"traceId"`
	Reason  string `json:"reason"`
}

// Trace is the span tree of one optimization run. The trace ID is the
// request ID in the service unless the caller propagated a W3C traceparent,
// in which case ID is the remote 32-hex trace ID and RequestID keeps the
// local join key against logs and the response's requestId field.
type Trace struct {
	ID    string
	Start time.Time
	// RequestID is the serving request ID when it differs from ID (i.e. the
	// trace ID came in via traceparent).
	RequestID string
	// Duration is the whole trace's wall-clock time, set by End.
	Duration time.Duration
	// Retained names why the tracer kept this trace ("forced", "error",
	// "degraded", "slow" or "sampled"); set by Tracer.Finish.
	Retained string
	// Error records the run's failure when it had one.
	Error string

	mu    sync.Mutex
	spans []*Span
	links []TraceLink
	seq   uint64 // ring insertion order, set by Tracer.Finish
}

// NewTrace starts a new trace. Use a Tracer for sampling and retention; a
// bare NewTrace is for one-shot uses (CLI runs, forced request traces on
// servers without a tracer).
func NewTrace(id string) *Trace {
	return &Trace{ID: id, Start: time.Now()}
}

// StartSpan opens a child span of parent (nil parent makes a root-level
// span). Safe on a nil trace, returning a nil span whose methods no-op.
func (t *Trace) StartSpan(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	p := -1
	if parent != nil {
		p = parent.ID
	}
	s := &Span{Parent: p, Name: name, Start: time.Now()}
	t.mu.Lock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// End closes the trace, fixing its total duration. Idempotent enough for
// error paths: the last call wins.
func (t *Trace) End() {
	if t == nil {
		return
	}
	t.Duration = time.Since(t.Start)
}

// SetError records the run's failure on the trace.
func (t *Trace) SetError(msg string) {
	if t == nil {
		return
	}
	t.Error = msg
}

// AddLink records a causal link to another trace. Nil-safe; duplicate links
// (same ID and reason) are collapsed so retry loops don't grow the list.
func (t *Trace) AddLink(traceID, reason string) {
	if t == nil || traceID == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.links {
		if l.TraceID == traceID && l.Reason == reason {
			return
		}
	}
	t.links = append(t.links, TraceLink{TraceID: traceID, Reason: reason})
}

// TraceSnapshot is the JSON-ready state of a finished trace.
type TraceSnapshot struct {
	ID         string         `json:"id"`
	RequestID  string         `json:"requestId,omitempty"`
	Start      time.Time      `json:"start"`
	DurationMs float64        `json:"durationMs"`
	Retained   string         `json:"retained,omitempty"`
	Error      string         `json:"error,omitempty"`
	Links      []TraceLink    `json:"links,omitempty"`
	Spans      []SpanSnapshot `json:"spans"`
}

// SpanSnapshot is one span in a TraceSnapshot. StartMs is the offset from
// the trace start.
type SpanSnapshot struct {
	ID         int            `json:"id"`
	Parent     int            `json:"parent"`
	Name       string         `json:"name"`
	StartMs    float64        `json:"startMs"`
	DurationMs float64        `json:"durationMs"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Detail     any            `json:"detail,omitempty"`
}

func durMs(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// Snapshot renders the trace for reporting. Only call on finished traces
// (the in-run goroutine is still writing span fields before End).
func (t *Trace) Snapshot() TraceSnapshot {
	snap := TraceSnapshot{
		ID:         t.ID,
		RequestID:  t.RequestID,
		Start:      t.Start,
		DurationMs: durMs(t.Duration),
		Retained:   t.Retained,
		Error:      t.Error,
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	snap.Links = append([]TraceLink(nil), t.links...)
	t.mu.Unlock()
	snap.Spans = make([]SpanSnapshot, len(spans))
	for i, s := range spans {
		ss := SpanSnapshot{
			ID:         s.ID,
			Parent:     s.Parent,
			Name:       s.Name,
			StartMs:    durMs(s.Start.Sub(t.Start)),
			DurationMs: durMs(s.Duration),
			Detail:     s.Detail,
		}
		if len(s.Attrs) > 0 {
			ss.Attrs = make(map[string]any, len(s.Attrs))
			for _, a := range s.Attrs {
				ss.Attrs[a.Key] = a.Value
			}
		}
		snap.Spans[i] = ss
	}
	return snap
}

// DefaultTraceCap is the ring capacity of NewTracer when 0 is passed.
const DefaultTraceCap = 128

// Tracer retains recent traces in a bounded lock-free ring. Every run on a
// traced server records a trace. Measured on cold misses of serving-shaped
// plans (12–40 operators, one enumeration worker), recording adds about 260
// allocations to the 632 an untraced request makes, and a retained trace
// holds about 20 kB at five platforms (TestColdMissAllocCeiling pins the
// former). Retention is decided at Finish, when the run's outcome is known —
// notable traces (explicitly requested, errored, degraded or slower than
// SlowThreshold) are always retained, the rest with probability SampleRate.
// A nil *Tracer no-ops everywhere.
type Tracer struct {
	sample float64
	slow   time.Duration
	slots  []atomic.Pointer[Trace]
	seq    atomic.Uint64
	rng    atomic.Uint64

	retained Counter
	dropped  Counter
}

// NewTracer returns a tracer retaining up to capacity traces
// (DefaultTraceCap when 0), sampling unremarkable traces at rate sample
// (clamped to [0,1]) and always retaining traces at least slow long (0
// disables the slow gate).
func NewTracer(capacity int, sample float64, slow time.Duration) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	if sample < 0 {
		sample = 0
	}
	if sample > 1 {
		sample = 1
	}
	t := &Tracer{
		sample: sample,
		slow:   slow,
		slots:  make([]atomic.Pointer[Trace], capacity),
	}
	t.rng.Store(uint64(time.Now().UnixNano()) | 1)
	return t
}

// SampleRate returns the configured probabilistic retention rate.
func (t *Tracer) SampleRate() float64 {
	if t == nil {
		return 0
	}
	return t.sample
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.slots)
}

// Occupancy returns how many ring slots currently hold a retained trace.
func (t *Tracer) Occupancy() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.slots {
		if t.slots[i].Load() != nil {
			n++
		}
	}
	return n
}

// Retained and Dropped count Finish decisions.
func (t *Tracer) Retained() int64 {
	if t == nil {
		return 0
	}
	return t.retained.Load()
}

// Dropped counts traces Finish decided not to retain.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Start begins a new trace. Returns nil (the strict no-op path) on a nil
// tracer.
func (t *Tracer) Start(id string) *Trace {
	if t == nil {
		return nil
	}
	return NewTrace(id)
}

// rand returns a uniform float64 in [0,1) from a lock-free xorshift64 state.
func (t *Tracer) rand() float64 {
	for {
		old := t.rng.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if t.rng.CompareAndSwap(old, x) {
			return float64(x>>11) / float64(1<<53)
		}
	}
}

// Finish closes tr and decides retention: forced traces and notable ones
// (non-empty notable reason, recorded error, duration ≥ the slow threshold)
// are always retained; others are kept with probability SampleRate. Returns
// whether the trace entered the ring. Nil-safe on both receiver and trace; a
// nil tracer still closes the trace so a forced, ringless trace reports its
// duration.
func (t *Tracer) Finish(tr *Trace, forced bool, notable string) bool {
	if tr == nil {
		return false
	}
	tr.End()
	if t == nil {
		return false
	}
	reason := ""
	switch {
	case forced:
		reason = "forced"
	case tr.Error != "":
		reason = "error"
	case notable != "":
		reason = notable
	case t.slow > 0 && tr.Duration >= t.slow:
		reason = "slow"
	case t.sample > 0 && t.rand() < t.sample:
		reason = "sampled"
	}
	if reason == "" {
		t.dropped.Inc()
		return false
	}
	tr.Retained = reason
	seq := t.seq.Add(1)
	tr.seq = seq
	t.slots[seq%uint64(len(t.slots))].Store(tr)
	t.retained.Inc()
	return true
}

// Recent returns up to n retained traces, newest first (n <= 0 means all).
func (t *Tracer) Recent(n int) []*Trace {
	if t == nil {
		return nil
	}
	out := make([]*Trace, 0, len(t.slots))
	for i := range t.slots {
		if tr := t.slots[i].Load(); tr != nil {
			out = append(out, tr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq > out[j].seq })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Get returns the retained trace with the given ID (the newest, should the
// ring hold several), or nil. A trace started by a remote caller matches
// either its propagated trace ID or its local request ID, so both handles
// printed by clients resolve.
func (t *Tracer) Get(id string) *Trace {
	if t == nil {
		return nil
	}
	var best *Trace
	for i := range t.slots {
		if tr := t.slots[i].Load(); tr != nil && (tr.ID == id || tr.RequestID == id) {
			if best == nil || tr.seq > best.seq {
				best = tr
			}
		}
	}
	return best
}
