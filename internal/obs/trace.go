package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the tracing half of the observability layer: cheap span trees
// recording one optimization run each, and a Tracer that retains a bounded,
// lock-free ring of recent traces. A trace's detail is drawn when it starts:
// a trace the tracer samples (or the request forces) records every span and
// the pruning audit, any other records only a summary. Its retention is
// decided when it finishes: notable runs (slow, degraded, errored or
// explicitly requested) are always retained, sampled ones too.
//
// The fast path when tracing is disabled is strict: a nil *Trace turns every
// method below into a nil-check-and-return, so instrumented hot paths (core's
// untraced library runs) pay one predictable branch per call site.

// Span is one timed operation inside a trace. Spans form a tree (the root
// span's parent is -1). A span is created by Trace.StartSpan, annotated with
// the typed setters, and closed with End; all methods are nil-receiver-safe
// no-ops so disabled tracing costs one branch.
//
// A span lives in its trace's span chunks, which never move, so the pointer
// StartSpan returns stays valid for the trace's lifetime. The setters go
// through the trace's lock; End does not, so one goroutine at a time owns a
// span, and snapshots must only be taken after the trace is finished (the
// Tracer's ring only ever holds finished traces).
type Span struct {
	t          *Trace
	name       string
	start, dur time.Duration // start is the offset from the trace's start
	id, parent int32
}

// attrKind tags the value of an attribute record.
type attrKind uint8

const (
	attrInt attrKind = iota
	attrFloat
	attrBool
	attrStr
)

// attr is one typed span attribute in its trace's attribute block: the key,
// the span it belongs to, and the value's bits — the int64, the float64's
// IEEE bits, 0 or 1, or the index of a string value in the trace's strs.
// Nothing is boxed until a snapshot renders it.
type attr struct {
	key  string
	bits uint64
	span int32
	kind attrKind
}

// spanDetail is a structured record hung on a span (Span.SetDetail).
type spanDetail struct {
	span int32
	v    any
}

// set appends one attribute record to s's trace. Returns s for chaining.
func (s *Span) set(key string, kind attrKind, bits uint64, str string) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	t.mu.Lock()
	if kind == attrStr {
		if t.strs == nil {
			t.strs = make([]string, 0, firstAttrs)
		}
		bits = uint64(len(t.strs))
		t.strs = append(t.strs, str)
	}
	if t.attrs == nil {
		t.attrs = make([]attr, 0, firstAttrs)
	}
	t.attrs = append(t.attrs, attr{key: key, bits: bits, span: s.id, kind: kind})
	t.mu.Unlock()
	return s
}

// SetInt attaches an integer attribute. Returns s for chaining.
func (s *Span) SetInt(key string, v int64) *Span { return s.set(key, attrInt, uint64(v), "") }

// SetFloat attaches a float attribute. Returns s for chaining.
func (s *Span) SetFloat(key string, v float64) *Span {
	return s.set(key, attrFloat, math.Float64bits(v), "")
}

// SetStr attaches a string attribute. Returns s for chaining.
func (s *Span) SetStr(key, v string) *Span { return s.set(key, attrStr, 0, v) }

// SetBool attaches a boolean attribute. Returns s for chaining.
func (s *Span) SetBool(key string, v bool) *Span {
	var bits uint64
	if v {
		bits = 1
	}
	return s.set(key, attrBool, bits, "")
}

// SetDetail hangs a structured record on the span, which its snapshot
// renders as-is — the optimizer hangs its pruning audit on the optimize span.
// It must marshal to JSON and stay unchanged once the span has ended.
func (s *Span) SetDetail(v any) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	m := s.t.ensureMore()
	m.details = append(m.details, spanDetail{span: s.id, v: v})
	s.t.mu.Unlock()
}

// End closes the span, fixing its duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.dur = time.Since(s.t.Start) - s.start
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

	// mu guards everything below: spans and attributes are added by every
	// goroutine of a parallel run.
	mu sync.Mutex
	// Spans live in chunks that are never reallocated, so a *Span stays
	// valid: the first span in the trace itself (a cache hit's trace has that
	// one span), the others in more.
	first Span
	more  *moreSpans
	attrs []attr
	strs  []string // the values of string attributes
	links []TraceLink
	// seq holds the start-time flags (traceDrawn, traceDetailed) in its low
	// bits and, from Tracer.Finish on, the ring insertion order above them.
	// Packing them keeps a Trace in its 240-byte size class.
	seq uint64
}

// The flags in the low bits of Trace.seq.
const (
	traceDrawn    = 1 << iota // the tracer's sample draw hit at Start
	traceDetailed             // runs on the trace record their full detail
	seqFlagBits   = iota
)

// moreSpans is what a trace of more than one span holds besides its first:
// spans 1, 2, … in chunks, chunk k holding firstSpanChunk<<k spans, and the
// spans' detail records.
type moreSpans struct {
	n       int32 // spans in chunks
	chunks  [][]Span
	details []spanDetail
}

// Block sizes of a trace. A traced cold optimization records a few dozen
// spans and about twice as many attributes; the chunk list is sized for
// firstSpanChunk·(2^spanChunks − 1) spans before it regrows.
const (
	firstSpanChunk = 4
	spanChunks     = 6
	firstAttrs     = 4
)

// NewTrace starts a new detailed trace. Use a Tracer for sampling and
// retention; a bare NewTrace is for one-shot uses (CLI runs, library
// callers).
func NewTrace(id string) *Trace {
	return &Trace{ID: id, Start: time.Now(), seq: traceDetailed}
}

// Detailed reports whether runs on the trace record their full detail (every
// span and the pruning audit) rather than a summary: a bare NewTrace always,
// a Tracer's trace when its sample draw hit or SetDetailed forced it. False
// on a nil trace.
func (t *Trace) Detailed() bool {
	return t != nil && t.seq&traceDetailed != 0
}

// SetDetailed makes the trace detailed whatever its draw: a request that
// forces its trace's retention gets the full detail too. Call it before the
// trace is shared. Nil-safe.
func (t *Trace) SetDetailed() {
	if t != nil {
		t.seq |= traceDetailed
	}
}

// StartSpan opens a child span of parent (nil parent makes a root-level
// span). Safe on a nil trace, returning a nil span whose methods no-op.
func (t *Trace) StartSpan(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	p := int32(-1)
	if parent != nil {
		p = parent.id
	}
	start := time.Since(t.Start)
	t.mu.Lock()
	s := t.newSpan()
	*s = Span{t: t, name: name, start: start, id: s.id, parent: p}
	t.mu.Unlock()
	return s
}

// newSpan returns the slot of the next span, its id set. t.mu must be held.
func (t *Trace) newSpan() *Span {
	if t.first.t == nil {
		return &t.first
	}
	m := t.ensureMore()
	if k := len(m.chunks); k == 0 || len(m.chunks[k-1]) == cap(m.chunks[k-1]) {
		m.chunks = append(m.chunks, make([]Span, 0, firstSpanChunk<<k))
	}
	last := &m.chunks[len(m.chunks)-1]
	*last = (*last)[:len(*last)+1]
	m.n++
	s := &(*last)[len(*last)-1]
	s.id = m.n
	return s
}

// ensureMore returns t.more, allocated on first use. t.mu must be held.
func (t *Trace) ensureMore() *moreSpans {
	if t.more == nil {
		t.more = &moreSpans{chunks: make([][]Span, 0, spanChunks)}
	}
	return t.more
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
	defer t.mu.Unlock()
	snap.Links = append([]TraceLink(nil), t.links...)
	if t.first.t == nil {
		snap.Spans = []SpanSnapshot{}
		return snap
	}
	m := t.more
	if m == nil {
		m = &moreSpans{}
	}
	snap.Spans = make([]SpanSnapshot, 1+m.n)
	t.first.snapshot(&snap.Spans[0])
	i := 1
	for _, ch := range m.chunks {
		for k := range ch {
			ch[k].snapshot(&snap.Spans[i])
			i++
		}
	}
	// Records are in write order, so a repeated key's last write wins.
	for _, a := range t.attrs {
		ss := &snap.Spans[a.span]
		if ss.Attrs == nil {
			ss.Attrs = make(map[string]any)
		}
		switch a.kind {
		case attrInt:
			ss.Attrs[a.key] = int64(a.bits)
		case attrFloat:
			ss.Attrs[a.key] = math.Float64frombits(a.bits)
		case attrBool:
			ss.Attrs[a.key] = a.bits != 0
		default:
			ss.Attrs[a.key] = t.strs[a.bits]
		}
	}
	for _, d := range m.details {
		snap.Spans[d.span].Detail = d.v
	}
	return snap
}

// snapshot renders s's own fields into ss.
func (s *Span) snapshot(ss *SpanSnapshot) {
	*ss = SpanSnapshot{
		ID:         int(s.id),
		Parent:     int(s.parent),
		Name:       s.name,
		StartMs:    durMs(s.start),
		DurationMs: durMs(s.dur),
	}
}

// DefaultTraceCap is the ring capacity of NewTracer when 0 is passed.
const DefaultTraceCap = 128

// Tracer retains recent traces in a bounded lock-free ring, with head-drawn
// detail and tail-decided retention. Start draws the sample: a trace whose
// id falls in it (a share SampleRate of ids) is detailed, and so is one the
// request forces (Trace.SetDetailed); on any other an optimization run
// records its optimize span alone, as a summary. Measured on cold misses of
// serving-shaped plans (12–40 operators, one enumeration worker,
// TestColdMissAllocCeiling), a detailed trace costs 24 allocations and
// 21 kB more than a summary. Retention is decided at Finish, when the run's
// outcome is known: notable traces (explicitly requested, errored, degraded
// or slower than SlowThreshold) are always retained, with whatever detail
// they drew, and the rest exactly when their draw hit.
type Tracer struct {
	sample float64
	slow   time.Duration
	slots  []atomic.Pointer[Trace]
	seq    atomic.Uint64

	retained Counter
	dropped  Counter
}

// NewTracer returns a tracer retaining up to capacity traces
// (DefaultTraceCap when 0), sampling a share sample of trace ids (clamped to
// [0,1]) and always retaining traces at least slow long (0
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
	return &Tracer{
		sample: sample,
		slow:   slow,
		slots:  make([]atomic.Pointer[Trace], capacity),
	}
}

// SampleRate returns the configured share of trace ids that are detailed
// and retained.
func (t *Tracer) SampleRate() float64 {
	return t.sample
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int {
	return len(t.slots)
}

// Occupancy returns how many ring slots currently hold a retained trace.
func (t *Tracer) Occupancy() int {
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
	return t.retained.Load()
}

// Dropped counts traces Finish decided not to retain.
func (t *Tracer) Dropped() int64 {
	return t.dropped.Load()
}

// Start begins a new trace and draws its sample: a trace whose id falls in
// the sample is detailed and, at Finish, retained as "sampled".
func (t *Tracer) Start(id string) *Trace {
	tr := &Trace{ID: id, Start: time.Now()}
	if t.draw(id) {
		tr.seq = traceDrawn | traceDetailed
	}
	return tr
}

// draw reports whether id falls in the sample: its hash, read as a uniform
// fraction in [0,1), is below SampleRate. The draw is a function of the id
// alone, as in OpenTelemetry's trace-ID ratio sampler: the same request
// sequence draws the same traces run after run, and every replica draws the
// same for one propagated trace ID.
func (t *Tracer) draw(id string) bool {
	if t.sample >= 1 || t.sample <= 0 {
		return t.sample >= 1
	}
	// FNV-1a, then splitmix64's finalizer, so ids that differ in their last
	// digit land all over the range.
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11)/(1<<53) < t.sample
}

// Finish closes tr and decides retention: forced traces and notable ones
// (non-empty notable reason, recorded error, duration ≥ the slow threshold)
// are always retained; others are kept exactly when Start's draw hit.
// Returns whether the trace entered the ring. Nil-safe on the trace.
func (t *Tracer) Finish(tr *Trace, forced bool, notable string) bool {
	if tr == nil {
		return false
	}
	tr.End()
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
	case tr.seq&traceDrawn != 0:
		reason = "sampled"
	}
	if reason == "" {
		t.dropped.Inc()
		return false
	}
	tr.Retained = reason
	seq := t.seq.Add(1)
	tr.seq = seq<<seqFlagBits | tr.seq&(1<<seqFlagBits-1)
	t.slots[seq%uint64(len(t.slots))].Store(tr)
	t.retained.Inc()
	return true
}

// Recent returns up to n retained traces, newest first (n <= 0 means all).
func (t *Tracer) Recent(n int) []*Trace {
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
