package service_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/service"
	"repro/internal/workload"
)

// refResponse and refConversion are OptimizeResponse and ConversionJSON
// without their hand-written encoder: what encoding/json writes for them is
// the reply format AppendJSON must reproduce byte for byte.
type refResponse struct {
	RequestID           string             `json:"requestId"`
	ModelVersion        string             `json:"modelVersion"`
	Assignments         []string           `json:"assignments"`
	Conversions         []refConversion    `json:"conversions,omitempty"`
	PredictedRuntimeSec float64            `json:"predictedRuntimeSec"`
	PredictedLoSec      float64            `json:"predictedLoSec,omitempty"`
	PredictedHiSec      float64            `json:"predictedHiSec,omitempty"`
	PredictedSpreadSec  float64            `json:"predictedSpreadSec,omitempty"`
	RiskLambda          float64            `json:"riskLambda,omitempty"`
	SimulatedRuntimeSec float64            `json:"simulatedRuntimeSec,omitempty"`
	SimulatedLabel      string             `json:"simulatedLabel,omitempty"`
	Degraded            bool               `json:"degraded,omitempty"`
	DegradeReason       string             `json:"degradeReason,omitempty"`
	Stats               service.StatsJSON  `json:"stats"`
	StageMs             map[string]float64 `json:"stageMs"`
	OptimizationMs      float64            `json:"optimizationMs"`
	TraceID             string             `json:"traceId,omitempty"`
	Trace               *obs.TraceSnapshot `json:"trace,omitempty"`
	CachedAt            string             `json:"cachedAt,omitempty"`
	ServedModelVersion  string             `json:"servedModelVersion,omitempty"`
}

type refConversion struct {
	Name     string  `json:"name"`
	AfterOp  int     `json:"afterOp"`
	BeforeOp int     `json:"beforeOp"`
	Tuples   float64 `json:"tuples"`
}

// toRef copies r field by field.
func toRef(r *service.OptimizeResponse) *refResponse {
	ref := &refResponse{
		RequestID: r.RequestID, ModelVersion: r.ModelVersion, Assignments: r.Assignments,
		PredictedRuntimeSec: r.PredictedRuntimeSec, PredictedLoSec: r.PredictedLoSec, PredictedHiSec: r.PredictedHiSec,
		PredictedSpreadSec: r.PredictedSpreadSec, RiskLambda: r.RiskLambda, SimulatedRuntimeSec: r.SimulatedRuntimeSec,
		SimulatedLabel: r.SimulatedLabel, Degraded: r.Degraded, DegradeReason: r.DegradeReason, Stats: r.Stats,
		StageMs: r.StageMs, OptimizationMs: r.OptimizationMs, TraceID: r.TraceID, Trace: r.Trace,
		CachedAt: r.CachedAt, ServedModelVersion: r.ServedModelVersion,
	}
	for _, c := range r.Conversions {
		ref.Conversions = append(ref.Conversions, refConversion(c))
	}
	return ref
}

// refBatch is BatchResponse over refResponse members.
type refBatch struct {
	RequestID string      `json:"requestId"`
	Members   int         `json:"members"`
	Distinct  int         `json:"distinct"`
	CacheHits int         `json:"cacheHits"`
	Deduped   int         `json:"deduped"`
	Errors    int         `json:"errors"`
	Shed      bool        `json:"shed,omitempty"`
	TotalMs   float64     `json:"totalMs"`
	TraceID   string      `json:"traceId,omitempty"`
	Results   []refMember `json:"results"`
}

type refMember struct {
	Plan  *refResponse `json:"plan,omitempty"`
	Error string       `json:"error,omitempty"`
	Cache string       `json:"cache,omitempty"`
}

// encodeRef is what json.NewEncoder(w).Encode wrote for v.
func encodeRef(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// fuzzReply builds a reply whose strings are a and b, whose numbers are x
// and y, and whose shape — nil or filled lists and maps, omitted or present
// fields, a trace — the bits of shape choose.
func fuzzReply(a, b string, x, y float64, shape uint16) *service.OptimizeResponse {
	bit := func(i uint) bool { return shape&(1<<i) != 0 }
	pick := func(i uint, v float64) float64 {
		if bit(i) {
			return v
		}
		return 0
	}
	pickStr := func(i uint, s string) string {
		if bit(i) {
			return s
		}
		return ""
	}
	n := int(shape>>12) - 8 // small ints of either sign, zero among them
	r := &service.OptimizeResponse{
		RequestID:           a,
		ModelVersion:        b,
		PredictedRuntimeSec: x,
		PredictedLoSec:      pick(3, x),
		PredictedHiSec:      pick(4, y),
		PredictedSpreadSec:  pick(5, y),
		RiskLambda:          pick(6, x),
		SimulatedRuntimeSec: pick(7, y),
		SimulatedLabel:      pickStr(8, a),
		Degraded:            bit(9),
		DegradeReason:       pickStr(9, b),
		Stats: service.StatsJSON{
			VectorsCreated: n, Merges: len(a), ModelBatches: -n, ModelRows: len(b), MemoHits: n * 3,
			Pruned: n, IntervalKept: n, PeakEnumSize: n + 8, PoolRounds: n, PoolTasks: len(a),
			PoolSteals: n - 1, PoolQueueDepth: n + 1,
		},
		OptimizationMs:     y,
		TraceID:            pickStr(10, a),
		CachedAt:           pickStr(11, b),
		ServedModelVersion: pickStr(11, a),
	}
	if bit(0) {
		r.Assignments = []string{a, b, "Spark"}
	}
	if bit(1) {
		r.Conversions = []service.ConversionJSON{{Name: a, AfterOp: n, BeforeOp: n + 1, Tuples: x}, {Name: b, Tuples: y}}
	}
	switch {
	case bit(2):
		r.StageMs = map[string]float64{a: x, b: y, "merge": 0.25, "prune": math.Copysign(0, -1)}
	case bit(3):
		r.StageMs = map[string]float64{}
	}
	if bit(10) && bit(12) {
		r.Trace = &obs.TraceSnapshot{ID: a, RequestID: b, DurationMs: 1.5, Spans: []obs.SpanSnapshot{
			{ID: 1, Name: "cache", DurationMs: 0.5, Attrs: map[string]any{"result": a, "age_ms": y}},
		}}
	}
	return r
}

// FuzzReplyEncoding is the differential fuzz of the hand-written reply
// encoder against encoding/json on the same struct without it: a single
// reply (AppendJSON plus the newline, as send writes it) and a batch reply
// carrying it (through MarshalJSON) are byte-identical to what
// json.NewEncoder(w).Encode writes, or both encoders fail; on a single
// reply, with the same message. The committed corpus covers strings that
// need escaping (HTML characters, quotes, backslashes, control bytes,
// U+2028, invalid UTF-8, non-ASCII), floats at the edges of the plain and
// exponent forms, -0, subnormals, ±Inf and NaN, and nil and filled
// conversions and stage maps. Its seeds run as a test.
func FuzzReplyEncoding(f *testing.F) {
	f.Add("r00000001", "v1", 12.5, 0.003, uint16(0xffff))
	f.Fuzz(func(t *testing.T, a, b string, x, y float64, shape uint16) {
		r := fuzzReply(a, b, x, y, shape)
		want, wantErr := encodeRef(toRef(r))
		got, err := r.AppendJSON([]byte("prefix"))
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendJSON error %v, encoding/json error %v", err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("AppendJSON error %q, encoding/json error %q", err, wantErr)
			}
			if string(got) != "prefix" {
				t.Fatalf("a failed AppendJSON extended dst: %q", got)
			}
		} else if got := append(got[len("prefix"):], '\n'); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON:\n%s\nencoding/json:\n%s", got, want)
		}

		batch := service.BatchResponse{RequestID: b, Members: 2, Distinct: 1, TotalMs: x, Shed: shape&1 != 0,
			Results: []service.BatchMemberResult{{Plan: r, Cache: "hit"}, {Error: a}}}
		ref := refBatch{RequestID: b, Members: 2, Distinct: 1, TotalMs: x, Shed: shape&1 != 0,
			Results: []refMember{{Plan: toRef(r), Cache: "hit"}, {Error: a}}}
		got, err = encodeRef(&batch)
		want, wantErr = encodeRef(&ref)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("batch: error %v, encoding/json error %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("batch:\n%s\nencoding/json:\n%s", got, want)
		}
	})
}

// TestReplyFieldsCovered: the reference has the fields of OptimizeResponse,
// tags included, in order, so a field added to the reply fails here until
// the reference carries it too — and then the fuzz fails until AppendJSON
// writes it.
func TestReplyFieldsCovered(t *testing.T) {
	tags := func(v any) []string {
		var out []string
		for _, f := range reflect.VisibleFields(reflect.TypeOf(v)) {
			out = append(out, f.Name+" "+f.Tag.Get("json"))
		}
		return out
	}
	got, want := tags(refResponse{}), tags(service.OptimizeResponse{})
	if !slices.Equal(got, want) {
		t.Errorf("reference fields:\n%q\nOptimizeResponse fields:\n%q", got, want)
	}
	if got, want := tags(refConversion{}), tags(service.ConversionJSON{}); !slices.Equal(got, want) {
		t.Errorf("reference conversion fields %q, ConversionJSON fields %q", got, want)
	}
}

// hitReplies posts every plan the serving benchmark draws from — the
// catalog at three sizes, pipelines and join trees — to a warm server and
// returns each plan's body with the reply of its cache hit.
func hitReplies(b *testing.B) (bodies [][]byte, replies []*service.OptimizeResponse) {
	var plans []*plan.Logical
	for _, q := range workload.Catalog() {
		mid := q.MinBytes * 31.6 // 1.5 decades above the minimum, as the benchmark picks it
		if mid > q.MaxBytes {
			mid = q.MaxBytes / 2
		}
		plans = append(plans, q.Build(q.MinBytes), q.Build(mid), q.Build(q.MaxBytes))
	}
	for _, input := range []float64{1e8, 1e10} {
		for _, n := range []int{12, 20, 40} {
			plans = append(plans, workload.Pipeline(n, input))
		}
		for _, n := range []int{3, 5} {
			plans = append(plans, workload.JoinTree(n, input))
		}
	}
	post := poster(b, roboptdServer(b, plancache.Config{}))
	for _, l := range plans {
		body, err := plan.MarshalJSONPlan(l)
		if err != nil {
			b.Fatal(err)
		}
		var w *reusedWriter
		for range 2 {
			if w = post(body); w.code != http.StatusOK {
				b.Fatalf("status %d: %s", w.code, w.buf.Bytes())
			}
		}
		if xc := w.hdr.Get("X-Cache"); xc != "hit" {
			b.Fatalf("second request: X-Cache %q, want hit", xc)
		}
		var resp service.OptimizeResponse
		if err := json.Unmarshal(w.buf.Bytes(), &resp); err != nil {
			b.Fatal(err)
		}
		bodies, replies = append(bodies, body), append(replies, &resp)
	}
	return bodies, replies
}

// BenchmarkHitPath is the JSON work of a cache hit over the serving
// benchmark's plan shapes: decode the plan body, append the reply. One op
// is one plan, round robin over the set.
func BenchmarkHitPath(b *testing.B) {
	bodies, replies := hitReplies(b)
	var size int
	for _, body := range bodies {
		size += len(body)
	}
	b.SetBytes(int64(size / len(bodies)))
	var out []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(bodies)
		if _, err := plan.DecodeJSONPlan(bodies[k]); err != nil {
			b.Fatal(err)
		}
		var err error
		if out, err = replies[k].AppendJSON(out[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
