package service

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"

	"repro/internal/jsonlex"
)

// The /optimize reply is appended by hand. A cache hit does little else than
// decode a plan and write this reply, and encoding/json's reflection cost it
// more than the cache read did. AppendJSON writes the bytes encoding/json
// wrote for the tagged struct, so clients — and the bench, which decodes
// replies into OptimizeResponse — see no difference; FuzzReplyEncoding holds
// the two equal.

// AppendJSON appends r's JSON form to dst: byte for byte what encoding/json
// writes for the tagged struct (strings HTML-escaped, omitempty fields left
// out, stageMs keys sorted), without the newline Encoder.Encode adds after
// it. A NaN or infinite number is an error with encoding/json's message, and
// dst comes back unextended. The ?trace=1 snapshot, which a served reply
// rarely carries, is marshalled by encoding/json.
func (r *OptimizeResponse) AppendJSON(dst []byte) ([]byte, error) {
	e := replyEncoder{b: dst}
	e.str(`{"requestId":`, r.RequestID)
	e.str(`,"modelVersion":`, r.ModelVersion)
	e.b = append(e.b, `,"assignments":`...)
	if r.Assignments == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i, a := range r.Assignments {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = jsonlex.AppendString(e.b, a)
		}
		e.b = append(e.b, ']')
	}
	if len(r.Conversions) > 0 {
		e.b = append(e.b, `,"conversions":[`...)
		for i := range r.Conversions {
			c := &r.Conversions[i]
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.str(`{"name":`, c.Name)
			e.int(`,"afterOp":`, c.AfterOp)
			e.int(`,"beforeOp":`, c.BeforeOp)
			e.float(`,"tuples":`, c.Tuples)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	e.float(`,"predictedRuntimeSec":`, r.PredictedRuntimeSec)
	e.floatOmit(`,"predictedLoSec":`, r.PredictedLoSec)
	e.floatOmit(`,"predictedHiSec":`, r.PredictedHiSec)
	e.floatOmit(`,"predictedSpreadSec":`, r.PredictedSpreadSec)
	e.floatOmit(`,"riskLambda":`, r.RiskLambda)
	e.floatOmit(`,"simulatedRuntimeSec":`, r.SimulatedRuntimeSec)
	e.strOmit(`,"simulatedLabel":`, r.SimulatedLabel)
	if r.Degraded {
		e.b = append(e.b, `,"degraded":true`...)
	}
	e.strOmit(`,"degradeReason":`, r.DegradeReason)
	st := &r.Stats
	e.int(`,"stats":{"vectorsCreated":`, st.VectorsCreated)
	e.int(`,"merges":`, st.Merges)
	e.int(`,"modelBatches":`, st.ModelBatches)
	e.int(`,"modelRows":`, st.ModelRows)
	e.int(`,"memoHits":`, st.MemoHits)
	e.int(`,"pruned":`, st.Pruned)
	e.intOmit(`,"intervalKept":`, st.IntervalKept)
	e.int(`,"peakEnumSize":`, st.PeakEnumSize)
	e.intOmit(`,"poolRounds":`, st.PoolRounds)
	e.intOmit(`,"poolTasks":`, st.PoolTasks)
	e.intOmit(`,"poolSteals":`, st.PoolSteals)
	e.intOmit(`,"poolQueueDepth":`, st.PoolQueueDepth)
	e.b = append(e.b, `},"stageMs":`...)
	e.stageMs(r.StageMs)
	e.float(`,"optimizationMs":`, r.OptimizationMs)
	e.strOmit(`,"traceId":`, r.TraceID)
	if r.Trace != nil && e.err == nil {
		e.b = append(e.b, `,"trace":`...)
		var js []byte
		if js, e.err = json.Marshal(r.Trace); e.err == nil {
			e.b = append(e.b, js...)
		}
	}
	e.strOmit(`,"cachedAt":`, r.CachedAt)
	e.strOmit(`,"servedModelVersion":`, r.ServedModelVersion)
	if e.err != nil {
		return dst, e.err
	}
	return append(e.b, '}'), nil
}

// MarshalJSON is AppendJSON for encoding/json's callers, the members of a
// batch reply among them, which hold replies by pointer. A reply marshalled
// by value is not addressable, so encoding/json encodes it by reflection, to
// the same bytes: a value receiver would copy the reply into an interface
// and add encoding/json's validating pass over the output, and cost such a
// caller more than reflection does. Most replies fit the 1 KiB it starts
// with.
func (r *OptimizeResponse) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(make([]byte, 0, 1<<10))
}

// replyEncoder appends one reply; err holds the first number JSON cannot
// carry, in field order, as encoding/json reports the first one it meets.
type replyEncoder struct {
	b   []byte
	err error
}

func (e *replyEncoder) str(key, s string) {
	e.b = jsonlex.AppendString(append(e.b, key...), s)
}

func (e *replyEncoder) strOmit(key, s string) {
	if s != "" {
		e.str(key, s)
	}
}

func (e *replyEncoder) int(key string, v int) {
	e.b = strconv.AppendInt(append(e.b, key...), int64(v), 10)
}

func (e *replyEncoder) intOmit(key string, v int) {
	if v != 0 {
		e.int(key, v)
	}
}

func (e *replyEncoder) float(key string, f float64) {
	e.b = append(e.b, key...)
	e.number(f)
}

// floatOmit leaves f out when it is zero, -0 included, as omitempty does.
func (e *replyEncoder) floatOmit(key string, f float64) {
	if f != 0 {
		e.float(key, f)
	}
}

func (e *replyEncoder) number(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	e.b = jsonlex.AppendFloat(e.b, f)
}

// stageMs appends the stage map with its keys sorted, as encoding/json
// writes a map; a nil map is null.
func (e *replyEncoder) stageMs(m map[string]float64) {
	if m == nil {
		e.b = append(e.b, "null"...)
		return
	}
	var keyBuf [16]string // more stages than the enumeration has
	keys := keyBuf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.b = append(e.b, '{')
	for i, k := range keys {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = append(jsonlex.AppendString(e.b, k), ':')
		e.number(m[k])
	}
	e.b = append(e.b, '}')
}
