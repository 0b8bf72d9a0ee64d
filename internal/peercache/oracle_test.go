package peercache

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/plancache"
)

// The oracle: the /peercache wire format as the tagged struct encoding/json
// wrote and read before the hand codec replaced it, kept verbatim as what the
// differential tests compare AppendEntry and DecodeEntry against.

type Entry struct {
	Fingerprint  string        `json:"fingerprint"`
	ModelVersion string        `json:"modelVersion"`
	Predicted    float64       `json:"predicted"`
	RiskLambda   float64       `json:"riskLambda,omitempty"`
	Dist         core.CostDist `json:"dist"`
	CachedAt     time.Time     `json:"cachedAt"`
	AssignCanon  []int         `json:"assignCanon"`
	VectorF      []float64     `json:"vectorF,omitempty"`
	TraceID      string        `json:"traceId,omitempty"`
	Replica      string        `json:"replica,omitempty"`
}

// FromCached renders a local cache entry onto the wire.
func FromCached(cp *plancache.CachedPlan, replica string) *Entry {
	e := &Entry{
		Fingerprint:  cp.Fingerprint.String(),
		ModelVersion: cp.ModelVersion,
		Predicted:    cp.Predicted,
		RiskLambda:   cp.RiskLambda,
		Dist:         cp.PredictedDist,
		CachedAt:     cp.CachedAt,
		AssignCanon:  make([]int, len(cp.AssignCanon)),
		VectorF:      cp.VectorF,
		TraceID:      cp.TraceID,
		Replica:      replica,
	}
	for i, col := range cp.AssignCanon {
		e.AssignCanon[i] = int(col)
	}
	return e
}

// ToCached validates the wire entry and converts it into an installable
// cache entry.
func (e *Entry) ToCached() (*plancache.CachedPlan, error) {
	var fp plancache.Fingerprint
	raw, err := hex.DecodeString(e.Fingerprint)
	if err != nil || len(raw) != len(fp) {
		return nil, fmt.Errorf("peercache: bad fingerprint %q", e.Fingerprint)
	}
	copy(fp[:], raw)
	if e.ModelVersion == "" {
		return nil, fmt.Errorf("peercache: entry without a model version")
	}
	if len(e.AssignCanon) == 0 {
		return nil, fmt.Errorf("peercache: entry without an assignment")
	}
	cp := &plancache.CachedPlan{
		Fingerprint:   fp,
		ModelVersion:  e.ModelVersion,
		Predicted:     e.Predicted,
		RiskLambda:    e.RiskLambda,
		PredictedDist: e.Dist,
		CachedAt:      e.CachedAt,
		AssignCanon:   make([]uint8, len(e.AssignCanon)),
		VectorF:       e.VectorF,
		TraceID:       e.TraceID,
	}
	if cp.CachedAt.IsZero() {
		cp.CachedAt = time.Now()
	}
	for i, col := range e.AssignCanon {
		if col < 0 || col > 255 {
			return nil, fmt.Errorf("peercache: assignment column %d out of range", col)
		}
		cp.AssignCanon[i] = uint8(col)
	}
	return cp, nil
}

// oracleEncode is what handlePeercache's writeJSON put on the wire.
func oracleEncode(cp *plancache.CachedPlan, replica string) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(FromCached(cp, replica))
	return buf.Bytes(), err
}

// oracleDecode is what Filler.probe did with a 200 body. It also reports
// whether the entry's timestamp was stamped on receipt, which no two decodes
// agree on.
func oracleDecode(data []byte) (cp *plancache.CachedPlan, stamped bool, err error) {
	var e Entry
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&e); err != nil {
		return nil, false, err
	}
	cp, err = e.ToCached()
	return cp, e.CachedAt.IsZero(), err
}
