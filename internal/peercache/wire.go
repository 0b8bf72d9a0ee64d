package peercache

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/jsonlex"
	"repro/internal/plancache"
)

// The /peercache wire format is one JSON object per cached plan,
// self-describing enough for the requester to validate the key it asked for
// and install the entry in its own cache:
//
//	{"fingerprint":   64 hex digits, the canonical plan fingerprint
//	 "modelVersion":  the artifact version that produced the plan
//	 "predicted":     the selection score (λ-adjusted on risk runs)
//	 "riskLambda":    the risk-aversion weight; absent when 0
//	 "dist":          {"mean","spread","lo","hi"}, the predictive distribution
//	 "cachedAt":      RFC 3339 origin insertion time; the receiver keeps it, so
//	                  the entry ages (and TTL-expires) alike across the fleet
//	 "assignCanon":   canonical operator index → platform column, as ints (a
//	                  byte string would travel as base64)
//	 "vectorF":       the plan's feature vector; absent when empty
//	 "traceId":       the origin enumeration's trace, when retained; the
//	                  requester links it as "peer-fill"
//	 "replica":       the answering replica's ID (diagnostics only)}
//
// The enumeration counters of the originating run are deliberately not sent: a
// peer-filled hit reports zero enumeration work of its own, like a local hit.
//
// Both directions are written by hand, because an entry is mostly a dense
// float array that is only forwarded. AppendEntry writes the bytes
// encoding/json wrote when the format was a tagged struct, and DecodeEntry
// accepts what encoding/json accepted into that struct — the struct survives
// in the tests as the oracle for both — so replicas of either kind
// interoperate.

// entryKeys and distKeys are the keys of an entry and of its "dist", in wire
// order.
var (
	entryKeys = [...]string{"fingerprint", "modelVersion", "predicted", "riskLambda", "dist", "cachedAt", "assignCanon", "vectorF", "traceId", "replica"}
	distKeys  = [...]string{"mean", "spread", "lo", "hi"}
)

// ParseFingerprint decodes a 64-hex fingerprint string.
func ParseFingerprint(s string) (plancache.Fingerprint, error) {
	return parseFingerprint([]byte(s))
}

func parseFingerprint(s []byte) (plancache.Fingerprint, error) {
	var fp plancache.Fingerprint
	if len(s) == hex.EncodedLen(len(fp)) {
		if _, err := hex.Decode(fp[:], s); err == nil {
			return fp, nil
		}
	}
	return fp, fmt.Errorf("peercache: bad fingerprint %q", s)
}

// AppendEntry appends cp's wire form, answered by replica, to dst. The only
// entries it cannot write are those JSON cannot carry: a NaN or infinite
// number, a timestamp outside RFC 3339.
func AppendEntry(dst []byte, cp *plancache.CachedPlan, replica string) ([]byte, error) {
	d := cp.PredictedDist
	for _, fs := range [...][]float64{{cp.Predicted, cp.RiskLambda, d.Mean, d.Spread, d.Lo, d.Hi}, cp.VectorF} {
		for _, f := range fs {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return dst, fmt.Errorf("peercache: entry %s carries the number %v", cp.Fingerprint, f)
			}
		}
	}
	_, offset := cp.CachedAt.Zone()
	if y := cp.CachedAt.Year(); y < 0 || y > 9999 || offset <= -24*3600 || offset >= 24*3600 {
		return dst, fmt.Errorf("peercache: entry %s cached at %v, which RFC 3339 cannot express", cp.Fingerprint, cp.CachedAt)
	}

	dst = append(dst, `{"fingerprint":"`...)
	dst = hex.AppendEncode(dst, cp.Fingerprint[:])
	dst = append(dst, `","modelVersion":`...)
	dst = appendString(dst, cp.ModelVersion)
	dst = append(dst, `,"predicted":`...)
	dst = appendFloat(dst, cp.Predicted)
	if cp.RiskLambda != 0 {
		dst = append(dst, `,"riskLambda":`...)
		dst = appendFloat(dst, cp.RiskLambda)
	}
	dst = append(dst, `,"dist":{"mean":`...)
	dst = appendFloat(dst, d.Mean)
	dst = append(dst, `,"spread":`...)
	dst = appendFloat(dst, d.Spread)
	dst = append(dst, `,"lo":`...)
	dst = appendFloat(dst, d.Lo)
	dst = append(dst, `,"hi":`...)
	dst = appendFloat(dst, d.Hi)
	dst = append(dst, `},"cachedAt":"`...)
	dst = cp.CachedAt.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","assignCanon":[`...)
	for i, col := range cp.AssignCanon {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(col), 10)
	}
	dst = append(dst, ']')
	if len(cp.VectorF) > 0 {
		dst = append(dst, `,"vectorF":[`...)
		for i, f := range cp.VectorF {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendFloat(dst, f)
		}
		dst = append(dst, ']')
	}
	if cp.TraceID != "" {
		dst = append(dst, `,"traceId":`...)
		dst = appendString(dst, cp.TraceID)
	}
	if replica != "" {
		dst = append(dst, `,"replica":`...)
		dst = appendString(dst, replica)
	}
	return append(dst, '}', '\n'), nil
}

// appendFloat appends a finite f the way encoding/json does: the shortest
// digits that read back as f, in ES6's choice between plain and exponent
// form, the exponent without a leading zero.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst
}

// appendString appends s as a JSON string. Identifiers are printable ASCII;
// anything encoding/json would escape is left to encoding/json.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// maxPresize caps how many elements an array is sized for from its unparsed
// bytes; a longer one grows as it is read.
const maxPresize = 4096

// DecodeEntry parses one wire entry into an installable cache entry and
// validates it. The caller (Cache.InstallRemote) separately enforces that the
// entry matches the key it asked for.
//
// It reads what encoding/json read into the tagged struct this format was: a
// key matches exactly or under Unicode case folding, a repeated key's later
// value wins, null leaves a field as it is, and nothing after the object is
// looked at. A key it does not know is skipped whatever its value, where the
// plan decoder rejects one: plan bytes come from clients, and a typo there
// should be a 400, but these bytes come from this program's newer and older
// builds, and a field a newer replica adds must not trip the breakers of the
// older ones around it.
func DecodeEntry(data []byte) (*plancache.CachedPlan, error) {
	d := entryDecoder{jsonlex.Scanner{Data: data, What: "peercache: decoding entry"}}
	var (
		cp     = &plancache.CachedPlan{}
		fp     []byte
		colBuf [64]int // wider than uint8: a column is range-checked once no later value can replace it
		cols   = colBuf[:0]
	)
	err := d.object(entryKeys[:], 1, func(k int) (err error) {
		switch entryKeys[k] {
		case "fingerprint":
			if !d.Null() {
				fp, err = d.Str()
			}
		case "modelVersion":
			err = d.str(&cp.ModelVersion)
		case "predicted":
			err = d.float(&cp.Predicted)
		case "riskLambda":
			err = d.float(&cp.RiskLambda)
		case "dist":
			if !d.Null() {
				dist := &cp.PredictedDist
				fields := [...]*float64{&dist.Mean, &dist.Spread, &dist.Lo, &dist.Hi}
				err = d.object(distKeys[:], 2, func(k int) error { return d.float(fields[k]) })
			}
		case "cachedAt":
			// time.Time reads the literal itself: null leaves it, anything but
			// a string is its error.
			d.SkipSpace()
			start := d.Pos
			if err = d.Skip(1); err == nil {
				if err = cp.CachedAt.UnmarshalJSON(d.Data[start:d.Pos]); err != nil {
					err = fmt.Errorf("%s: %w", d.What, err)
				}
			}
		case "assignCanon":
			cols, err = array(&d, cols, d.Int)
		case "vectorF":
			cp.VectorF, err = array(&d, cp.VectorF, d.Float)
		case "traceId":
			err = d.str(&cp.TraceID)
		case "replica":
			if !d.Null() {
				_, err = d.Str()
			}
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	if cp.Fingerprint, err = parseFingerprint(fp); err != nil {
		return nil, err
	}
	if cp.ModelVersion == "" {
		return nil, fmt.Errorf("peercache: entry without a model version")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("peercache: entry without an assignment")
	}
	cp.AssignCanon = make([]uint8, len(cols))
	for i, col := range cols {
		if col < 0 || col > 255 {
			return nil, fmt.Errorf("peercache: assignment column %d out of range", col)
		}
		cp.AssignCanon[i] = uint8(col)
	}
	if cp.CachedAt.IsZero() {
		cp.CachedAt = time.Now()
	}
	return cp, nil
}

// entryDecoder reads the entry grammar off jsonlex's tokens.
type entryDecoder struct{ jsonlex.Scanner }

// object parses an object, calling value with the index in names of every key
// that has one, at the start of the key's value, and skipping the value of
// any other key. depth counts the objects and arrays open inside it.
func (d *entryDecoder) object(names []string, depth int, value func(k int) error) error {
	if err := d.Open('{'); err != nil {
		return err
	}
	for first := true; ; first = false {
		ok, err := d.More(first, '}')
		if err != nil || !ok {
			return err
		}
		key, err := d.Key()
		if err != nil {
			return err
		}
		if k := keyIndex(names, key); k >= 0 {
			err = value(k)
		} else {
			err = d.Skip(depth)
		}
		if err != nil {
			return err
		}
	}
}

// keyIndex returns the position in names of the name key spells, exactly or
// under Unicode simple case folding (names differ under it), or -1.
func keyIndex(names []string, key []byte) int {
	for k, name := range names {
		if string(key) == name {
			return k
		}
	}
	for k, name := range names {
		if strings.EqualFold(string(key), name) {
			return k
		}
	}
	return -1
}

func (d *entryDecoder) str(dst *string) error {
	if d.Null() {
		return nil
	}
	b, err := d.Str()
	if err == nil {
		*dst = string(b)
	}
	return err
}

func (d *entryDecoder) float(dst *float64) error {
	if d.Null() {
		return nil
	}
	f, err := d.Float()
	if err == nil {
		*dst = f
	}
	return err
}

// array parses a list of numbers, or null, the way encoding/json fills a
// slice v it already holds: null makes it nil, an empty list makes it empty,
// and a list is written over the old elements, so that a null element keeps
// what an earlier list under the same key left at its position.
func array[T any](d *entryDecoder, v []T, elem func() (T, error)) ([]T, error) {
	if d.Null() {
		return nil, nil
	}
	if err := d.Open('['); err != nil {
		return nil, err
	}
	if v = v[:0]; cap(v) == 0 {
		// The commas of a list of numbers count its elements: size it once.
		if end := bytes.IndexByte(d.Data[d.Pos:], ']'); end > 0 {
			v = make([]T, 0, min(bytes.Count(d.Data[d.Pos:d.Pos+end], []byte{','})+1, maxPresize))
		}
	}
	for i := 0; ; i++ {
		ok, err := d.More(i == 0, ']')
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if i == cap(v) {
			var zero T
			v = append(v, zero)
		} else {
			v = v[:i+1]
		}
		if d.Null() {
			continue
		}
		if v[i], err = elem(); err != nil {
			return nil, err
		}
	}
	if len(v) == 0 {
		v = []T{}
	}
	return v, nil
}
