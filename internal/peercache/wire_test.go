package peercache

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jsonlex"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/vecops"
	"repro/internal/workload"
)

// weightModel is a cheap deterministic cost oracle.
type weightModel struct{}

func (weightModel) Predict(f []float64) float64 {
	s := 0.0
	for i, v := range f {
		s += v * float64(i%7)
	}
	return s
}

func (m weightModel) PredictBatchDist(X *vecops.Matrix, mean, spread, lo, hi []float64) {
	for i := 0; i < X.Rows; i++ {
		mean[i] = m.Predict(X.Row(i))
		if spread != nil {
			spread[i], lo[i], hi[i] = 0, mean[i], mean[i]
		}
	}
}

// servedPlans are cache entries as a replica holds them: serving plans (the
// catalog, synthetic pipelines, join trees and random DAGs the benchmark's
// working set is drawn from), optimized, fingerprinted and converted by
// plancache.FromResult, so that their assignments and predictions are real
// ones.
func servedPlans(t testing.TB) []*plancache.CachedPlan {
	cps, _ := servedPlansWithVectors(t)
	return cps
}

// servedPlansWithVectors is servedPlans plus each plan's feature vector, the
// "vectorF" older builds sent along.
func servedPlansWithVectors(t testing.TB) ([]*plancache.CachedPlan, [][]float64) {
	t.Helper()
	plats, avail := platform.Subset(3), platform.UniformAvailability(3)
	plans := []*plan.Logical{workload.RunningExample(), workload.Pipeline(12, 1e8), workload.Pipeline(40, 1e10), workload.JoinTree(3, 1e9)}
	for _, q := range workload.Catalog() {
		plans = append(plans, q.Build(q.MinBytes))
	}
	for seed := int64(1); seed <= 4; seed++ {
		plans = append(plans, workload.RandomDAG(14, 1e9, seed))
	}
	var (
		out  []*plancache.CachedPlan
		vecs [][]float64
	)
	for i, l := range plans {
		cctx, err := core.NewContext(l, plats, avail)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cctx.Optimize(context.Background(), weightModel{})
		if err != nil {
			t.Fatal(err)
		}
		fp, canon, err := plancache.Compute(l, plats, avail, 0)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := plancache.FromResult(fp, canon, fmt.Sprintf("v%d", i+1), res)
		if err != nil {
			t.Fatal(err)
		}
		cp.Stats = core.Stats{} // not on the wire
		cp.TraceID = fmt.Sprintf("%032x", i+1)
		if i%3 == 0 {
			cp.RiskLambda = 0.5
		}
		out, vecs = append(out, cp), append(vecs, res.Vector.F)
	}
	return out, vecs
}

// checkEncode is the encode half of the differential: AppendEntry writes the
// bytes the oracle writes, after whatever dst already holds, and fails when
// the oracle does.
func checkEncode(t *testing.T, name string, cp *plancache.CachedPlan, replica string) {
	t.Helper()
	want, wantErr := oracleEncode(cp, replica)
	got, err := AppendEntry([]byte("dst"), cp, replica)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: AppendEntry error %v, oracle error %v", name, err, wantErr)
	}
	if err != nil {
		if string(got) != "dst" {
			t.Fatalf("%s: a failed AppendEntry left %q in dst", name, got)
		}
		return
	}
	if string(got) != "dst"+string(want) {
		t.Fatalf("%s: wire bytes differ\n got  %s\n want %s", name, got[3:], want)
	}
}

func TestAppendEntryMatchesJSON(t *testing.T) {
	for i, cp := range servedPlans(t) {
		checkEncode(t, fmt.Sprintf("served plan %d", i), cp, "replica-a")
	}

	base := func() *plancache.CachedPlan { return testPlan(7, "v3") }
	edge := map[string]func(cp *plancache.CachedPlan){
		"plain": func(cp *plancache.CachedPlan) {},
		"floats": func(cp *plancache.CachedPlan) {
			cp.Predicted, cp.PredictedDist = 1e-7, core.CostDist{Mean: 1e21, Spread: math.Copysign(0, -1), Lo: -5e-324, Hi: 1 << 53}
		},
		"riskLambda non-zero":   func(cp *plancache.CachedPlan) { cp.RiskLambda = 0.25 },
		"riskLambda tiny":       func(cp *plancache.CachedPlan) { cp.RiskLambda = 1e-9 },
		"riskLambda minus zero": func(cp *plancache.CachedPlan) { cp.RiskLambda = math.Copysign(0, -1) },
		"assignment empty":      func(cp *plancache.CachedPlan) { cp.AssignCanon = nil },
		"assignment wide":       func(cp *plancache.CachedPlan) { cp.AssignCanon = []uint8{0, 9, 10, 99, 100, 255} },
		"traceId absent":        func(cp *plancache.CachedPlan) { cp.TraceID = "" },
		"strings escaped": func(cp *plancache.CachedPlan) {
			cp.ModelVersion, cp.TraceID = "v<1>&\"x\"\\", "tab\there\x00\x7f\u2028é\xff"
		},
		"cachedAt whole second": func(cp *plancache.CachedPlan) { cp.CachedAt = time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC) },
		"cachedAt nanoseconds":  func(cp *plancache.CachedPlan) { cp.CachedAt = time.Date(2026, 10, 1, 12, 0, 0, 123456789, time.UTC) },
		"cachedAt milliseconds": func(cp *plancache.CachedPlan) { cp.CachedAt = time.Date(2026, 10, 1, 12, 0, 0, 120e6, time.UTC) },
		"cachedAt zoned": func(cp *plancache.CachedPlan) {
			cp.CachedAt = time.Date(2026, 10, 1, 12, 0, 0, 5, time.FixedZone("x", -(7*3600+30*60)))
		},
		"cachedAt sub-minute zone": func(cp *plancache.CachedPlan) {
			cp.CachedAt = time.Date(2026, 10, 1, 12, 0, 0, 0, time.FixedZone("x", 59))
		},
		"cachedAt monotonic": func(cp *plancache.CachedPlan) { cp.CachedAt = time.Now() },
		"cachedAt zero":      func(cp *plancache.CachedPlan) { cp.CachedAt = time.Time{} },
		// What JSON cannot carry fails on both sides.
		"cachedAt year 10000": func(cp *plancache.CachedPlan) { cp.CachedAt = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) },
		"cachedAt year -1":    func(cp *plancache.CachedPlan) { cp.CachedAt = time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC) },
		"cachedAt zone +24h": func(cp *plancache.CachedPlan) {
			cp.CachedAt = time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("x", 24*3600))
		},
		"cachedAt zone -24h": func(cp *plancache.CachedPlan) {
			cp.CachedAt = time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("x", -24*3600))
		},
		"NaN risk":      func(cp *plancache.CachedPlan) { cp.RiskLambda = math.NaN() },
		"Inf predicted": func(cp *plancache.CachedPlan) { cp.Predicted = math.Inf(1) },
		"-Inf in dist":  func(cp *plancache.CachedPlan) { cp.PredictedDist.Lo = math.Inf(-1) },
	}
	// Every number of the entry goes through one float writer: its corners,
	// each in every float field.
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e21, 9.999999999999999e20, -1e21, 1e-6, 1e-7, 9.999999999999999e-7,
		-1e-7, 1e-10, 1.5e-10, 1e100, 1.7976931348623157e308, 5e-324, 2.2250738585072014e-308, 1e-320,
		1 << 53, 1<<53 - 1, 1<<53 + 2, -(1 << 53), 1 << 62, 1e15, 999999999999999, 123456789012345680, -5, -100, 7.5,
		0.000001234, 100, 1e20, 3.14159, 1.0 / 3,
	} {
		edge[fmt.Sprintf("float %v", f)] = func(cp *plancache.CachedPlan) {
			cp.Predicted, cp.RiskLambda, cp.PredictedDist = f, f, core.CostDist{Mean: f, Spread: f, Lo: f, Hi: f}
		}
	}
	for name, mutate := range edge {
		for _, replica := range []string{"", "replica-a", `r<"é">`} {
			cp := base()
			mutate(cp)
			checkEncode(t, name+"/"+replica, cp, replica)
		}
	}

	rng := rand.New(rand.NewSource(18))
	randFloat := func() float64 {
		switch rng.Intn(4) {
		case 0: // any bit pattern: NaN and ±Inf among them, about 1 in 2048
			return math.Float64frombits(rng.Uint64())
		case 1: // integers, past 2⁵³ too
			return float64((rng.Int63n(1<<56) - 1<<55) >> rng.Intn(56))
		case 2:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		return rng.Float64()
	}
	const alphabet = "abcXYZ019-_. <>&\"\\\n\x01é\u2029\xfe"
	randString := func() string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 2000; i++ {
		cp := &plancache.CachedPlan{
			ModelVersion:  randString(),
			Predicted:     randFloat(),
			PredictedDist: core.CostDist{Mean: randFloat(), Spread: randFloat(), Lo: randFloat(), Hi: randFloat()},
			CachedAt:      time.Unix(rng.Int63n(4e9), rng.Int63n(3)*rng.Int63n(1e9)).In(time.FixedZone("", rng.Intn(3)*(rng.Intn(28*3600)-14*3600))),
			AssignCanon:   make([]uint8, rng.Intn(50)),
			TraceID:       randString(),
		}
		rng.Read(cp.Fingerprint[:])
		rng.Read(cp.AssignCanon)
		if rng.Intn(2) == 0 {
			cp.RiskLambda = randFloat()
		}
		checkEncode(t, fmt.Sprintf("random entry %d", i), cp, randString())
	}
}

// checkDecode is the decode half of the differential: DecodeEntry accepts
// exactly the bodies the oracle accepts, and to the same entry.
func checkDecode(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	want, stamped, wantErr := oracleDecode(body)
	got, err := DecodeEntry(body)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("DecodeEntry error %v, oracle error %v, on %q", err, wantErr, body)
	}
	if err != nil {
		if !strings.HasPrefix(err.Error(), "peercache: ") {
			t.Fatalf("error without the package prefix: %v", err)
		}
		return false
	}
	if stamped {
		if since := time.Since(got.CachedAt); since < 0 || since > time.Minute {
			t.Fatalf("entry without a timestamp stamped %v, not now, on %q", got.CachedAt, body)
		}
		got.CachedAt, want.CachedAt = time.Time{}, time.Time{}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoder and oracle disagree on %q:\n got  %+v\n want %+v", body, got, want)
	}
	return true
}

const seedFP = `"fingerprint":"00112233445566778899aabbccddeeff00112233445566778899AABBCCDDEEFF"`

// quirks are bodies on which encoding/json's reading of the tagged struct is
// not the obvious one; each is named for what it holds.
var quirks = map[string]string{
	"minimal":                `{` + seedFP + `,"modelVersion":"v1","assignCanon":[0]}`,
	"whitespace":             " \n{ " + seedFP + " ,\t\"modelVersion\" : \"v1\" , \"assignCanon\" : [ 0 , 1 ] }\r\n",
	"trailing bytes":         `{` + seedFP + `,"modelVersion":"v1","assignCanon":[0]} trailing {`,
	"folded keys":            `{"FINGERPRINT":` + seedFP[14:] + `,"MODELversion":"v1","aſſignCanon":[1],"riſKLambda":2,"DIST":{"MEAN":1,"ſpread":2}}`,
	"escaped keys":           `{"\u0066ingerprint":` + seedFP[14:] + `,"model\u0056ersion":"v\u0031","assignCanon":[0]}`,
	"repeated scalars":       `{` + seedFP + `,"modelVersion":"v1","modelVersion":"v2","predicted":1,"predicted":2,"assignCanon":[0]}`,
	"repeated then null":     `{` + seedFP + `,"modelVersion":"v1","modelVersion":null,"predicted":1,"predicted":null,"cachedAt":"2026-10-01T12:00:00Z","cachedAt":null,"assignCanon":[0]}`,
	"repeated dist merges":   `{` + seedFP + `,"modelVersion":"v1","assignCanon":[0],"dist":{"mean":1,"lo":2},"dist":{"lo":3,"hi":4},"dist":null}`,
	"repeated list shorter":  `{` + seedFP + `,"modelVersion":"v1","assignCanon":[5,6,7],"assignCanon":[1]}`,
	"null keeps old element": `{` + seedFP + `,"modelVersion":"v1","assignCanon":[5,6,7],"assignCanon":[null,1]}`,
	"null past old length":   `{` + seedFP + `,"modelVersion":"v1","assignCanon":[5,6,7],"assignCanon":[1],"assignCanon":[null,null,null,null]}`,
	"bad column replaced":    `{` + seedFP + `,"modelVersion":"v1","assignCanon":[300,-1],"assignCanon":[1,2]}`,
	"bad column kept":        `{` + seedFP + `,"modelVersion":"v1","assignCanon":[300,1],"assignCanon":[null,2]}`,
	"bad fingerprint later":  `{"fingerprint":"zz",` + seedFP + `,"modelVersion":"v1","assignCanon":[0]}`,
	"null assignment":        `{` + seedFP + `,"modelVersion":"v1","assignCanon":[0],"assignCanon":null}`,
	"null after list reuse":  `{` + seedFP + `,"modelVersion":"v1","assignCanon":[7,8],"assignCanon":null,"assignCanon":[null,null]}`,
	"empty then list":        `{` + seedFP + `,"modelVersion":"v1","assignCanon":[3,4],"assignCanon":[ ],"assignCanon":[null]}`,
	"unknown keys":           `{"x":1,"y":[1,[2,{"a":null}],"s"],"z":{"fingerprint":"no","q":[]},` + seedFP + `,"modelVersion":"v1","assignCanon":[0],"dist":{"mean":1,"median":[{}]},"w":true,"v":false,"u":null,"t":"\u00e9"}`,
	"malformed unknown":      `{"x":[1,],` + seedFP + `,"modelVersion":"v1","assignCanon":[0]}`,
	"malformed literal":      `{"x":nul,` + seedFP + `,"modelVersion":"v1","assignCanon":[0]}`,
	"number for a string":    `{` + seedFP + `,"modelVersion":1,"assignCanon":[0]}`,
	"number for replica":     `{` + seedFP + `,"modelVersion":"v1","assignCanon":[0],"replica":1}`,
	"string for a number":    `{` + seedFP + `,"modelVersion":"v1","assignCanon":[0],"predicted":"1"}`,
	"float column":           `{` + seedFP + `,"modelVersion":"v1","assignCanon":[1.0]}`,
	"exponent column":        `{` + seedFP + `,"modelVersion":"v1","assignCanon":[1e1]}`,
	"minus zero column":      `{` + seedFP + `,"modelVersion":"v1","assignCanon":[-0]}`,
	"huge column":            `{` + seedFP + `,"modelVersion":"v1","assignCanon":[99999999999999999999]}`,
	"huge float":             `{` + seedFP + `,"modelVersion":"v1","assignCanon":[0],"predicted":1e999}`,
	"tiny float":             `{` + seedFP + `,"modelVersion":"v1","assignCanon":[0],"predicted":1e-999,"dist":{"mean":-0,"spread":1E+2,"lo":0.5e-7}}`,
	"integers":               `{` + seedFP + `,"modelVersion":"v1","assignCanon":[0],"predicted":999999999999999,"riskLambda":1000000000000000,"dist":{"mean":9007199254740993,"spread":18446744073709551616,"lo":-0,"hi":7e0}}`,
	"nested list":            `{` + seedFP + `,"modelVersion":"v1","assignCanon":[[0]]}`,
	"object for a list":      `{` + seedFP + `,"modelVersion":"v1","assignCanon":{}}`,
	"list for dist":          `{` + seedFP + `,"modelVersion":"v1","assignCanon":[0],"dist":[]}`,
	"escaped timestamp":      `{` + seedFP + `,"modelVersion":"v1","assignCanon":[0],"cachedAt":"2026\u002d10-01T12:00:00Z"}`,
	"number timestamp":       `{` + seedFP + `,"modelVersion":"v1","assignCanon":[0],"cachedAt":0}`,
	"list timestamp":         `{` + seedFP + `,"modelVersion":"v1","assignCanon":[0],"cachedAt":[]}`,
	"lenient timestamp":      `{` + seedFP + `,"modelVersion":"v1","assignCanon":[0],"cachedAt":"2026-10-01T12:00:00.5+07:30"}`,
	"bad timestamp":          `{` + seedFP + `,"modelVersion":"v1","assignCanon":[0],"cachedAt":"2026-10-01 12:00:00"}`,
	"invalid UTF-8":          "{" + seedFP + ",\"modelVersion\":\"v\xff\",\"assignCanon\":[0],\"traceId\":\"\xc3\x28\"}",
	"control character":      "{" + seedFP + ",\"modelVersion\":\"v\n\",\"assignCanon\":[0]}",
	"short fingerprint":      `{"fingerprint":"0011","modelVersion":"v1","assignCanon":[0]}`,
	"no version":             `{` + seedFP + `,"assignCanon":[0]}`,
	"no assignment":          `{` + seedFP + `,"modelVersion":"v1","assignCanon":[]}`,
	"null":                   `null`,
	"list":                   `[]`,
	"empty":                  ``,
	"unterminated":           `{` + seedFP + `,"modelVersion":"v1","assignCanon":[0]`,
	"leading zero":           `{` + seedFP + `,"modelVersion":"v1","assignCanon":[01]}`,
	"missing colon":          `{` + seedFP + `,"modelVersion" "v1","assignCanon":[0]}`,
	"missing comma":          `{` + seedFP + ` "modelVersion":"v1","assignCanon":[0]}`,
	"too deep":               `{` + seedFP + `,"modelVersion":"v1","assignCanon":[0],"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	"deep enough":            `{` + seedFP + `,"modelVersion":"v1","assignCanon":[0],"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	"too deep in dist":       `{` + seedFP + `,"modelVersion":"v1","assignCanon":[0],"dist":{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}}`,
}

// TestDecodeEntryQuirks pins which of the quirks are entries, so that the
// differential cannot pass by both sides rejecting everything.
func TestDecodeEntryQuirks(t *testing.T) {
	rejected := map[string]bool{
		"bad column kept": true, "null assignment": true, "malformed unknown": true,
		"malformed literal": true, "number for a string": true, "number for replica": true, "string for a number": true,
		"float column": true, "exponent column": true, "huge column": true, "huge float": true, "nested list": true,
		"object for a list": true, "list for dist": true, "escaped timestamp": true, "number timestamp": true,
		"list timestamp": true, "bad timestamp": true, "control character": true, "short fingerprint": true,
		"no version": true, "no assignment": true, "null": true, "list": true, "empty": true, "unterminated": true,
		"leading zero": true, "missing colon": true, "missing comma": true, "too deep": true, "too deep in dist": true,
	}
	for name, body := range quirks {
		if accepted := checkDecode(t, []byte(body)); accepted == rejected[name] {
			t.Errorf("%s: accepted = %v", name, accepted)
		}
	}
	cp, err := DecodeEntry([]byte(quirks["null keeps old element"]))
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint8{5, 1}; !reflect.DeepEqual(cp.AssignCanon, want) {
		t.Errorf("assignment %v, want %v", cp.AssignCanon, want)
	}
	cp, err = DecodeEntry([]byte(quirks["null past old length"]))
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint8{1, 6, 7, 0}; !reflect.DeepEqual(cp.AssignCanon, want) {
		t.Errorf("assignment %v, want %v", cp.AssignCanon, want)
	}
}

// legacyVectors are "vectorF" values as older builds wrote them, and what
// encoding/json used to make of the odd ones; DecodeEntry skips them all.
var legacyVectors = map[string]string{
	"floats":            `[-0,1E+2,0.5e-7,1e-7,1e21]`,
	"integers":          `[0,7,10,999999999999999,1000000000000000,9007199254740993,18446744073709551616,-0,-7,7.0,7e0]`,
	"empty":             `[ ]`,
	"null":              `null`,
	"null elements":     `[null,1,null]`,
	"out of range":      `[1e999]`,
	"not a list":        `{"a":[1,2]}`,
	"repeated":          `[1,2,3],"vectorF":[9],"vectorF":null,"vectorF":[]`,
	"folded key":        `[1],"VECTORF":[2],"vectorſ":[3]`,
	"string for a list": `"1,2"`,
}

// withVector is body as an older replica wrote it: with a "vectorF" after
// the assignment.
func withVector(body []byte, vector string) []byte {
	at := bytes.Index(body, []byte(`],"`)) + 1 // the end of "assignCanon":[…]
	return []byte(string(body[:at]) + `,"vectorF":` + vector + string(body[at:]))
}

// TestDecodeEntryLegacyVector: an entry from an older replica, which still
// sends the plan's feature vector as "vectorF", installs exactly as the same
// body without the key.
func TestDecodeEntryLegacyVector(t *testing.T) {
	check := func(name string, body, legacy []byte) {
		t.Helper()
		want, err := DecodeEntry(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := DecodeEntry(legacy)
		if err != nil {
			t.Fatalf("%s: legacy body refused: %v\n%s", name, err, legacy)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: legacy body decodes to %+v, want %+v", name, got, want)
		}
		checkDecode(t, legacy)
	}
	cps, vecs := servedPlansWithVectors(t)
	for i, cp := range cps {
		body, err := AppendEntry(nil, cp, "replica-a")
		if err != nil {
			t.Fatal(err)
		}
		vector := []byte{'['}
		for j, f := range vecs[i] {
			if j > 0 {
				vector = append(vector, ',')
			}
			vector = jsonlex.AppendFloat(vector, f)
		}
		check(fmt.Sprintf("served plan %d", i), body, withVector(body, string(vector)+"]"))
	}
	body, err := AppendEntry(nil, testPlan(7, "v3"), "replica-a")
	if err != nil {
		t.Fatal(err)
	}
	for name, vector := range legacyVectors {
		check(name, body, withVector(body, vector))
	}
}

// FuzzDecodeEntry is the differential fuzz of DecodeEntry against the oracle,
// in both directions: a body is an entry to both or to neither, the same
// entry, and neither panics. The seeds are real wire bodies, which must all
// be accepted, the quirks, and bodies as older replicas wrote them.
func FuzzDecodeEntry(f *testing.F) {
	real := map[string]bool{}
	for i, cp := range servedPlans(f) {
		body, err := AppendEntry(nil, cp, fmt.Sprintf("replica-%d", i%3))
		if err != nil {
			f.Fatal(err)
		}
		real[string(body)] = true
		f.Add(body)
	}
	for _, body := range quirks {
		f.Add([]byte(body))
	}
	legacy, err := AppendEntry(nil, testPlan(7, "v3"), "replica-a")
	if err != nil {
		f.Fatal(err)
	}
	for _, vector := range legacyVectors {
		f.Add(withVector(legacy, vector))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if ok := checkDecode(t, body); !ok && real[string(body)] {
			t.Fatalf("rejected a real wire body: %s", body)
		}
	})
}

// entryFiller is a remote tier that answers every lookup with one entry.
type entryFiller struct{ cp *plancache.CachedPlan }

func (f entryFiller) Fill(context.Context, plancache.Fingerprint, string, string) (*plancache.CachedPlan, error) {
	return f.cp, nil
}

// TestWireRoundTrip: an entry survives the wire, and installs under its key.
func TestWireRoundTrip(t *testing.T) {
	for _, cp := range append(servedPlans(t), testPlan(7, "v3")) {
		data, err := AppendEntry(nil, cp, "replica-a")
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeEntry(data)
		if err != nil {
			t.Fatalf("DecodeEntry: %v", err)
		}
		// The monotonic reading does not travel.
		want := *cp
		want.CachedAt = cp.CachedAt.Round(0)
		if !got.CachedAt.Equal(want.CachedAt) {
			t.Fatalf("cachedAt %v, want %v", got.CachedAt, want.CachedAt)
		}
		got.CachedAt = want.CachedAt
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("round trip lost data:\n got  %+v\n want %+v", got, &want)
		}
		c := plancache.New(plancache.Config{})
		c.SetRemoteFiller(entryFiller{got})
		if _, ok := c.FillRemote(context.Background(), cp.Fingerprint, cp.ModelVersion, plancache.RiskBand(cp.RiskLambda)); !ok {
			t.Fatalf("decoded entry refused under its own key")
		}
	}
	// The assignment must travel as a JSON int array, not base64.
	data, _ := AppendEntry(nil, testPlan(7, "v3"), "")
	if !bytes.Contains(data, []byte(`"assignCanon":[0,1,2]`)) {
		t.Fatalf("assignment not an int array on the wire: %s", data)
	}
}

// TestDecodeEntryUnknownField: an entry from a newer replica, carrying keys
// this build has never heard of, fills and installs like any other.
func TestDecodeEntryUnknownField(t *testing.T) {
	cp := testPlan(3, "v1")
	body, err := AppendEntry(nil, cp, "newer")
	if err != nil {
		t.Fatal(err)
	}
	extra := `{"schema":2,"tags":["a",{"b":[null]}],"origin":{"zone":"eu","load":0.5},` + string(body[1:])
	addr := peerServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(extra))
	})
	f := newFiller(t, Config{Peers: staticPeers(addr)})
	c := plancache.New(plancache.Config{})
	c.SetRemoteFiller(f)
	got, ok := c.FillRemote(context.Background(), cp.Fingerprint, "v1", "")
	if !ok {
		t.Fatalf("entry with unknown keys not installed: %+v", f.Snapshot())
	}
	if !reflect.DeepEqual(got.AssignCanon, cp.AssignCanon) || got.TraceID != cp.TraceID {
		t.Fatalf("installed %+v, want %+v", got, cp)
	}
	if s := f.Snapshot(); s.Hits != 1 || s.Errors != 0 || s.OpenBreakers != 0 {
		t.Fatalf("stats = %+v, want one clean hit", s)
	}
}

// TestEntryCodecAllocCeiling pins what a peer fill pays the codec for its
// largest serving plan, and that the entry is a few hundred bytes: no
// feature vector travels. Through encoding/json, vector included, it was 7
// allocations to encode and 33 to decode.
func TestEntryCodecAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	var cp *plancache.CachedPlan
	for _, p := range servedPlans(t) {
		if cp == nil || len(p.AssignCanon) > len(cp.AssignCanon) {
			cp = p
		}
	}
	buf, err := AppendEntry(nil, cp, "replica-a")
	if err != nil {
		t.Fatal(err)
	}
	encode := testing.AllocsPerRun(100, func() {
		if buf, err = AppendEntry(buf[:0], cp, "replica-a"); err != nil {
			t.Fatal(err)
		}
	})
	decode := testing.AllocsPerRun(100, func() {
		if _, err := DecodeEntry(buf); err != nil {
			t.Fatal(err)
		}
	})
	if encode > 0 {
		t.Errorf("encoding into a reused buffer allocates %.0f times, ceiling 0", encode)
	}
	if decode > 4 {
		t.Errorf("decoding allocates %.0f times, ceiling 4", decode)
	}
	if len(buf) >= 512 {
		t.Errorf("the entry is %d bytes on the wire, ceiling 512", len(buf))
	}
	t.Logf("%d operators, %d bytes: encode %.0f, decode %.0f allocations", len(cp.AssignCanon), len(buf), encode, decode)
}

// BenchmarkEntryCodec times both directions over the served entries, the
// codec beside the encoding/json oracle it replaced.
func BenchmarkEntryCodec(b *testing.B) {
	cps := servedPlans(b)
	bodies := make([][]byte, len(cps))
	for i, cp := range cps {
		bodies[i], _ = AppendEntry(nil, cp, "replica-a")
	}
	var buf []byte
	for name, op := range map[string]func(i int){
		"encode":        func(i int) { buf, _ = AppendEntry(buf[:0], cps[i], "replica-a") },
		"decode":        func(i int) { DecodeEntry(bodies[i]) },
		"oracle-encode": func(i int) { oracleEncode(cps[i], "replica-a") },
		"oracle-decode": func(i int) { oracleDecode(bodies[i]) },
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op(i % len(cps))
			}
		})
	}
}
