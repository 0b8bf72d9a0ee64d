package plan_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/workload"
)

// The reference decoder: plan.UnmarshalJSONPlan as it was before the hand
// decoder replaced it (commit b43c92e), kept verbatim as what the
// differential tests compare against.

type refPlan struct {
	AvgTupleBytes float64   `json:"avgTupleBytes"`
	Operators     []refOp   `json:"operators"`
	Loops         []refLoop `json:"loops,omitempty"`
}

type refOp struct {
	ID          int     `json:"id"`
	Kind        string  `json:"kind"`
	Name        string  `json:"name,omitempty"`
	UDF         string  `json:"udf,omitempty"`
	Selectivity float64 `json:"selectivity,omitempty"`
	Card        float64 `json:"card,omitempty"`
	In          []int   `json:"in,omitempty"`
	Loop        int     `json:"loop,omitempty"`
}

type refLoop struct {
	ID         int `json:"id"`
	Iterations int `json:"iterations"`
}

func referenceUnmarshal(r io.Reader) (*plan.Logical, error) {
	var jp refPlan
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jp); err != nil {
		return nil, fmt.Errorf("plan: decoding JSON plan: %w", err)
	}
	if jp.AvgTupleBytes <= 0 {
		jp.AvgTupleBytes = 100
	}
	b := plan.NewBuilder(jp.AvgTupleBytes)
	loopOps := map[int][]plan.OpID{}
	for i, op := range jp.Operators {
		if op.ID != i {
			return nil, fmt.Errorf("plan: operator at position %d declares id %d; ids must be dense and ordered", i, op.ID)
		}
		kind, err := platform.KindByName(op.Kind)
		if err != nil {
			return nil, err
		}
		udf := platform.Linear
		if op.UDF != "" {
			found := false
			for c := platform.Logarithmic; c <= platform.SuperQuadratic; c++ {
				if c.String() == op.UDF {
					udf, found = c, true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("plan: operator %d has unknown UDF complexity %q", i, op.UDF)
			}
		}
		sel := op.Selectivity
		if sel == 0 {
			sel = 1
		}
		var id plan.OpID
		if kind.IsSource() {
			if op.Card <= 0 {
				return nil, fmt.Errorf("plan: source operator %d needs a positive card", i)
			}
			id = b.Source(kind, op.Name, op.Card)
		} else {
			in := make([]plan.OpID, len(op.In))
			for j, p := range op.In {
				in[j] = plan.OpID(p)
			}
			id = b.Add(kind, op.Name, udf, sel, in...)
		}
		if op.Loop != 0 {
			loopOps[op.Loop] = append(loopOps[op.Loop], id)
		}
	}
	declared := map[int]int{}
	for _, lp := range jp.Loops {
		declared[lp.ID] = lp.Iterations
	}
	for loopID, ops := range loopOps {
		it, ok := declared[loopID]
		if !ok {
			return nil, fmt.Errorf("plan: operators reference undeclared loop %d", loopID)
		}
		b.Loop(it, ops...)
	}
	return b.Build()
}

// numberLoopsByFirstUse renumbers l's loop regions 1..k in order of the first
// operator in each: the reference numbers them in map order, which is the one
// thing it and the decoder may differ in.
func numberLoopsByFirstUse(l *plan.Logical) {
	regions := map[int]int{}
	loops := map[int]int{}
	for _, o := range l.Ops {
		if o.LoopID == 0 {
			continue
		}
		if _, ok := regions[o.LoopID]; !ok {
			regions[o.LoopID] = len(regions) + 1
			loops[regions[o.LoopID]] = l.Loops[o.LoopID]
		}
		o.LoopID = regions[o.LoopID]
	}
	if l.Loops != nil {
		l.Loops = loops
	}
}

// reencode returns body as encoding/json writes a generic value: minified,
// with the keys of every object sorted — a different key order from
// MarshalJSONPlan's.
func reencode(t testing.TB, body []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// corpus is the positive corpus: every kind of body the repository's own
// clients send (MarshalJSONPlan's indented form, which loadgen, the
// benchmark and `robopt -print-example-plan` write; its minified form; and
// the key-sorted compact form a generic JSON library such as the one in
// scripts/e2e_smoke.sh re-serializes it to), for the catalog, the synthetic
// shapes and the running example.
func corpus(t testing.TB) map[string][]byte {
	t.Helper()
	plans := map[string]*plan.Logical{"RunningExample": workload.RunningExample()}
	for _, q := range workload.Catalog() {
		plans[q.Name] = q.Build(q.MinBytes)
	}
	for _, n := range []int{3, 5, 20, 40} {
		plans[fmt.Sprintf("Pipeline(%d)", n)] = workload.Pipeline(n, 1e9)
	}
	for _, n := range []int{2, 3, 5} {
		plans[fmt.Sprintf("JoinTree(%d)", n)] = workload.JoinTree(n, 1e9)
	}
	for seed := int64(1); seed <= 8; seed++ {
		plans[fmt.Sprintf("RandomDAG(%d)", seed)] = workload.RandomDAG(4+int(seed)*3, 1e9, seed)
	}
	out := map[string][]byte{}
	for name, l := range plans {
		body, err := plan.MarshalJSONPlan(l)
		if err != nil {
			t.Fatal(err)
		}
		var min bytes.Buffer
		if err := json.Compact(&min, body); err != nil {
			t.Fatal(err)
		}
		out[name] = body
		out[name+"/minified"] = min.Bytes()
		out[name+"/reordered"] = reencode(t, body)
	}
	return out
}

// checkAgainstReference is the differential property: whatever the decoder
// accepts the reference accepts too, and to the same plan.
func checkAgainstReference(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	got, err := plan.DecodeJSONPlan(body)
	if err != nil {
		if !strings.HasPrefix(err.Error(), "plan: ") && !strings.HasPrefix(err.Error(), "platform: unknown operator kind") {
			t.Fatalf("error without the package prefix: %v", err)
		}
		return false
	}
	want, err := referenceUnmarshal(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("decoder accepts a body the reference rejects (%v): %s", err, body)
	}
	numberLoopsByFirstUse(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoder and reference disagree on %s:\n got  %+v\n want %+v", body, got, want)
	}
	return true
}

func TestDecodeMatchesReference(t *testing.T) {
	for name, body := range corpus(t) {
		if !checkAgainstReference(t, body) {
			_, err := plan.DecodeJSONPlan(body)
			t.Errorf("%s rejected: %v", name, err)
		}
		// The reader entry point is the same decoder.
		viaReader, err := plan.UnmarshalJSONPlan(bytes.NewReader(body))
		direct, _ := plan.DecodeJSONPlan(body)
		if err != nil || !reflect.DeepEqual(viaReader, direct) {
			t.Errorf("%s: UnmarshalJSONPlan and DecodeJSONPlan disagree (err %v)", name, err)
		}
	}
}

// TestDecodeNarrowings lists every leniency of encoding/json the decoder
// deliberately does not share: each body is one the reference accepts and
// the decoder rejects.
func TestDecodeNarrowings(t *testing.T) {
	const src = `{"id":0,"kind":"TextFileSource","card":10}`
	const sink = `{"id":1,"kind":"CollectionSink","in":[0]}`
	for name, body := range map[string]string{
		"case-folded top-level key": `{"Operators":[` + src + `,` + sink + `]}`,
		"case-folded operator key":  `{"operators":[{"ID":0,"kind":"TextFileSource","card":10},` + sink + `]}`,
		"trailing data":             `{"operators":[` + src + `,` + sink + `]} x`,
		"trailing second value":     `{"operators":[` + src + `,` + sink + `]}{}`,
		"null for a scalar":         `{"avgTupleBytes":null,"operators":[` + src + `,` + sink + `]}`,
		"null for a string":         `{"operators":[{"id":0,"kind":"TextFileSource","name":null,"card":10},` + sink + `]}`,
		"null for a list":           `{"operators":[` + src + `,` + sink + `],"loops":null}`,
		"null for an element":       `{"operators":[` + src + `,{"id":1,"kind":"CollectionSink","in":[null]}]}`,
		"duplicate top-level key":   `{"avgTupleBytes":1,"operators":[` + src + `,` + sink + `],"avgTupleBytes":2}`,
		"duplicate operator key":    `{"operators":[{"id":0,"id":0,"kind":"TextFileSource","card":10},` + sink + `]}`,
		"duplicate loop key":        `{"operators":[` + src + `,` + sink + `],"loops":[{"id":1,"id":1,"iterations":2}]}`,
	} {
		if _, err := referenceUnmarshal(strings.NewReader(body)); err != nil {
			t.Errorf("%s: not a narrowing, the reference rejects it too: %v", name, err)
		}
		_, err := plan.DecodeJSONPlan([]byte(body))
		if err == nil {
			t.Errorf("%s: accepted %s", name, body)
		} else if !strings.HasPrefix(err.Error(), "plan: decoding JSON plan: ") {
			t.Errorf("%s: error %q lacks the decoding prefix", name, err)
		}
	}
}

// TestDecodeStrings covers the string slow path (escapes, non-ASCII) in
// names, keys and enumerated values.
func TestDecodeStrings(t *testing.T) {
	body := `{"operators":[{"id":0,"k\u0069nd":"TextFile\u0053ource","name":"tab\there \"quoted\" é ☃ \ud83d\ude00","card":10},` +
		`{"id":1,"kind":"CollectionSink","name":"plain","in":[0]}]}`
	if !checkAgainstReference(t, []byte(body)) {
		t.Fatal("rejected")
	}
	l, _ := plan.DecodeJSONPlan([]byte(body))
	if want := "tab\there \"quoted\" é ☃ 😀"; l.Op(0).Name != want {
		t.Errorf("name = %q, want %q", l.Op(0).Name, want)
	}
	for name, bad := range map[string]string{
		"raw control character": "{\"operators\":[{\"id\":0,\"kind\":\"TextFileSource\",\"name\":\"a\nb\",\"card\":10}]}",
		"bad escape":            `{"operators":[{"id":0,"kind":"TextFileSource","name":"\x","card":10}]}`,
		"unterminated":          `{"operators":[{"id":0,"kind":"TextFileSource","name":"abc`,
		"escaped end":           `{"operators":[{"id":0,"kind":"TextFileSource","name":"abc\`,
	} {
		if checkAgainstReference(t, []byte(bad)) {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDecodeNumbers: numbers follow the JSON grammar and must fit their Go
// type, exactly as under encoding/json.
func TestDecodeNumbers(t *testing.T) {
	op := func(card, sel string) string {
		return `{"operators":[{"id":0,"kind":"TextFileSource","card":` + card + `},` +
			`{"id":1,"kind":"Map","selectivity":` + sel + `,"in":[0]},{"id":2,"kind":"CollectionSink","in":[1]}]}`
	}
	for _, ok := range []string{op("10", "0.5"), op("1e3", "5E-1"), op("1.5e+3", "-0"), op("12345678901234567890", "0.0")} {
		if !checkAgainstReference(t, []byte(ok)) {
			t.Errorf("rejected %s", ok)
		}
	}
	for _, bad := range []string{
		op("1e999", "1"), op("-1", "1"), op("0", "1"), op("01", "1"), op("1.", "1"), op(".5", "1"),
		op("+1", "1"), op("1e", "1"), op("0x10", "1"), op("Infinity", "1"), op("NaN", "1"), op("10", "-0.5"),
		`{"operators":[{"id":0.0,"kind":"TextFileSource","card":10}]}`,
		`{"operators":[{"id":1e0,"kind":"TextFileSource","card":10}]}`,
		`{"operators":[{"id":99999999999999999999,"kind":"TextFileSource","card":10}]}`,
		`{"operators":[{"id":0,"kind":"TextFileSource","card":10},{"id":1,"kind":"CollectionSink","in":[0.0]}]}`,
	} {
		if checkAgainstReference(t, []byte(bad)) {
			t.Errorf("accepted %s", bad)
		}
	}
}

const threeLoops = `{"avgTupleBytes":64,"operators":[
 {"id":0,"kind":"CollectionSource","card":1000},
 {"id":1,"kind":"Map","in":[0],"loop":30},
 {"id":2,"kind":"Map","in":[1],"loop":10},
 {"id":3,"kind":"Map","in":[2],"loop":30},
 {"id":4,"kind":"Map","in":[3],"loop":20},
 {"id":5,"kind":"CollectionSink","in":[4]}],
 "loops":[{"id":10,"iterations":3},{"id":20,"iterations":5},{"id":30,"iterations":7},{"id":40,"iterations":9}]}`

// TestDecodeLoopNumbering: loop regions are numbered by first reference, so
// a body with several loops decodes to the same plan every time (under the
// old decoder the numbering followed map iteration order) and re-encodes to
// the same bytes.
func TestDecodeLoopNumbering(t *testing.T) {
	first, err := plan.DecodeJSONPlan([]byte(threeLoops))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{0, 1, 2, 1, 3, 0} {
		if got := first.Op(plan.OpID(i)).LoopID; got != want {
			t.Errorf("op %d in loop %d, want %d", i, got, want)
		}
	}
	if want := map[int]int{1: 7, 2: 3, 3: 5}; !reflect.DeepEqual(first.Loops, want) {
		t.Errorf("loops = %v, want %v (the unreferenced region dropped)", first.Loops, want)
	}
	enc, err := plan.MarshalJSONPlan(first)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		again, err := plan.DecodeJSONPlan([]byte(threeLoops))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("decode %d differs from the first", i)
		}
		back, err := plan.DecodeJSONPlan(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, back) {
			t.Fatalf("round trip %d changed the plan", i)
		}
		enc2, err := plan.MarshalJSONPlan(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip %d changed the encoding:\n%s\n%s", i, enc, enc2)
		}
	}
	checkAgainstReference(t, []byte(threeLoops))
}

// TestDecodeLargePlan outgrows the slabs sized from maxSlabHint: operators,
// edges and names continue in further slabs without disturbing earlier ones.
func TestDecodeLargePlan(t *testing.T) {
	l := workload.Pipeline(500, 1e9)
	for _, o := range l.Ops {
		o.Name = strings.Repeat("n", 40) + o.Name
	}
	body, err := plan.MarshalJSONPlan(l)
	if err != nil {
		t.Fatal(err)
	}
	if !checkAgainstReference(t, body) {
		t.Fatal("rejected")
	}
	got, _ := plan.DecodeJSONPlan(body)
	for i, o := range l.Ops {
		if g := got.Ops[i]; g.Name != o.Name || g.OutputCard != o.OutputCard || !reflect.DeepEqual(g.In, o.In) || !reflect.DeepEqual(g.Out, o.Out) {
			t.Fatalf("op %d: got %+v, want %+v", i, g, o)
		}
	}
}

// TestDecodeNoAmplification: a hostile body must not make the decoder
// allocate a multiple of what was sent. An all-'{' body is rejected at its
// second byte, whatever the slabs were sized for; an endless "in" list is
// rejected once it is longer than any kind's input arity.
func TestDecodeNoAmplification(t *testing.T) {
	const size = 1 << 20
	inList := []byte(`{"operators":[{"id":0,"kind":"Map","in":[`)
	inList = append(inList, bytes.Repeat([]byte("0,"), (size-len(inList))/2)...)
	for name, tc := range map[string]struct {
		body  []byte
		limit float64 // allocated bytes per body byte
	}{
		"braces":  {bytes.Repeat([]byte("{"), size), 0.1},
		"in list": {inList, 0.1},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := plan.DecodeJSONPlan(tc.body)
		runtime.ReadMemStats(&after)
		allocated := after.TotalAlloc - before.TotalAlloc
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if per := float64(allocated) / float64(len(tc.body)); per > tc.limit {
			t.Errorf("%s: allocated %d bytes for a %d-byte body (%.2f per byte, limit %.2f)", name, allocated, len(tc.body), per, tc.limit)
		}
	}
}

// TestDecodeAllocCeiling pins what the hit path pays to decode its largest
// serving plan: 9 allocations, 10 while UnmarshalJSONPlan read the body into
// a new bytes.Buffer; the ceiling keeps its headroom of 10. At the reflection
// decoder it was 340 allocations.
func TestDecodeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	body, err := plan.MarshalJSONPlan(workload.Pipeline(40, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(50, func() {
		r.Reset(body)
		if _, err := plan.UnmarshalJSONPlan(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 19 {
		t.Errorf("decoding Pipeline(40) allocates %.0f times, ceiling 19", allocs)
	}
	t.Logf("Pipeline(40): %d bytes, %.0f allocations", len(body), allocs)
}

// TestDecodedPlanOwnsItsBytes: a decoded plan refers to nothing in the body
// it came from. The service reads bodies into buffers it reuses as soon as
// the decoder returns, so a name or number still read out of the body would
// change under the plan. Every name, kind, UDF, number, input list and loop
// of a plan decoded from a buffer that is then overwritten must equal those
// of the same body decoded from bytes nobody touches.
func TestDecodedPlanOwnsItsBytes(t *testing.T) {
	bodies := corpus(t)
	bodies["threeLoops"] = []byte(threeLoops)
	bodies["escapedNames"] = []byte(`{"avgTupleBytes":12.5,"operators":[
 {"id":0,"kind":"TextFileSource","name":"na\u00efve \"src\"","card":123456789},
 {"id":1,"kind":"Map","name":"caf\u00e9","udf":"Quadratic","selectivity":0.75,"in":[0],"loop":4},
 {"id":2,"kind":"CollectionSink","name":"sink","in":[1]}],"loops":[{"id":4,"iterations":11}]}`)
	for name, body := range bodies {
		buf := bytes.Clone(body)
		got, err := plan.DecodeJSONPlan(buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range buf {
			buf[i] = '#'
		}
		want, err := plan.DecodeJSONPlan(body)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the plan changed when its body buffer was overwritten", name)
		}
		gotEnc, err := plan.MarshalJSONPlan(got)
		if err != nil {
			t.Fatal(err)
		}
		wantEnc, err := plan.MarshalJSONPlan(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotEnc, wantEnc) {
			t.Fatalf("%s: the plan encodes differently once its body buffer was overwritten:\n%s\n%s", name, gotEnc, wantEnc)
		}
	}
	l, err := plan.DecodeJSONPlan(bodies["escapedNames"])
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{`naïve "src"`, "café", "sink"} {
		if got := l.Op(plan.OpID(i)).Name; got != want {
			t.Errorf("op %d named %q, want %q", i, got, want)
		}
	}
	if l.SourceCards[0] != 123456789 || l.AvgTupleBytes != 12.5 || l.Op(1).Selectivity != 0.75 || l.Op(1).UDF != platform.Quadratic || l.Loops[1] != 11 {
		t.Errorf("numbers decoded wrong: card %v, avgTupleBytes %v, selectivity %v, udf %v, loops %v",
			l.SourceCards[0], l.AvgTupleBytes, l.Op(1).Selectivity, l.Op(1).UDF, l.Loops)
	}
}

// FuzzDecodePlan is the differential fuzz of the hand decoder against the
// reference: a body it accepts, the reference accepts and decodes to the same
// plan (up to the loop numbering); and it never panics. The corpus makes the
// property non-vacuous: every seed from it must be accepted.
func FuzzDecodePlan(f *testing.F) {
	positive := corpus(f)
	for _, body := range positive {
		f.Add(body)
	}
	f.Add([]byte(threeLoops))
	for _, seed := range []string{
		`{nope}`, `{"operators":[]}`, `{"wat":1,"operators":[]}`, `[[[[[[[[`, `{"operators":[{"id":0,"kind":"Map","in":[0]}]}`,
		`{"operators":[{"id":0,"kind":"TextFileSource","card":1e999}]}`, `{"operators":[{"id":18446744073709551616}]}`,
		`{"operators":[{"id":0,"kind":"TextFileSource","name":"\u00e9\ud83d","card":1}],"loops":[{"id":1,"iterations":0}]}`,
	} {
		f.Add([]byte(seed))
	}
	accepted := map[string]bool{}
	for _, body := range positive {
		accepted[string(body)] = true
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if ok := checkAgainstReference(t, body); !ok && accepted[string(body)] {
			t.Fatalf("rejected a corpus body: %s", body)
		}
	})
}
