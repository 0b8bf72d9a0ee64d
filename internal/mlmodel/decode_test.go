package mlmodel_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/jsonlex"
	"repro/internal/mlmodel"
)

// checkAgainstReference is the decoder's differential property: whatever
// LoadModel accepts, the encoding/json decoder it replaced accepts too, to a
// model that saves to the same bytes. It returns LoadModel's model, nil when
// LoadModel refused the input.
func checkAgainstReference(t *testing.T, raw []byte) mlmodel.Model {
	t.Helper()
	m, err := mlmodel.LoadModel(bytes.NewReader(raw))
	if err != nil {
		if !strings.HasPrefix(err.Error(), "mlmodel: ") {
			t.Fatalf("error without the package prefix: %v", err)
		}
		return nil
	}
	ref, err := mlmodel.ReferenceLoad(raw)
	if err != nil {
		t.Fatalf("LoadModel accepts an artifact the reference refuses (%v): %.300s", err, raw)
	}
	if got, want := saveBytes(t, m), saveBytes(t, ref); !bytes.Equal(got, want) {
		t.Fatalf("LoadModel and the reference disagree on %.300s:\n got  %.300s\n want %.300s", raw, got, want)
	}
	return m
}

// allFamilies is a SaveModel output of every family and wrapper, and of the
// empty forms SaveModel writes with null lists.
func allFamilies(t *testing.T) map[string][]byte {
	t.Helper()
	d := synthDataset(300, 9, 17, batchTarget, 0.2)
	out := kernelFamilies(t, d)
	fit := func(tr mlmodel.Trainer) mlmodel.Model {
		t.Helper()
		m, err := tr.Fit(d)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	mlp := fit(mlmodel.MLPTrainer{Config: mlmodel.MLPConfig{Hidden: 6, Epochs: 3, Seed: 7}})
	noRounds, err := mlmodel.LoadModel(bytes.NewReader(out["gbm/no-rounds"]))
	if err != nil {
		t.Fatal(err)
	}
	out["linear"] = saveBytes(t, fit(mlmodel.LinearTrainer{}))
	out["linear/zero"] = saveBytes(t, &mlmodel.Linear{})
	out["linear/no-weights"] = saveBytes(t, &mlmodel.Linear{Weights: []float64{}, Intercept: 2})
	out["mlp"] = saveBytes(t, mlp)
	out["logtarget/mlp"] = saveBytes(t, mlmodel.LogTarget{Inner: mlp})
	out["gbm/no-rounds-saved"] = saveBytes(t, noRounds)
	return out
}

// TestLoadMatchesReference: every family's SaveModel output loads, to the
// reference's model, and saves back to the same bytes; so do files in other
// layouts the reference read the same way.
func TestLoadMatchesReference(t *testing.T) {
	for name, raw := range allFamilies(t) {
		m := checkAgainstReference(t, raw)
		if m == nil {
			_, err := mlmodel.LoadModel(bytes.NewReader(raw))
			t.Errorf("%s: LoadModel refused SaveModel's output: %v", name, err)
			continue
		}
		if !strings.Contains(name, "legacy") && name != "gbm/no-rounds" && name != "gbm/ragged" {
			if again := saveBytes(t, m); !bytes.Equal(again, raw) {
				t.Errorf("%s: SaveModel(LoadModel(x)) differs from x", name)
			}
		}
	}
	for _, raw := range loadSeeds {
		checkAgainstReference(t, []byte(raw))
	}
	for name, raw := range acceptedLayouts(t) {
		if checkAgainstReference(t, []byte(raw)) == nil {
			_, err := mlmodel.LoadModel(strings.NewReader(raw))
			t.Errorf("%s: refused: %v", name, err)
		}
	}
}

const (
	linearPayload = `{"weights":[1,2],"intercept":0.5}`
	linearModel   = `{"type":"linear","payload":` + linearPayload + `}`
	oneSplit      = `{"feature":[1,-1,-1],"threshold":[2.5,0,0],"left":[1,0,0],"right":[2,0,0],"value":[0,1,2]}`
)

// acceptedLayouts are files SaveModel does not write that the reference read
// and LoadModel reads too.
func acceptedLayouts(t *testing.T) map[string]string {
	t.Helper()
	var indented bytes.Buffer
	d := synthDataset(100, 4, 3, func(x []float64) float64 { return x[0] + x[1]*x[3] }, 0.1)
	g, err := mlmodel.FitGBM(d, mlmodel.GBMConfig{Trees: 4, MaxDepth: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Indent(&indented, saveBytes(t, mlmodel.Ensemble{Models: []mlmodel.Model{mlmodel.LogTarget{Inner: g}}}), "", "\t"); err != nil {
		t.Fatal(err)
	}
	return map[string]string{
		"indented":               indented.String(),
		"payload before type":    `{"payload":` + linearPayload + `,"type":"linear"}`,
		"nested payload first":   `{"payload":{"payload":[{"payload":` + linearPayload + `,"x":1,"type":"linear"}],"type":"ensemble"},"type":"logtarget"}`,
		"unknown keys":           `{"v":2,"type":"gbm","extra":{"a":[1,{"b":null}]},"payload":{"base":1,"note":"x","lr":0.1,"trees":[{"id":7,"feature":[-1],"threshold":[0],"left":[0],"right":[0],"value":[3]}]},"z":[]}`,
		"escaped type":           `{"type":"g\u0062m","payload":{"base":1,"lr":0.1,"trees":[` + oneSplit + `]}}`,
		"escaped key":            `{"typ\u0065":"tree","payload":` + oneSplit + `}`,
		"keys in another order":  `{"payload":{"value":[0,1,2],"right":[2,0,0],"left":[1,0,0],"threshold":[2.5,0,0],"feature":[1,-1,-1]},"type":"tree"}`,
		"negative zero split":    `{"type":"tree","payload":{"feature":[1,-1,-1],"threshold":[-0,0,0],"left":[1,0,0],"right":[2,0,0],"value":[0,1,2]}}`,
		"null spread":            `{"type":"tree","payload":{"feature":[-1],"threshold":[0],"left":[0],"right":[0],"value":[4],"spread":null}}`,
		"null trees":             `{"type":"gbm","payload":{"base":1,"lr":0.1,"trees":null}}`,
		"exponent numbers":       `{"type":"linear","payload":{"weights":[1e2,-2.5E-3,0.0],"intercept":1E+1}}`,
		"whitespace around":      " \n" + linearModel + "\r\n\t ",
		"empty payload":          `{"type":"gbm","payload":{}}`,
		"ensemble of one tree":   `{"type":"ensemble","payload":[{"type":"tree","payload":` + oneSplit + `}]}`,
		"integral int32 extreme": `{"type":"tree","payload":{"feature":[-2147483648],"threshold":[0],"left":[2147483647],"right":[-2147483648],"value":[1]}}`,
	}
}

// loadSeeds are files at the edges of the grammar, for FuzzLoadModel to start
// from; TestLoadMatchesReference holds each to the reference too.
var loadSeeds = []string{
	`{"payload":` + linearPayload + `,"type":"linear"}`,
	`{"type":"linear","payload":{"weights":[1],"intercept":0,"unknown":[{"deep":[1,2]}]},"also":"x"}`,
	`{"type":"tree","payload":{"feature":[2147483648,-1,-1],"threshold":[1,0,0],"left":[1,0,0],"right":[2,0,0],"value":[0,1,2]}}`,
	`{"type":"tree","payload":{"feature":[0,-1,-1],"threshold":[1,0,0],"left":[-2147483649,0,0],"right":[2,0,0],"value":[0,1,2]}}`,
	`{"type":"tree","payload":{"feature":[0,-1,-1],"threshold":[1,0,0],"left":[1,0,0],"right":[4294967298,0,0],"value":[0,1,2]}}`,
	`{"type":"linear","payload":{"weights":[1e999],"intercept":0}}`,
	`{"type":"tree","payload":{"feature":[0,-1,-1],"threshold":[1,0,-0],"left":[1,0,0],"right":[2,0,0],"value":[0,1,2]}}`,
	`{"type":"g\u0062m","payload":{"base":1,"lr":0.1,"trees":[` + oneSplit + `]}}`,
	`{"type":"ensemble","payload":[null]}`,
	`{"type":"logtarget","payload":{"type":"ensemble","payload":[{"type":"linear","payload":{"weights":[1]}},{"type":"logtarget","payload":` + linearModel + `}]}}`,
	deepLogTarget(jsonlex.MaxDepth + 1),
}

// deepLogTarget is a linear model inside n logtarget envelopes: n+3 objects
// and arrays deep.
func deepLogTarget(n int) string {
	return strings.Repeat(`{"type":"logtarget","payload":`, n) + linearModel + strings.Repeat("}", n)
}

// TestLoadNarrowings lists every leniency of encoding/json the decoder
// refuses on purpose: each file is one the reference accepts and LoadModel
// refuses.
func TestLoadNarrowings(t *testing.T) {
	tree := func(extra string) string {
		return `{"type":"tree","payload":{"feature":[-1],"threshold":[0],"left":[0],"right":[0],"value":[1]` + extra + `}}`
	}
	for name, raw := range map[string]string{
		"case-folded envelope key":   `{"Type":"linear","payload":` + linearPayload + `}`,
		"case-folded payload key":    `{"type":"linear","payload":{"Weights":[1,2],"intercept":0.5}}`,
		"case-folded tree key":       `{"type":"tree","payload":{"feature":[-1],"threshold":[0],"left":[0],"right":[0],"VALUE":[1]}}`,
		"folded key after the exact": `{"type":"linear","payload":` + linearPayload + `,"TYPE":"linear"}`,
		"unicode-folded key":         `{"type":"linear","payload":{"weights":[1],"re\u017fidStd":0.5}}`,
		"duplicate type":             `{"type":"linear","type":"linear","payload":` + linearPayload + `}`,
		"duplicate payload":          `{"type":"linear","payload":` + linearPayload + `,"payload":` + linearPayload + `}`,
		"duplicate payload key":      `{"type":"linear","payload":{"weights":[1],"intercept":0,"intercept":1}}`,
		"duplicate tree list":        tree(`,"value":[2]`),
		"null for an element":        `{"type":"linear","payload":{"weights":[1,null],"intercept":0}}`,
		"null for a tree element":    `{"type":"tree","payload":{"feature":[-1],"threshold":[0],"left":[0],"right":[0],"value":[null]}}`,
		"null for a number":          `{"type":"linear","payload":{"weights":[1],"intercept":null}}`,
		"null for a payload":         `{"type":"linear","payload":null}`,
		"trailing data":              linearModel + ` x`,
		"trailing second value":      linearModel + `{}`,
	} {
		if _, err := mlmodel.ReferenceLoad([]byte(raw)); err != nil {
			t.Errorf("%s: not a narrowing, the reference refuses it too: %v", name, err)
		}
		if _, err := mlmodel.LoadModel(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: accepted %s", name, raw)
		} else if !strings.HasPrefix(err.Error(), "mlmodel: ") {
			t.Errorf("%s: error %q lacks the package prefix", name, err)
		}
	}
}

// TestLoadRefusesDeepNesting: envelopes nest without recursion, up to
// jsonlex.MaxDepth open objects and arrays, as encoding/json allowed, and a
// file nested deeper is refused, whether each payload comes after its type or
// before it. A linear model is three deep: envelope, payload, weights.
func TestLoadRefusesDeepNesting(t *testing.T) {
	ensembles := func(n int) string { // 2n+3 deep
		return strings.Repeat(`{"type":"ensemble","payload":[`, n) + linearModel + strings.Repeat("]}", n)
	}
	for name, raw := range map[string]string{
		"logtarget": deepLogTarget(jsonlex.MaxDepth - 3),
		"ensemble":  ensembles((jsonlex.MaxDepth - 3) / 2),
	} {
		if _, err := mlmodel.LoadModel(strings.NewReader(raw)); err != nil {
			t.Errorf("%s at the depth limit: %v", name, err)
		}
	}
	for name, raw := range map[string]string{
		"logtarget": deepLogTarget(jsonlex.MaxDepth - 2),
		"ensemble":  ensembles((jsonlex.MaxDepth-3)/2 + 1),
		"payload first": strings.Repeat(`{"payload":`, jsonlex.MaxDepth-2) + linearModel +
			strings.Repeat(`,"type":"logtarget"}`, jsonlex.MaxDepth-2),
	} {
		if _, err := mlmodel.LoadModel(strings.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "exceeded max depth") {
			t.Errorf("%s past the depth limit: LoadModel = %v, want a max-depth refusal", name, err)
		}
	}
}
