package mlmodel_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mlmodel"
	"repro/internal/vecops"
)

// ---------------------------------------------------------------------------
// Reference implementation. This is the walk the flat forest replaced — one
// pointer-linked node per split, recursed row by row, each family's sum
// written out the way its definition reads — kept here, in tests only, as the
// oracle for the kernel. It is built from a model's saved artifact, so it
// shares no code and no data layout with the thing it checks.
// ---------------------------------------------------------------------------

type refModel interface {
	dist(x []float64) (mean, spread, lo, hi float64)
}

type refNode struct {
	feature       int32
	threshold     float64
	left, right   *refNode
	value, spread float64
}

func (n *refNode) leaf(x []float64) *refNode {
	if n.left == nil {
		return n
	}
	if x[n.feature] <= n.threshold {
		return n.left.leaf(x)
	}
	return n.right.leaf(x)
}

const refZ = 1.645 // central 90% interval, as mlmodel's zInterval

func refInterval(mean, spread float64) (float64, float64, float64, float64) {
	d := refZ * spread
	return mean, spread, mean - d, mean + d
}

func refStd(mu, meanSq float64) float64 {
	v := meanSq - mu*mu
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

type refTree struct{ root *refNode }

func (t refTree) dist(x []float64) (float64, float64, float64, float64) {
	n := t.root.leaf(x)
	return refInterval(n.value, n.spread)
}

type refForest []*refNode

func (f refForest) dist(x []float64) (float64, float64, float64, float64) {
	var s, sq float64
	for _, t := range f {
		v := t.leaf(x).value
		s += v
		sq += v * v
	}
	inv := 1 / float64(len(f))
	mean := s * inv
	return refInterval(mean, refStd(mean, sq*inv))
}

type refGBM struct {
	base, lr float64
	trees    []*refNode
}

func (g refGBM) dist(x []float64) (float64, float64, float64, float64) {
	const window = 16
	s := g.base
	var partial []float64
	for _, t := range g.trees {
		s += g.lr * t.leaf(x).value
		partial = append(partial, s)
	}
	if len(partial) > window {
		partial = partial[len(partial)-window:]
	}
	if len(partial) == 0 {
		return refInterval(s, 0)
	}
	var ps, psq float64
	for _, v := range partial {
		ps += v
		psq += v * v
	}
	k := float64(len(partial))
	return refInterval(s, refStd(ps/k, psq/k))
}

type refLogTarget struct{ inner refModel }

func (m refLogTarget) dist(x []float64) (float64, float64, float64, float64) {
	mean, _, lo, hi := m.inner.dist(x)
	clamp := func(v float64) float64 {
		if v = math.Expm1(v); v < 0 {
			return 0
		}
		return v
	}
	y, l, h := clamp(mean), clamp(lo), clamp(hi)
	if l > h {
		l, h = h, l
	}
	if l > y {
		l = y
	}
	if h < y {
		h = y
	}
	return y, (h - l) / 2, l, h
}

type refEnsemble []refModel

func (e refEnsemble) dist(x []float64) (float64, float64, float64, float64) {
	var s, sq float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, m := range e {
		p, _, _, _ := m.dist(x)
		s += p
		sq += p * p
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	div := float64(len(e))
	mean := s / div
	if lo > mean {
		lo = mean
	}
	if hi < mean {
		hi = mean
	}
	return mean, refStd(mean, sq/div), lo, hi
}

// refMLP is the MLP's former row-major scalar forward pass: per row, each
// hidden unit in turn. The hidden-unit-major kernel was checked against it.
type refMLP struct {
	W1          [][]float64
	B1, W2      []float64
	B2          float64
	XMean, XStd []float64
	YMean, YStd float64
	ResidStd    float64
}

func (m refMLP) dist(x []float64) (float64, float64, float64, float64) {
	h := 0.0
	for j, wj := range m.W1 {
		s := m.B1[j]
		for i, w := range wj {
			s += w * (x[i] - m.XMean[i]) / m.XStd[i]
		}
		h += m.W2[j] * math.Tanh(s)
	}
	return refInterval((h+m.B2)*m.YStd+m.YMean, m.ResidStd)
}

// refOther is a family without a reference here (Linear): its own output.
type refOther struct{ m mlmodel.Model }

func (o refOther) dist(x []float64) (float64, float64, float64, float64) {
	X := vecops.Matrix{Data: x, Rows: 1, Cols: len(x)}
	var mean, spread, lo, hi [1]float64
	o.m.PredictBatchDist(&X, mean[:], spread[:], lo[:], hi[:])
	return mean[0], spread[0], lo[0], hi[0]
}

type envelopeJSON struct {
	Type    string          `json:"type"`
	Payload json.RawMessage `json:"payload"`
}

type treeJSON struct {
	Feature   []int32   `json:"feature"`
	Threshold []float64 `json:"threshold"`
	Left      []int32   `json:"left"`
	Right     []int32   `json:"right"`
	Value     []float64 `json:"value"`
	Spread    []float64 `json:"spread"`
}

func (tj treeJSON) ref() *refNode {
	nodes := make([]refNode, len(tj.Feature))
	for i := range nodes {
		nodes[i] = refNode{feature: tj.Feature[i], threshold: tj.Threshold[i], value: tj.Value[i]}
		if len(tj.Spread) > 0 {
			nodes[i].spread = tj.Spread[i]
		}
		if tj.Feature[i] >= 0 {
			nodes[i].left, nodes[i].right = &nodes[tj.Left[i]], &nodes[tj.Right[i]]
		}
	}
	return &nodes[0]
}

func refTrees(tjs []treeJSON) []*refNode {
	var out []*refNode
	for _, tj := range tjs {
		out = append(out, tj.ref())
	}
	return out
}

// refFromArtifact builds the reference model an artifact describes.
func refFromArtifact(t testing.TB, raw []byte) refModel {
	t.Helper()
	var env envelopeJSON
	decode := func(data []byte, v any) {
		t.Helper()
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("reference: %v", err)
		}
	}
	decode(raw, &env)
	switch env.Type {
	case "tree":
		var tj treeJSON
		decode(env.Payload, &tj)
		return refTree{tj.ref()}
	case "forest":
		var fj struct{ Trees []treeJSON }
		decode(env.Payload, &fj)
		return refForest(refTrees(fj.Trees))
	case "gbm":
		var gj struct {
			Base, LR float64
			Trees    []treeJSON
		}
		decode(env.Payload, &gj)
		return refGBM{base: gj.Base, lr: gj.LR, trees: refTrees(gj.Trees)}
	case "mlp":
		var mj refMLP
		decode(env.Payload, &mj)
		return mj
	case "logtarget":
		return refLogTarget{refFromArtifact(t, env.Payload)}
	case "ensemble":
		var members []json.RawMessage
		decode(env.Payload, &members)
		var e refEnsemble
		for _, m := range members {
			e = append(e, refFromArtifact(t, m))
		}
		return e
	default:
		m, err := mlmodel.LoadModel(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		return refOther{m}
	}
}

func saveBytes(t testing.TB, m mlmodel.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := mlmodel.SaveModel(&buf, m); err != nil {
		t.Fatalf("SaveModel: %v", err)
	}
	return buf.Bytes()
}

// withoutSpread rewrites an artifact the way files written before the spread
// field look: no "spread" key on any tree.
func withoutSpread(t testing.TB, raw []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	var strip func(v any)
	strip = func(v any) {
		switch vv := v.(type) {
		case map[string]any:
			delete(vv, "spread")
			for _, c := range vv {
				strip(c)
			}
		case []any:
			for _, c := range vv {
				strip(c)
			}
		}
	}
	strip(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// kernelFamilies is one artifact per shape the kernel has to get right.
func kernelFamilies(t testing.TB, d *mlmodel.Dataset) map[string][]byte {
	t.Helper()
	fit := func(tr mlmodel.Trainer) mlmodel.Model {
		t.Helper()
		m, err := tr.Fit(d)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	gbmCfg := func(trees, depth int, seed int64) mlmodel.GBMTrainer {
		return mlmodel.GBMTrainer{Config: mlmodel.GBMConfig{Trees: trees, MaxDepth: depth, Seed: seed}}
	}
	tree, err := mlmodel.FitTree(d, mlmodel.TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	flat := &mlmodel.Dataset{}
	for i := 0; i < 10; i++ {
		flat.Append(d.X[i], 42)
	}
	oneLeaf, err := mlmodel.FitTree(flat, mlmodel.TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if oneLeaf.NumNodes() != 1 {
		t.Fatalf("constant target grew %d nodes", oneLeaf.NumNodes())
	}
	forest := fit(mlmodel.ForestTrainer{Config: mlmodel.ForestConfig{Trees: 12, Seed: 3}})
	gbm := fit(gbmCfg(40, 5, 5))
	odd := fit(gbmCfg(7, 4, 8))
	if n := odd.(*mlmodel.GBM).NumTrees(); n != 7 {
		t.Fatalf("7-round fit stopped after %d rounds", n)
	}
	log1 := fit(mlmodel.LogTargetTrainer{Inner: gbmCfg(30, 4, 9)})
	log2 := fit(mlmodel.LogTargetTrainer{Inner: gbmCfg(30, 4, 10)})
	return map[string][]byte{
		"tree":            saveBytes(t, tree),
		"tree/one-leaf":   saveBytes(t, oneLeaf),
		"tree/legacy":     withoutSpread(t, saveBytes(t, tree)),
		"forest":          saveBytes(t, forest),
		"forest/legacy":   withoutSpread(t, saveBytes(t, forest)),
		"gbm":             saveBytes(t, gbm),
		"gbm/short":       saveBytes(t, fit(gbmCfg(5, 3, 6))), // fewer rounds than the spread's tail window
		"gbm/odd":         saveBytes(t, odd),                  // a last lockstep group with a lane left empty
		"gbm/ragged":      raggedArtifact(t),
		"gbm/no-rounds":   []byte(`{"type":"gbm","payload":{"base":1.5,"lr":0.1,"trees":null}}`),
		"logtarget":       saveBytes(t, log1),
		"logtarget/bag":   saveBytes(t, fit(mlmodel.LogTargetTrainer{Inner: mlmodel.ForestTrainer{Config: mlmodel.ForestConfig{Trees: 5, Seed: 2}}})),
		"ensemble":        saveBytes(t, mlmodel.Ensemble{Models: []mlmodel.Model{log1, log2}}), // the serving fixture's shape
		"ensemble/mixed":  saveBytes(t, mlmodel.Ensemble{Models: []mlmodel.Model{gbm, fit(mlmodel.LinearTrainer{}), forest}}),
		"ensemble/nested": saveBytes(t, mlmodel.Ensemble{Models: []mlmodel.Model{mlmodel.Ensemble{Models: []mlmodel.Model{tree, gbm}}, log1}}),
	}
}

// raggedArtifact is a hand-made GBM whose four trees are 0, 1, 2 and 9 levels
// deep: one lockstep group in which walks reach their leaves at four
// different levels and keep stepping in place until the deepest one is done.
func raggedArtifact(t testing.TB) []byte {
	t.Helper()
	var chain treeJSON // split i sends x[i%4] <= 1 to a leaf and the rest on to split i+1
	node := func(feature int32, threshold float64, left, right int32, value float64) {
		chain.Feature = append(chain.Feature, feature)
		chain.Threshold = append(chain.Threshold, threshold)
		chain.Left = append(chain.Left, left)
		chain.Right = append(chain.Right, right)
		chain.Value = append(chain.Value, value)
	}
	for i := int32(0); i < 9; i++ {
		node(i%4, 1, 2*i+1, 2*i+2, 0)
		node(-1, 0, 0, 0, float64(i))
	}
	node(-1, 0, 0, 0, 9)
	trees := []treeJSON{
		{Feature: []int32{-1}, Threshold: []float64{0}, Left: []int32{0}, Right: []int32{0}, Value: []float64{0.5}},
		{Feature: []int32{2, -1, -1}, Threshold: []float64{5, 0, 0}, Left: []int32{1, 0, 0}, Right: []int32{2, 0, 0}, Value: []float64{0, -1, 1}},
		{Feature: []int32{0, 1, -1, -1, -1}, Threshold: []float64{3, 6, 0, 0, 0}, Left: []int32{1, 2, 0, 0, 0}, Right: []int32{4, 3, 0, 0, 0}, Value: []float64{0, 0, 1, 2, 3}},
		chain,
	}
	payload, err := json.Marshal(map[string]any{"base": 1.5, "lr": 0.1, "trees": trees})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(envelopeJSON{Type: "gbm", Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// kernelRows draws rows that sit on split thresholds as often as beside them:
// cells are copied from training rows (a GBM's thresholds are training
// values), and one cell in twenty is NaN, ±Inf, −0 or 0.
func kernelRows(rng *rand.Rand, d *mlmodel.Dataset, rows int) *vecops.Matrix {
	nf := d.NumFeatures()
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	X := vecops.NewMatrix(rows, nf)
	for i := range X.Data {
		switch rng.Intn(20) {
		case 0:
			X.Data[i] = odd[rng.Intn(len(odd))]
		case 1, 2, 3:
			X.Data[i] = rng.Float64() * 10
		default:
			X.Data[i] = d.X[rng.Intn(d.Len())][i%nf]
		}
	}
	return X
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestKernelMatchesReferenceWalk is the kernel's contract: for every tree
// family, and the wrappers over them, mean, spread, lo and hi are bit-equal
// to the reference walk — at batch sizes around the kernel's row block, for
// tree counts that leave lanes of its last lockstep group empty and for a group
// whose trees end at different depths, on rows with non-finite and signed-zero
// features, for single-leaf trees and for artifacts that predate the spread
// field — and the kernel's mean-only call and Predict return that same mean.
func TestKernelMatchesReferenceWalk(t *testing.T) {
	d := synthDataset(400, 9, 17, batchTarget, 0.2)
	for name, raw := range kernelFamilies(t, d) {
		t.Run(name, func(t *testing.T) {
			ref := refFromArtifact(t, raw)
			m, err := mlmodel.LoadModel(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("LoadModel: %v", err)
			}
			rng := rand.New(rand.NewSource(int64(len(name))))
			for _, rows := range []int{0, 1, 2, 3, 4, 5, 9, 15, 16, 17, 33, 513} {
				X := kernelRows(rng, d, rows)
				point := make([]float64, rows)
				mean := make([]float64, rows)
				spread := make([]float64, rows)
				lo := make([]float64, rows)
				hi := make([]float64, rows)
				m.PredictBatchDist(X, point, nil, nil, nil)
				m.PredictBatchDist(X, mean, spread, lo, hi)
				for i := 0; i < rows; i++ {
					x := X.Row(i)
					wm, ws, wl, wh := ref.dist(x)
					if !sameBits(mean[i], wm) || !sameBits(spread[i], ws) || !sameBits(lo[i], wl) || !sameBits(hi[i], wh) {
						t.Fatalf("rows=%d row %d %v:\n kernel    (%v %v %v %v)\n reference (%v %v %v %v)",
							rows, i, x, mean[i], spread[i], lo[i], hi[i], wm, ws, wl, wh)
					}
					if !sameBits(point[i], wm) {
						t.Fatalf("rows=%d row %d: mean-only kernel %v, reference %v", rows, i, point[i], wm)
					}
					if got := m.Predict(x); !sameBits(got, wm) {
						t.Fatalf("rows=%d row %d: Predict %v, reference %v", rows, i, got, wm)
					}
				}
			}
		})
	}
}

// TestSaveLoadSaveIsIdentity pins the artifact bytes: loading into the flat
// form and saving again reproduces the file, spread arrays included.
func TestSaveLoadSaveIsIdentity(t *testing.T) {
	d := synthDataset(400, 9, 17, batchTarget, 0.2)
	for name, raw := range kernelFamilies(t, d) {
		if strings.Contains(name, "legacy") || name == "gbm/no-rounds" || name == "gbm/ragged" {
			continue // hand-made files: not in SaveModel's formatting to begin with
		}
		m, err := mlmodel.LoadModel(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: LoadModel: %v", name, err)
		}
		if again := saveBytes(t, m); !bytes.Equal(again, raw) {
			t.Errorf("%s: SaveModel(LoadModel(x)) differs from x (%d vs %d bytes)", name, len(again), len(raw))
		}
	}
}

// TestPredictBatchDoesNotAllocate: the kernel's scratch is on the stack, and
// the one buffer an Ensemble needs per call is pooled, so scoring an
// enumeration chunk allocates nothing, with or without the spread columns.
func TestPredictBatchDoesNotAllocate(t *testing.T) {
	d := synthDataset(400, 9, 17, batchTarget, 0.2)
	rng := rand.New(rand.NewSource(1))
	for name, raw := range kernelFamilies(t, d) {
		if raceEnabled && strings.HasPrefix(name, "ensemble") {
			continue
		}
		m, err := mlmodel.LoadModel(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: LoadModel: %v", name, err)
		}
		for _, rows := range []int{1, 9, 16, 64} {
			X := kernelRows(rng, d, rows)
			out := make([][]float64, 4)
			for i := range out {
				out[i] = make([]float64, rows)
			}
			if n := testing.AllocsPerRun(20, func() { m.PredictBatchDist(X, out[0], nil, nil, nil) }); n != 0 {
				t.Errorf("%s: the mean-only kernel on %d rows allocates %v times", name, rows, n)
			}
			if n := testing.AllocsPerRun(20, func() { m.PredictBatchDist(X, out[0], out[1], out[2], out[3]) }); n != 0 {
				t.Errorf("%s: the kernel on %d rows allocates %v times", name, rows, n)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Load hardening
// ---------------------------------------------------------------------------

func treeArtifact(feature, left, right string) string {
	n := strings.Count(feature, ",") + 1
	zeros := strings.TrimSuffix(strings.Repeat("0,", n), ",")
	return fmt.Sprintf(`{"type":"tree","payload":{"feature":[%s],"threshold":[%s],"left":[%s],"right":[%s],"value":[%s]}}`,
		feature, zeros, left, right, zeros)
}

// chainArtifact is a tree whose every split hangs off the previous one's right
// child: depth levels deep.
func chainArtifact(depth int) string {
	var feature, left, right []string
	for i := 0; i < depth; i++ {
		feature = append(feature, "0", "-1")
		left = append(left, fmt.Sprint(2*i+1), "0")
		right = append(right, fmt.Sprint(2*i+2), "0")
	}
	feature, left, right = append(feature, "-1"), append(left, "0"), append(right, "0")
	return treeArtifact(strings.Join(feature, ","), strings.Join(left, ","), strings.Join(right, ","))
}

// craftedArtifacts are files no builder writes. The load checks used to stop
// at "child index in (0, n)", so a split that is its own child, or two splits
// pointing at each other, loaded and then looped Predict forever.
var craftedArtifacts = []struct {
	name, raw, wantErr string
}{
	{"root is its own left child", treeArtifact("0,-1,-1", "0,0,0", "2,0,0"), "out-of-range children"},
	{"split is both its children", treeArtifact("0,3,-1", "1,1,0", "2,1,0"), "out-of-range children"},
	{"right child points back", treeArtifact("0,0,-1,-1", "1,2,0,0", "3,0,0,0"), "out-of-range children"},
	{"two splits point at each other", treeArtifact("0,0,0,-1", "1,2,1,0", "3,3,3,0"), "out-of-range children"},
	{"child past the end", treeArtifact("0,-1,-1", "1,0,0", "3,0,0"), "out-of-range children"},
	{"negative child", treeArtifact("0,-1,-1", "-1,0,0", "2,0,0"), "out-of-range children"},
	{"deeper than the cap", chainArtifact(1025), "levels deep"},
	{"split past the column limit", treeArtifact("65536,-1,-1", "1,0,0", "2,0,0"), "reads column 65536"},
	{"no nodes", `{"type":"tree","payload":{"feature":[],"threshold":[],"left":[],"right":[],"value":[]}}`, "empty tree"},
	{"ragged arrays", `{"type":"tree","payload":{"feature":[-1],"threshold":[0],"left":[0],"right":[0],"value":[]}}`, "inconsistent tree arrays"},
	{"ragged spread", `{"type":"tree","payload":{"feature":[-1],"threshold":[0],"left":[0],"right":[0],"value":[1],"spread":[1,2]}}`, "inconsistent tree spread"},
	{"looping tree inside a gbm", `{"type":"gbm","payload":{"base":0,"lr":0.1,"trees":[` + payloadOf(treeArtifact("0,-1,-1", "0,0,0", "2,0,0")) + `]}}`, "out-of-range children"},
	{"looping tree inside a forest", `{"type":"forest","payload":{"trees":[` + payloadOf(treeArtifact("0,-1,-1", "1,0,0", "0,0,0")) + `]}}`, "out-of-range children"},
	{"ensemble of two widths", `{"type":"ensemble","payload":[{"type":"linear","payload":{"weights":[1,2],"intercept":0}},{"type":"linear","payload":{"weights":[1,2,3],"intercept":0}}]}`, "ensemble members expect"},
	{"ensemble splitting past its exact width", `{"type":"ensemble","payload":[{"type":"linear","payload":{"weights":[1,2],"intercept":0}},` + treeArtifact("7,-1,-1", "1,0,0", "2,0,0") + `]}`, "references feature 7"},
}

func payloadOf(artifact string) string {
	var env envelopeJSON
	if err := json.Unmarshal([]byte(artifact), &env); err != nil {
		panic(err)
	}
	return string(env.Payload)
}

func TestLoadRejectsCraftedArtifacts(t *testing.T) {
	for _, c := range craftedArtifacts {
		_, err := mlmodel.LoadModel(strings.NewReader(c.raw))
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: LoadModel error = %v, want one mentioning %q", c.name, err, c.wantErr)
		}
	}
	// The deepest tree the cap admits, and children in any forward order
	// (here right before left), still load and predict.
	for _, raw := range []string{chainArtifact(1024), treeArtifact("0,-1,-1", "2,0,0", "1,0,0")} {
		m, err := mlmodel.LoadModel(strings.NewReader(raw))
		if err != nil {
			t.Fatalf("LoadModel refused a well-formed tree: %v", err)
		}
		if got := m.Predict([]float64{1}); got != 0 {
			t.Errorf("Predict = %v, want 0", got)
		}
	}
}

// FuzzLoadModel: whatever the bytes, LoadModel returns an error or a model
// the encoding/json reference also reads from them, to the same saved bytes
// (checkAgainstReference), that honours the prediction contract on rows of
// its own feature width — Predict, the kernel's mean-only call and its full
// call agree bit for bit, and lo ≤ mean ≤ hi on every row without a NaN —
// and comes back.
func FuzzLoadModel(f *testing.F) {
	for _, c := range craftedArtifacts {
		f.Add([]byte(c.raw))
	}
	for _, raw := range loadSeeds {
		f.Add([]byte(raw))
	}
	d := synthDataset(60, 4, 1, func(x []float64) float64 { return x[0] + x[1]*x[2] }, 0.1)
	for _, raw := range kernelFamilies(f, d) {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		m := checkAgainstReference(t, raw)
		if m == nil {
			return
		}
		w, _ := mlmodel.FeatureWidth(m)
		if w > 1<<12 {
			t.Skip("wider than any plan vector")
		}
		const rows = mlmodel.BlockRows + 1 // a full row block, then a partial one
		X := vecops.NewMatrix(rows, w)
		for i := range X.Data {
			X.Data[i] = float64(i%7) - 3
		}
		point := make([]float64, rows)
		mean := make([]float64, rows)
		spread := make([]float64, rows)
		lo := make([]float64, rows)
		hi := make([]float64, rows)
		m.PredictBatchDist(X, point, nil, nil, nil)
		m.PredictBatchDist(X, mean, spread, lo, hi)
		for i := 0; i < rows; i++ {
			if p := m.Predict(X.Row(i)); !sameBits(p, point[i]) || !sameBits(p, mean[i]) {
				t.Fatalf("row %d: Predict %v, mean-only kernel %v, kernel %v (must be bit-identical)", i, p, point[i], mean[i])
			}
			if math.IsNaN(mean[i]) || math.IsNaN(lo[i]) || math.IsNaN(hi[i]) {
				continue
			}
			if lo[i] > mean[i] || hi[i] < mean[i] {
				t.Fatalf("row %d: interval [%v, %v] does not bracket mean %v", i, lo[i], hi[i], mean[i])
			}
		}
		if err := mlmodel.SaveModel(&bytes.Buffer{}, m); err != nil {
			t.Fatalf("loaded model does not save: %v", err)
		}
	})
}

// BenchmarkForestKernel scores plan-vector-shaped input (399 wide) with a
// serving-sized GBM: one row (a scalar Predict), the enumeration's most common
// chunk (9 rows), one full block and a large batch. The Compact cases score
// the same cells through the GBM specialised to rows that hold every other
// column, as an enumeration's rows hold only its plan's live columns. The
// Ensemble cases score them through the served shape, an Ensemble of two
// LogTarget(GBM) members specialised the same way: the path an enumeration's
// model batches take.
func BenchmarkForestKernel(b *testing.B) {
	const nf = 399
	d := synthDataset(2000, nf, 1, func(x []float64) float64 { return x[0]*x[7] + x[100] + x[250]*x[398] }, 0.1)
	fit := func(seed int64) *mlmodel.GBM {
		m, err := mlmodel.FitGBM(d, mlmodel.GBMConfig{Trees: 150, MaxDepth: 5, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	m := fit(1)
	var cols []int
	for c := 0; c < nf; c += 2 {
		cols = append(cols, c)
	}
	spec := m.Specialize(cols)
	served := mlmodel.Specialize(mlmodel.Ensemble{Models: []mlmodel.Model{
		mlmodel.LogTarget{Inner: m}, mlmodel.LogTarget{Inner: fit(2)},
	}}, cols, nf)
	for _, rows := range []int{1, 9, 16, 512} {
		X := kernelRows(rand.New(rand.NewSource(2)), d, rows)
		C := vecops.NewMatrix(rows, len(cols))
		for r := 0; r < rows; r++ {
			for p, c := range cols {
				C.Row(r)[p] = X.Row(r)[c]
			}
		}
		out := make([]float64, rows)
		cases := []struct {
			name string
			m    mlmodel.Model
			X    *vecops.Matrix
		}{{"PredictBatch", m, X}, {"Compact", spec, C}}
		if rows >= mlmodel.BlockRows {
			cases = append(cases, struct {
				name string
				m    mlmodel.Model
				X    *vecops.Matrix
			}{"Ensemble", served, C})
		}
		for _, c := range cases {
			b.Run(fmt.Sprintf("%s/%d", c.name, rows), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.m.PredictBatchDist(c.X, out, nil, nil, nil)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			})
		}
	}
}
