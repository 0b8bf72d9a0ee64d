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

// oddCells are the cells a row may hold that a split compares unusually:
// non-finite, signed zeros and negatives.
var oddCells = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, -1, -2.5, 1, 2.5}

// liveColumns draws an ascending subset of [0, nf) as a specialisation's
// columns.
func liveColumns(rng *rand.Rand, nf int) []int {
	var cols []int
	for c := 0; c < nf; c++ {
		if rng.Intn(2) == 0 {
			cols = append(cols, c)
		}
	}
	return cols
}

// compactRows draws rows cells of the live columns cols and returns them with
// the same rows expanded to nf columns, 0 in every other one.
func compactRows(rng *rand.Rand, rows, nf int, cols []int) (compact, wide *vecops.Matrix) {
	compact, wide = vecops.NewMatrix(rows, len(cols)), vecops.NewMatrix(rows, nf)
	for r := 0; r < rows; r++ {
		for p, c := range cols {
			v := rng.Float64()*12 - 3
			if rng.Intn(4) == 0 {
				v = oddCells[rng.Intn(len(oddCells))]
			}
			compact.Row(r)[p] = v
			wide.Row(r)[c] = v
		}
	}
	return compact, wide
}

// checkSpecialized scores the rows of both layouts, mean-only and in full,
// and fails on the first bit that differs.
func checkSpecialized(t testing.TB, name string, m, spec mlmodel.Model, compact, wide *vecops.Matrix) {
	t.Helper()
	n := compact.Rows
	col := func() []float64 { return make([]float64, n) }
	wm, ws, wl, wh, wp := col(), col(), col(), col(), col()
	cm, cs, cl, ch, cp := col(), col(), col(), col(), col()
	m.PredictBatchDist(wide, wm, ws, wl, wh)
	m.PredictBatchDist(wide, wp, nil, nil, nil)
	spec.PredictBatchDist(compact, cm, cs, cl, ch)
	spec.PredictBatchDist(compact, cp, nil, nil, nil)
	for i := 0; i < n; i++ {
		if !sameBits(cm[i], wm[i]) || !sameBits(cs[i], ws[i]) || !sameBits(cl[i], wl[i]) || !sameBits(ch[i], wh[i]) {
			t.Fatalf("%s row %d %v:\n compact  (%v %v %v %v)\n expanded (%v %v %v %v)",
				name, i, compact.Row(i), cm[i], cs[i], cl[i], ch[i], wm[i], ws[i], wl[i], wh[i])
		}
		if !sameBits(cp[i], wp[i]) || !sameBits(cp[i], wm[i]) {
			t.Fatalf("%s row %d: mean-only compact %v, expanded %v, full %v", name, i, cp[i], wp[i], wm[i])
		}
		if got := spec.Predict(compact.Row(i)); !sameBits(got, wm[i]) {
			t.Fatalf("%s row %d: Predict on the compact row %v, expanded %v", name, i, got, wm[i])
		}
	}
}

// randomTree is a random tree over nf features, up to depth levels deep, in
// the builders' layout (a node, then its left subtree, then its right one):
// thresholds negative, zero of either sign or positive.
func randomTree(rng *rand.Rand, nf, depth int) treeJSON {
	var tj treeJSON
	var grow func(d int) int32
	grow = func(d int) int32 {
		i := int32(len(tj.Feature))
		tj.Feature = append(tj.Feature, -1)
		tj.Threshold = append(tj.Threshold, 0)
		tj.Left = append(tj.Left, 0)
		tj.Right = append(tj.Right, 0)
		tj.Value = append(tj.Value, rng.NormFloat64())
		tj.Spread = append(tj.Spread, rng.Float64())
		if d == 0 || rng.Intn(4) == 0 {
			return i
		}
		tj.Feature[i] = int32(rng.Intn(nf))
		tj.Threshold[i] = oddCells[3+rng.Intn(len(oddCells)-3)] + float64(rng.Intn(3))*rng.NormFloat64()
		l := grow(d - 1)
		r := grow(d - 1)
		tj.Left[i], tj.Right[i] = l, r
		return i
	}
	grow(depth)
	return tj
}

// linearJSON and mlpJSON are the artifact payloads of Linear and MLP, their
// fields in SaveModel's order.
type linearJSON struct {
	Weights   []float64 `json:"weights"`
	Intercept float64   `json:"intercept"`
	ResidStd  float64   `json:"residStd,omitempty"`
}

type mlpJSON struct {
	W1       [][]float64 `json:"w1"`
	B1       []float64   `json:"b1"`
	W2       []float64   `json:"w2"`
	B2       float64     `json:"b2"`
	XMean    []float64   `json:"xMean"`
	XStd     []float64   `json:"xStd"`
	YMean    float64     `json:"yMean"`
	YStd     float64     `json:"yStd"`
	ResidStd float64     `json:"residStd,omitempty"`
}

// randomKinds is the number of kinds randomArtifact draws from.
const randomKinds = 8

// randomArtifact is a random model over nf features: a tree, a forest or a
// GBM, bare, under LogTarget or in an Ensemble; a Linear or an MLP, which read
// every column; or an ensemble mixing the two sorts. depth 0 gives the tree
// families no splits.
func randomArtifact(t testing.TB, rng *rand.Rand, nf, depth int, kind uint8) []byte {
	t.Helper()
	env := func(typ string, payload any) json.RawMessage {
		p, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(envelopeJSON{Type: typ, Payload: p})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	trees := func() []treeJSON {
		out := make([]treeJSON, 1+rng.Intn(20))
		for i := range out {
			out[i] = randomTree(rng, nf, depth)
		}
		return out
	}
	normals := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.NormFloat64()
		}
		return out
	}
	var leaf func(k uint8) json.RawMessage
	leaf = func(k uint8) json.RawMessage {
		switch k % randomKinds {
		case 0:
			return env("tree", randomTree(rng, nf, depth))
		case 1:
			return env("forest", map[string]any{"trees": trees()})
		case 2:
			return env("gbm", map[string]any{"base": rng.NormFloat64(), "lr": 0.1, "trees": trees()})
		case 3:
			return env("logtarget", leaf(2))
		case 4:
			return env("ensemble", []json.RawMessage{leaf(3), leaf(3), leaf(uint8(rng.Intn(4)))})
		case 5:
			return env("linear", linearJSON{Weights: normals(nf), Intercept: rng.NormFloat64(), ResidStd: rng.Float64()})
		case 6:
			h := 1 + rng.Intn(4)
			m := mlpJSON{B1: normals(h), W2: normals(h), B2: rng.NormFloat64(), XMean: normals(nf),
				YMean: rng.NormFloat64(), YStd: 0.5 + rng.Float64(), ResidStd: rng.Float64()}
			for j := 0; j < h; j++ {
				m.W1 = append(m.W1, normals(nf))
			}
			for i := 0; i < nf; i++ {
				m.XStd = append(m.XStd, 0.5+rng.Float64())
			}
			return env("mlp", m)
		default:
			return env("ensemble", []json.RawMessage{leaf(2), leaf(5), env("logtarget", leaf(6))})
		}
	}
	return leaf(kind)
}

// TestSpecializeMatchesExpandedRows is mlmodel.Specialize's contract for
// every family and the wrappers over them: on rows of a random subset of the
// columns, the specialised model is bit-identical to the model on the same
// rows expanded with zeros — mean, spread, lo, hi, the mean-only call and
// Predict — at batch sizes around the kernel's row block. The tree families
// read the rows in place; Linear and MLP, which read every column, get them
// expanded, and so does the linear member of a mixed ensemble.
func TestSpecializeMatchesExpandedRows(t *testing.T) {
	const nf = 9
	d := synthDataset(400, nf, 17, batchTarget, 0.2)
	models := kernelFamilies(t, d)
	rng := rand.New(rand.NewSource(5))
	for kind := uint8(0); kind < randomKinds; kind++ {
		models[fmt.Sprint("random/", kind)] = randomArtifact(t, rng, nf, 6, kind)
		models[fmt.Sprint("random/no-splits/", kind)] = randomArtifact(t, rng, nf, 0, kind)
	}
	models["linear"] = saveBytes(t, &mlmodel.Linear{Weights: make([]float64, nf)})
	mlp, err := mlmodel.MLPTrainer{Config: mlmodel.MLPConfig{Hidden: 8, Epochs: 10, Seed: 7}}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	models["mlp"] = saveBytes(t, mlp)
	for name, raw := range models {
		m, err := mlmodel.LoadModel(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: LoadModel: %v", name, err)
		}
		for trial := 0; trial < 20; trial++ {
			cols := liveColumns(rng, nf)
			spec := mlmodel.Specialize(m, cols, nf)
			for _, rows := range []int{1, 2, 9, 16, 17, 40} {
				compact, wide := compactRows(rng, rows, nf, cols)
				checkSpecialized(t, name, m, spec, compact, wide)
			}
		}
	}
}

// TestSpecializeReusesWindowWithAbsentColumns: the kernel's window is a spare
// off a stack, and a specialisation gathers only the used features its rows
// hold, so the slots of the features they lack must be zeroed before it walks.
// A specialisation that holds every used column first leaves each slot of the
// spare window set; the next call takes the same window, through one that
// lacks half the columns, and must still score its rows bit-equal to the
// expanded ones — mean-only and in full, in one block and across blocks.
func TestSpecializeReusesWindowWithAbsentColumns(t *testing.T) {
	const nf = 9
	d := synthDataset(400, nf, 17, batchTarget, 0.2)
	m, err := mlmodel.FitGBM(d, mlmodel.GBMConfig{Trees: 40, MaxDepth: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var all, some []int
	for c := 0; c < nf; c++ {
		all = append(all, c)
		if c%2 == 0 {
			some = append(some, c)
		}
	}
	full, part := mlmodel.Specialize(m, all, nf), mlmodel.Specialize(m, some, nf)
	rng := rand.New(rand.NewSource(3))
	for _, rows := range []int{1, 9, mlmodel.BlockRows, 2*mlmodel.BlockRows + 1} {
		held, _ := compactRows(rng, mlmodel.BlockRows, nf, all)
		compact, wide := compactRows(rng, rows, nf, some)
		col := func() []float64 { return make([]float64, rows) }
		wm, ws, wl, wh := col(), col(), col(), col()
		m.PredictBatchDist(wide, wm, ws, wl, wh)
		scratch := make([]float64, mlmodel.BlockRows)
		for _, mode := range []string{"mean-only", "full"} {
			full.PredictBatchDist(held, scratch, nil, nil, nil) // every slot of the spare window set
			cm, cs, cl, ch := col(), col(), col(), col()
			if mode == "full" {
				part.PredictBatchDist(compact, cm, cs, cl, ch)
			} else {
				part.PredictBatchDist(compact, cm, nil, nil, nil)
				cs, cl, ch = ws, wl, wh
			}
			for i := 0; i < rows; i++ {
				if !sameBits(cm[i], wm[i]) || !sameBits(cs[i], ws[i]) || !sameBits(cl[i], wl[i]) || !sameBits(ch[i], wh[i]) {
					t.Fatalf("%d rows, %s, row %d on a reused window: (%v %v %v %v), expanded rows (%v %v %v %v)",
						rows, mode, i, cm[i], cs[i], cl[i], ch[i], wm[i], ws[i], wl[i], wh[i])
				}
			}
		}
	}
}

// TestSpecializedKernelDoesNotAllocate: a specialisation reads through its
// map with the forest's own kernel, and the fallback of the families that
// read every column expands rows into a window off the kernels' stack:
// neither allocates.
func TestSpecializedKernelDoesNotAllocate(t *testing.T) {
	d := synthDataset(400, 9, 17, batchTarget, 0.2)
	rng := rand.New(rand.NewSource(2))
	models := kernelFamilies(t, d)
	models["linear"] = saveBytes(t, &mlmodel.Linear{Weights: make([]float64, 9)})
	models["mlp"] = randomArtifact(t, rng, 9, 0, 6)
	for name, raw := range models {
		if raceEnabled && strings.HasPrefix(name, "ensemble") {
			continue
		}
		m, err := mlmodel.LoadModel(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: LoadModel: %v", name, err)
		}
		cols := liveColumns(rng, 9)
		spec := mlmodel.Specialize(m, cols, 9)
		compact, _ := compactRows(rng, 40, 9, cols)
		out := make([][]float64, 4)
		for i := range out {
			out[i] = make([]float64, 40)
		}
		if n := testing.AllocsPerRun(20, func() { spec.PredictBatchDist(compact, out[0], out[1], out[2], out[3]) }); n != 0 {
			t.Errorf("%s: the specialised kernel allocates %v times", name, n)
		}
	}
}

// FuzzSpecialize: for any random model (kind picks the family and wrapper,
// the tree families, Linear, MLP and a mixed ensemble; depth 0 a tree model
// with no splits), any subset of its columns, any cells and batches either
// side of the kernel's row block, the specialised model scores the compact
// rows bit-identically to the model on the expanded rows.
func FuzzSpecialize(f *testing.F) {
	f.Add(int64(1), uint8(9), uint8(0), uint8(5))
	f.Add(int64(2), uint8(4), uint8(1), uint8(3))
	f.Add(int64(3), uint8(12), uint8(2), uint8(7))
	f.Add(int64(4), uint8(6), uint8(3), uint8(4))
	f.Add(int64(5), uint8(9), uint8(4), uint8(5))
	f.Add(int64(6), uint8(3), uint8(4), uint8(0))
	f.Add(int64(7), uint8(11), uint8(5), uint8(2))
	f.Add(int64(8), uint8(5), uint8(6), uint8(3))
	f.Add(int64(9), uint8(15), uint8(7), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, nfRaw, kind, depthRaw uint8) {
		nf := int(nfRaw)%16 + 1
		depth := int(depthRaw) % 9
		rng := rand.New(rand.NewSource(seed))
		raw := randomArtifact(t, rng, nf, depth, kind)
		m, err := mlmodel.LoadModel(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("LoadModel of a generated model: %v", err)
		}
		cols := liveColumns(rng, nf)
		spec := mlmodel.Specialize(m, cols, nf)
		compact, wide := compactRows(rng, 1+rng.Intn(3*mlmodel.BlockRows), nf, cols)
		checkSpecialized(t, mlmodel.FamilyName(m), m, spec, compact, wide)
		// Splits index the forest's used features in memory, but an artifact
		// names Schema columns: the model saves as the file it was loaded from.
		if saved := bytes.TrimSuffix(saveBytes(t, m), []byte("\n")); !bytes.Equal(saved, raw) {
			t.Fatalf("SaveModel(LoadModel(x)) differs from x:\n%s\n%s", saved, raw)
		}
	})
}
