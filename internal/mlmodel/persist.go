package mlmodel

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Model serialization: a tagged JSON envelope so a trained model can be
// saved once and reloaded by the CLI without retraining. Every trainable
// family round-trips: tree-based ensembles, linear regression, the MLP,
// dataset-level ensembles, and the log-target wrapper.

type modelEnvelope struct {
	Type    string          `json:"type"`
	Payload json.RawMessage `json:"payload"`
}

func marshalJSON(v any) (json.RawMessage, error) { return json.Marshal(v) }

type treeJSON struct {
	Feature   []int32   `json:"feature"`
	Threshold []float64 `json:"threshold"`
	Left      []int32   `json:"left"`
	Right     []int32   `json:"right"`
	Value     []float64 `json:"value"`
	// Spread is the per-node training-target std backing PredictDist.
	// Optional: artifacts written before the field load as zero spread.
	Spread []float64 `json:"spread,omitempty"`
}

// treeJSON returns tree t in the artifact's per-tree layout: node indices
// relative to the tree, a leaf as feature -1 with zero children and a zero
// threshold (in memory a leaf's threshold holds its fold term).
func (f *flatForest) treeJSON(t int) treeJSON {
	lo, hi := f.root[t], int32(len(f.value))
	if t+1 < len(f.root) {
		hi = f.root[t+1]
	}
	n := hi - lo
	tj := treeJSON{
		Feature:   make([]int32, n),
		Threshold: make([]float64, n),
		Left:      make([]int32, n),
		Right:     make([]int32, n),
		Value:     make([]float64, n),
		Spread:    make([]float64, n),
	}
	for i := lo; i < hi; i++ {
		j, nd := i-lo, f.nodes[i]
		tj.Value[j] = f.value[i]
		tj.Spread[j] = f.spreadAt(i)
		if nd.kids[0] == i {
			tj.Feature[j] = -1
			continue
		}
		tj.Threshold[j] = nd.thr
		tj.Feature[j] = f.cols[nd.feat]
		tj.Left[j] = nd.kids[0] - lo
		tj.Right[j] = nd.kids[1] - lo
	}
	return tj
}

// treesJSON returns every tree of f, in order.
func (f *flatForest) treesJSON() []treeJSON {
	var out []treeJSON
	for t := range f.depth {
		out = append(out, f.treeJSON(t))
	}
	return out
}

// addTree appends the tree tj describes, straight into the flat form. An
// artifact is untrusted: a split whose child does not come after it inside
// the tree could loop a walk forever, so it is refused here, at load. So is a
// leaf with a threshold other than 0, which no builder writes: the slot is the
// leaf's fold term in memory, and the file would not save back as it loaded.
// scratch is endTree's.
func (f *flatForest) addTree(tj treeJSON, scratch *[]int32) error {
	n := len(tj.Feature)
	if len(tj.Threshold) != n || len(tj.Left) != n || len(tj.Right) != n || len(tj.Value) != n {
		return fmt.Errorf("mlmodel: inconsistent tree arrays")
	}
	if len(tj.Spread) != 0 && len(tj.Spread) != n {
		return fmt.Errorf("mlmodel: inconsistent tree spread array")
	}
	if n == 0 {
		return fmt.Errorf("mlmodel: empty tree")
	}
	off := int32(len(f.value))
	f.appendSpread(tj.Spread)
	for i := 0; i < n; i++ {
		at := f.leaf(tj.Value[i])
		if tj.Feature[i] < 0 {
			if math.Float64bits(tj.Threshold[i]) != 0 {
				return fmt.Errorf("mlmodel: tree leaf %d has threshold %v (a leaf's must be 0)", i, tj.Threshold[i])
			}
			continue
		}
		l, r := tj.Left[i], tj.Right[i]
		if int(l) <= i || int(l) >= n || int(r) <= i || int(r) >= n {
			return fmt.Errorf("mlmodel: tree node %d has out-of-range children (they must follow it)", i)
		}
		f.split(at, tj.Feature[i], tj.Threshold[i], off+l, off+r)
	}
	return f.endTree(off, scratch)
}

type gbmJSON struct {
	Base  float64    `json:"base"`
	LR    float64    `json:"lr"`
	Trees []treeJSON `json:"trees"`
}

type forestJSON struct {
	Trees []treeJSON `json:"trees"`
}

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

func mlpFromJSON(mj mlpJSON) (*MLP, error) {
	h := len(mj.W1)
	if h == 0 {
		return nil, fmt.Errorf("mlmodel: MLP with no hidden units")
	}
	nf := len(mj.XMean)
	if nf == 0 {
		return nil, fmt.Errorf("mlmodel: MLP with no input features")
	}
	if len(mj.B1) != h || len(mj.W2) != h {
		return nil, fmt.Errorf("mlmodel: inconsistent MLP hidden arrays (%d units, %d biases, %d output weights)",
			h, len(mj.B1), len(mj.W2))
	}
	if len(mj.XStd) != nf {
		return nil, fmt.Errorf("mlmodel: MLP has %d feature means but %d feature stds", nf, len(mj.XStd))
	}
	for j, wj := range mj.W1 {
		if len(wj) != nf {
			return nil, fmt.Errorf("mlmodel: MLP hidden unit %d has %d weights, want %d", j, len(wj), nf)
		}
	}
	for i, s := range mj.XStd {
		if s == 0 {
			return nil, fmt.Errorf("mlmodel: MLP feature %d has zero std", i)
		}
	}
	if mj.YStd == 0 {
		return nil, fmt.Errorf("mlmodel: MLP has zero target std")
	}
	return &MLP{
		w1: mj.W1, b1: mj.B1, w2: mj.W2, b2: mj.B2,
		xMean: mj.XMean, xStd: mj.XStd, yMean: mj.YMean, yStd: mj.YStd,
		residStd: mj.ResidStd,
	}, nil
}

// SaveModel writes m to w as JSON. Supported: *GBM, *Forest, *Linear, *Tree,
// *MLP, Ensemble, and LogTarget wrapping any of them.
func SaveModel(w io.Writer, m Model) error {
	env, err := envelope(m)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	return enc.Encode(env)
}

func envelope(m Model) (*modelEnvelope, error) {
	marshal := func(typ string, v any) (*modelEnvelope, error) {
		raw, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		return &modelEnvelope{Type: typ, Payload: raw}, nil
	}
	switch mm := m.(type) {
	case *GBM:
		return marshal("gbm", gbmJSON{Base: mm.base, LR: mm.scale, Trees: mm.treesJSON()})
	case *Forest:
		return marshal("forest", forestJSON{Trees: mm.treesJSON()})
	case *Linear:
		return marshal("linear", linearJSON{Weights: mm.Weights, Intercept: mm.Intercept, ResidStd: mm.ResidStd})
	case *MLP:
		return marshal("mlp", mlpJSON{
			W1: mm.w1, B1: mm.b1, W2: mm.w2, B2: mm.b2,
			XMean: mm.xMean, XStd: mm.xStd, YMean: mm.yMean, YStd: mm.yStd,
			ResidStd: mm.residStd,
		})
	case *Tree:
		return marshal("tree", mm.treeJSON(0))
	case LogTarget:
		inner, err := envelope(mm.Inner)
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(inner)
		if err != nil {
			return nil, err
		}
		return &modelEnvelope{Type: "logtarget", Payload: raw}, nil
	case Ensemble:
		return ensembleEnvelope(mm)
	default:
		return nil, fmt.Errorf("mlmodel: cannot serialize model of type %T", m)
	}
}
