package mlmodel

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/jsonlex"
)

// LoadModel reads a model previously written by SaveModel.
func LoadModel(r io.Reader) (Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("mlmodel: decoding model: %w", err)
	}
	s := jsonlex.Scanner{Data: data, What: "mlmodel: decoding model"}
	m, err := DecodeModel(&s, 0)
	if err != nil {
		return nil, err
	}
	if s.SkipSpace(); s.Pos != len(s.Data) {
		return nil, s.Errorf("data after the model")
	}
	return m, nil
}

// DecodeModel decodes the model envelope at the scanner's cursor, which it
// leaves just past the envelope; depth counts the objects and arrays open
// around it. It reads the text once, token by token, and builds the model as
// it goes: each tree's lists are read into one scratch tree and appended from
// there to the flat forest, whose slices are made once.
//
// The grammar is what SaveModel writes, with keys in any order and any JSON
// whitespace, and it checks every artifact as the families' builders would:
// addTree's guards, the tree depth limit, the MLP's shapes and an ensemble's
// member widths. It is stricter than encoding/json, which read these files
// before: keys match exactly, and one that matches a key only under case
// folding is an error, as is a repeated key, and so is null in place of a
// number, a string or an object. null for a list is an empty list, as
// SaveModel writes a nil one (a GBM without trees, a linear model without
// weights). An unknown key is skipped. Envelopes nest without recursion, so a file nested
// deeper than jsonlex.MaxDepth is refused at that depth, as encoding/json
// refused it.
func DecodeModel(s *jsonlex.Scanner, depth int) (Model, error) {
	d := decoder{Scanner: s}
	return d.model(depth)
}

// decoder reads the artifact grammar off jsonlex's tokens. tree holds the
// lists of the tree being read, and level addTree's scratch, both reused for
// every tree of the file.
type decoder struct {
	*jsonlex.Scanner
	tree  treeJSON
	level []int32
}

// The keys of the envelope and of every family's payload, as bits: which
// keys an object takes, and which it has had.
const (
	kType = 1 << iota
	kPayload
	kBase
	kLR
	kTrees
	kFeature
	kThreshold
	kLeft
	kRight
	kValue
	kSpread
	kWeights
	kIntercept
	kResidStd
	kW1
	kB1
	kW2
	kB2
	kXMean
	kXStd
	kYMean
	kYStd
	numKeys = iota
)

// keyNames spells key bit i.
var keyNames = [numKeys]string{
	"type", "payload", "base", "lr", "trees", "feature", "threshold", "left", "right", "value", "spread",
	"weights", "intercept", "residStd", "w1", "b1", "w2", "b2", "xMean", "xStd", "yMean", "yStd",
}

// keyOf returns the bit of the key spelt name, or 0.
func keyOf(name []byte) uint32 {
	for i, spelt := range keyNames {
		if string(name) == spelt {
			return 1 << i
		}
	}
	return 0
}

// key reads an object key and returns its bit among fields, or 0 for a key
// the object does not take. A key that spells one of fields only under
// Unicode case folding is an error: encoding/json would have read it as that
// field.
func (d *decoder) key(fields uint32) (uint32, []byte, error) {
	name, err := d.Key()
	if err != nil {
		return 0, nil, err
	}
	if k := keyOf(name); k&fields != 0 {
		return k, name, nil
	}
	for i, spelt := range keyNames {
		if fields&(1<<i) != 0 && bytes.EqualFold(name, []byte(spelt)) {
			return 0, nil, d.Errorf("key %q differs from %q only in case", name, spelt)
		}
	}
	return 0, name, nil
}

// open consumes the opening bracket c of an object or array that is the
// depth-th one open, refusing it past jsonlex.MaxDepth.
func (d *decoder) open(c byte, depth int) error {
	if depth > jsonlex.MaxDepth {
		return d.Errorf("exceeded max depth")
	}
	return d.Open(c)
}

// object parses an object, the depth-th composite open, calling value at the
// start of the value of each key in fields and skipping the value of any
// other key. A key may appear once.
func (d *decoder) object(fields uint32, depth int, value func(k uint32) error) error {
	if err := d.open('{', depth); err != nil {
		return err
	}
	var seen uint32
	for first := true; ; first = false {
		ok, err := d.More(first, '}')
		if err != nil || !ok {
			return err
		}
		k, name, err := d.key(fields)
		switch {
		case err != nil:
		case k == 0:
			err = d.Skip(depth)
		case seen&k != 0:
			err = d.Errorf("duplicate key %q", name)
		default:
			seen |= k
			err = value(k)
		}
		if err != nil {
			return err
		}
	}
}

// list parses an array, the depth-th composite open, calling elem at the
// start of each element. null is a list without elements.
func (d *decoder) list(depth int, elem func() error) error {
	if d.Null() {
		return nil
	}
	if err := d.open('[', depth); err != nil {
		return err
	}
	for first := true; ; first = false {
		ok, err := d.More(first, ']')
		if err != nil || !ok {
			return err
		}
		if err := elem(); err != nil {
			return err
		}
	}
}

// floats appends the numbers of a list, the depth-th composite open, to dst.
// null is a nil list.
func (d *decoder) floats(dst []float64, depth int) ([]float64, error) {
	if d.Null() {
		return nil, nil
	}
	if err := d.open('[', depth); err != nil {
		return dst, err
	}
	for first := true; ; first = false {
		ok, err := d.More(first, ']')
		if err != nil || !ok {
			return dst, err
		}
		v, err := d.Float()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
}

// int32s appends the integers of a list, the depth-th composite open, to dst.
// null is a nil list.
func (d *decoder) int32s(dst []int32, depth int) ([]int32, error) {
	if d.Null() {
		return nil, nil
	}
	if err := d.open('[', depth); err != nil {
		return dst, err
	}
	for first := true; ; first = false {
		ok, err := d.More(first, ']')
		if err != nil || !ok {
			return dst, err
		}
		v, err := d.Int()
		if err != nil {
			return dst, err
		}
		if v < math.MinInt32 || v > math.MaxInt32 {
			return dst, d.Errorf("number %d does not fit an int32", v)
		}
		dst = append(dst, int32(v))
	}
}

// family is a model type an envelope names.
type family uint8

const (
	famGBM family = iota + 1
	famForest
	famTree
	famLinear
	famMLP
	famLogTarget
	famEnsemble
)

func familyOf(name []byte) family {
	switch string(name) {
	case "gbm":
		return famGBM
	case "forest":
		return famForest
	case "tree":
		return famTree
	case "linear":
		return famLinear
	case "mlp":
		return famMLP
	case "logtarget":
		return famLogTarget
	case "ensemble":
		return famEnsemble
	}
	return 0
}

// wrapper is an envelope whose payload holds further envelopes: a logtarget,
// or an ensemble with the members read so far.
type wrapper struct {
	ensemble bool
	members  []Model
	resume   int // see envelope
	depth    int // the envelope object's
}

// model decodes one envelope, and every envelope inside it, without
// recursing: the logtargets and ensembles whose payloads are still being read
// wait on a stack, and each finished model is folded into the one on top.
func (d *decoder) model(depth int) (Model, error) {
	var stack []wrapper
	for {
		depth++ // the envelope object
		fam, resume, err := d.envelope(depth)
		if err != nil {
			return nil, err
		}
		var m Model
		switch fam {
		case famLogTarget:
			stack = append(stack, wrapper{resume: resume, depth: depth})
			continue // the payload is the inner envelope
		case famEnsemble:
			// Its members are envelopes inside the payload's list; null is
			// an empty list.
			if d.Null() {
				return nil, errNoMembers
			}
			if err := d.open('[', depth+1); err != nil {
				return nil, err
			}
			if ok, err := d.More(true, ']'); err != nil || !ok {
				return nil, cmp.Or(err, errNoMembers)
			}
			stack = append(stack, wrapper{ensemble: true, resume: resume, depth: depth})
			depth++
			continue
		default:
			if m, err = d.leaf(fam, depth+1); err != nil {
				return nil, err
			}
		}
		// m is complete; close its envelope and those it completes.
		for {
			if err := d.endEnvelope(resume, depth); err != nil {
				return nil, err
			}
			if len(stack) == 0 {
				return m, nil
			}
			w := &stack[len(stack)-1]
			if w.ensemble {
				w.members = append(w.members, m)
				more, err := d.More(false, ']')
				if err != nil {
					return nil, err
				}
				if more {
					depth = w.depth + 1 // the next member sits in the payload's list
					break
				}
				e := Ensemble{Models: w.members}
				if err := e.checkWidths(); err != nil {
					return nil, err
				}
				m = e
			} else {
				m = LogTarget{Inner: m}
			}
			resume, depth = w.resume, w.depth
			stack = stack[:len(stack)-1]
		}
	}
}

var errNoMembers = errors.New("mlmodel: ensemble with no members")

// envelope reads an envelope's keys, the envelope being the depth-th object
// open, up to its payload, and returns the model type with the cursor at the
// payload. A payload that comes before the type is skipped, and the cursor
// jumps back to it once the type is read; resume is then where the
// envelope's keys go on after the type, and -1 otherwise.
func (d *decoder) envelope(depth int) (fam family, resume int, err error) {
	if err := d.open('{', depth); err != nil {
		return 0, 0, err
	}
	payload := -1
	for first := true; ; first = false {
		ok, err := d.More(first, '}')
		if err != nil {
			return 0, 0, err
		}
		if !ok && fam == 0 {
			return 0, 0, d.Errorf("model without a type")
		}
		if !ok {
			return 0, 0, d.Errorf("model without a payload")
		}
		k, name, err := d.key(kType | kPayload)
		if err != nil {
			return 0, 0, err
		}
		switch {
		case k == kType && fam != 0, k == kPayload && payload >= 0:
			return 0, 0, d.Errorf("duplicate key %q", name)
		case k == kType:
			name, err := d.Str()
			if err != nil {
				return 0, 0, err
			}
			if fam = familyOf(name); fam == 0 {
				return 0, 0, fmt.Errorf("mlmodel: unknown model type %q", name)
			}
			if payload >= 0 {
				resume, d.Pos = d.Pos, payload
				return fam, resume, nil
			}
		case k == kPayload && fam != 0:
			return fam, -1, nil
		case k == kPayload:
			d.SkipSpace()
			payload = d.Pos
			err = d.Skip(depth)
		default:
			err = d.Skip(depth)
		}
		if err != nil {
			return 0, 0, err
		}
	}
}

// endEnvelope reads the rest of an envelope, the depth-th object open, whose
// payload the cursor has just passed: the keys after the payload, or, when
// the payload came first, those after the type from resume on.
func (d *decoder) endEnvelope(resume, depth int) error {
	if resume >= 0 {
		d.Pos = resume
	}
	for {
		ok, err := d.More(false, '}')
		if err != nil || !ok {
			return err
		}
		k, name, err := d.key(kType | kPayload)
		if err != nil {
			return err
		}
		if k != 0 {
			return d.Errorf("duplicate key %q", name)
		}
		if err := d.Skip(depth); err != nil {
			return err
		}
	}
}

// leaf decodes the payload of a model that holds no other model, the
// payload being the depth-th composite open.
func (d *decoder) leaf(fam family, depth int) (Model, error) {
	switch fam {
	case famGBM:
		g := &GBM{flatForest{kind: boosted}}
		err := d.object(kBase|kLR|kTrees, depth, func(k uint32) (err error) {
			switch k {
			case kBase:
				g.base, err = d.Float()
			case kLR:
				g.scale, err = d.Float()
			case kTrees:
				err = d.trees(&g.flatForest, depth+1)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		g.indexFeatures()
		return g, nil
	case famForest:
		f := &Forest{flatForest{kind: bagged}}
		err := d.object(kTrees, depth, func(uint32) error { return d.trees(&f.flatForest, depth+1) })
		if err != nil {
			return nil, err
		}
		if len(f.root) == 0 {
			return nil, fmt.Errorf("mlmodel: forest with no trees")
		}
		f.scale = 1 / float64(len(f.root))
		f.indexFeatures()
		return f, nil
	case famTree:
		if err := d.readTree(depth); err != nil {
			return nil, err
		}
		t := &Tree{flatForest{kind: single}}
		n := len(d.tree.Feature)
		t.nodes, t.value = make([]node, 0, n), make([]float64, 0, n)
		if err := t.addTree(d.tree, &d.level); err != nil {
			return nil, err
		}
		t.indexFeatures()
		return t, nil
	case famLinear:
		l := &Linear{}
		err := d.object(kWeights|kIntercept|kResidStd, depth, func(k uint32) (err error) {
			switch k {
			case kWeights: // [] is an empty list, which saves as [], null a nil one
				l.Weights, err = d.floats([]float64{}, depth+1)
			case kIntercept:
				l.Intercept, err = d.Float()
			case kResidStd:
				l.ResidStd, err = d.Float()
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		return l, nil
	default: // famMLP
		var mj mlpJSON
		err := d.object(kW1|kB1|kW2|kB2|kXMean|kXStd|kYMean|kYStd|kResidStd, depth, func(k uint32) (err error) {
			switch k {
			case kW1:
				err = d.list(depth+1, func() error {
					row, err := d.floats(nil, depth+2)
					mj.W1 = append(mj.W1, row)
					return err
				})
			case kB1:
				mj.B1, err = d.floats(nil, depth+1)
			case kW2:
				mj.W2, err = d.floats(nil, depth+1)
			case kB2:
				mj.B2, err = d.Float()
			case kXMean:
				mj.XMean, err = d.floats(nil, depth+1)
			case kXStd:
				mj.XStd, err = d.floats(nil, depth+1)
			case kYMean:
				mj.YMean, err = d.Float()
			case kYStd:
				mj.YStd, err = d.Float()
			case kResidStd:
				mj.ResidStd, err = d.Float()
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		return mlpFromJSON(mj)
	}
}

// trees appends the trees of a GBM's or forest's list, the depth-th
// composite open, to f.
func (d *decoder) trees(f *flatForest, depth int) error {
	if d.SkipSpace(); d.Peek() == '[' {
		n := nodeHint(d.Data[d.Pos:])
		f.nodes, f.value = make([]node, 0, n), make([]float64, 0, n)
	}
	return d.list(depth, func() error {
		if err := d.readTree(depth + 1); err != nil {
			return err
		}
		return f.addTree(d.tree, &d.level)
	})
}

// readTree reads the tree object, the depth-th composite open, into d.tree.
// A list the object leaves out is empty.
func (d *decoder) readTree(depth int) error {
	tj := &d.tree
	tj.Feature, tj.Threshold, tj.Left = tj.Feature[:0], tj.Threshold[:0], tj.Left[:0]
	tj.Right, tj.Value, tj.Spread = tj.Right[:0], tj.Value[:0], tj.Spread[:0]
	return d.object(kFeature|kThreshold|kLeft|kRight|kValue|kSpread, depth, func(k uint32) (err error) {
		switch k {
		case kFeature:
			tj.Feature, err = d.int32s(tj.Feature, depth+1)
		case kThreshold:
			tj.Threshold, err = d.floats(tj.Threshold, depth+1)
		case kLeft:
			tj.Left, err = d.int32s(tj.Left, depth+1)
		case kRight:
			tj.Right, err = d.int32s(tj.Right, depth+1)
		case kValue:
			tj.Value, err = d.floats(tj.Value, depth+1)
		case kSpread:
			tj.Spread, err = d.floats(tj.Spread, depth+1)
		}
		return err
	})
}

// nodeHint is how many nodes a forest's slices are made for: the lengths of
// the "feature" lists in data, which starts at the forest's list of trees, up
// to the next "type" key, where the next model of an ensemble begins. It is a
// byte search, not a parse. On what SaveModel writes it is exact, so the
// slices are made once at their final size; on anything else it is only a
// capacity (the decode checks every byte, and appends past a short hint),
// and never more than one node per ten bytes, the least a node takes up in
// its five lists.
func nodeHint(data []byte) int {
	if end := bytes.Index(data, []byte(`"type"`)); end >= 0 {
		data = data[:end]
	}
	limit, n := len(data)/10, 0
	const key = `"feature":[`
	for {
		i := bytes.Index(data, []byte(key))
		if i < 0 {
			break
		}
		data = data[i+len(key):]
		j := bytes.IndexByte(data, ']')
		if j < 0 {
			break
		}
		if j > 0 {
			n += bytes.Count(data[:j], []byte{','}) + 1
		}
		data = data[j+1:]
	}
	return min(n, limit)
}
