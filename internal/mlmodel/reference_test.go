package mlmodel

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// The reference decoder: LoadModel as it was before the one-pass decoder,
// encoding/json walking nested json.RawMessage envelopes, kept here as the
// oracle FuzzLoadModel and TestLoadMatchesReference hold DecodeModel to. It
// shares addTree, the families' checks and their constructors with the
// decoder; what it checks is the reading of the JSON.

type refEnvelope struct {
	Type    string          `json:"type"`
	Payload json.RawMessage `json:"payload"`
}

func referenceLoad(raw []byte) (Model, error) {
	var env refEnvelope
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&env); err != nil {
		return nil, fmt.Errorf("mlmodel: decoding model: %w", err)
	}
	return refFromEnvelope(&env)
}

func refAddTrees(f *flatForest, tjs []treeJSON) error {
	var level []int32
	for _, tj := range tjs {
		if err := f.addTree(tj, &level); err != nil {
			return err
		}
	}
	f.indexFeatures()
	return nil
}

func refFromEnvelope(env *refEnvelope) (Model, error) {
	if env == nil {
		// A null ensemble member; the old decoder dereferenced it and panicked.
		return nil, fmt.Errorf("mlmodel: null model")
	}
	switch env.Type {
	case "gbm":
		var gj gbmJSON
		if err := json.Unmarshal(env.Payload, &gj); err != nil {
			return nil, err
		}
		g := &GBM{flatForest{kind: boosted, base: gj.Base, scale: gj.LR}}
		return g, refAddTrees(&g.flatForest, gj.Trees)
	case "forest":
		var fj forestJSON
		if err := json.Unmarshal(env.Payload, &fj); err != nil {
			return nil, err
		}
		if len(fj.Trees) == 0 {
			return nil, fmt.Errorf("mlmodel: forest with no trees")
		}
		f := &Forest{flatForest{kind: bagged, scale: 1 / float64(len(fj.Trees))}}
		return f, refAddTrees(&f.flatForest, fj.Trees)
	case "linear":
		var lj linearJSON
		if err := json.Unmarshal(env.Payload, &lj); err != nil {
			return nil, err
		}
		return &Linear{Weights: lj.Weights, Intercept: lj.Intercept, ResidStd: lj.ResidStd}, nil
	case "mlp":
		var mj mlpJSON
		if err := json.Unmarshal(env.Payload, &mj); err != nil {
			return nil, err
		}
		return mlpFromJSON(mj)
	case "tree":
		var tj treeJSON
		if err := json.Unmarshal(env.Payload, &tj); err != nil {
			return nil, err
		}
		t := &Tree{flatForest{kind: single}}
		return t, refAddTrees(&t.flatForest, []treeJSON{tj})
	case "ensemble":
		var members []*refEnvelope
		if err := json.Unmarshal(env.Payload, &members); err != nil {
			return nil, err
		}
		if len(members) == 0 {
			return nil, fmt.Errorf("mlmodel: ensemble with no members")
		}
		e := Ensemble{}
		for _, member := range members {
			m, err := refFromEnvelope(member)
			if err != nil {
				return nil, err
			}
			e.Models = append(e.Models, m)
		}
		return e, e.checkWidths()
	case "logtarget":
		var inner refEnvelope
		if err := json.Unmarshal(env.Payload, &inner); err != nil {
			return nil, err
		}
		m, err := refFromEnvelope(&inner)
		if err != nil {
			return nil, err
		}
		return LogTarget{Inner: m}, nil
	default:
		return nil, fmt.Errorf("mlmodel: unknown model type %q", env.Type)
	}
}
