package mlmodel

import "fmt"

// FeatureWidth reports the input dimensionality model m was trained on.
// exact is true for families that record the width explicitly (Linear and
// MLP); tree-based families only reference the features they actually split
// on, so their reported width is a lower bound (max feature index + 1) and
// exact is false. Composite models combine their members: any exact member
// fixes the width, otherwise the largest bound wins. A deployment check can
// therefore reject a model whose exact width differs from the serving
// schema, or whose lower bound exceeds it — both guarantee garbage scores.
func FeatureWidth(m Model) (width int, exact bool) {
	switch mm := m.(type) {
	case *Linear:
		return len(mm.Weights), true
	case *MLP:
		return len(mm.xMean), true
	case interface{ width() int }: // Tree, Forest, GBM: the flat forest
		return mm.width(), false
	case LogTarget:
		return FeatureWidth(mm.Inner)
	case Ensemble:
		bound, exactWidth, haveExact := 0, 0, false
		for _, member := range mm.Models {
			w, ex := FeatureWidth(member)
			if ex {
				haveExact = true
				if w > exactWidth {
					exactWidth = w
				}
			} else if w > bound {
				bound = w
			}
		}
		if haveExact {
			return exactWidth, true
		}
		return bound, false
	default:
		return 0, false
	}
}

// checkWidths refuses an ensemble whose members cannot all score the same
// row: exact widths that differ, or a tree member splitting on a feature an
// exact member's width does not have. FeatureWidth reports the exact width
// for such a mix, so a row of that width would index out of range.
func (e Ensemble) checkWidths() error {
	exactWidth, bound := -1, 0
	for _, member := range e.Models {
		w, exact := FeatureWidth(member)
		switch {
		case !exact:
			bound = max(bound, w)
		case exactWidth < 0:
			exactWidth = w
		case w != exactWidth:
			return fmt.Errorf("mlmodel: ensemble members expect %d and %d features", exactWidth, w)
		}
	}
	if exactWidth >= 0 && bound > exactWidth {
		return fmt.Errorf("mlmodel: ensemble member references feature %d but another expects %d features", bound-1, exactWidth)
	}
	return nil
}

// FamilyName labels the model family for artifact metadata and logs, e.g.
// "gbm", "logtarget(gbm)" or "ensemble(logtarget(gbm)×3)".
func FamilyName(m Model) string {
	switch mm := m.(type) {
	case *GBM:
		return "gbm"
	case *Forest:
		return "forest"
	case *Linear:
		return "linear"
	case *MLP:
		return "mlp"
	case *Tree:
		return "tree"
	case LogTarget:
		return "logtarget(" + FamilyName(mm.Inner) + ")"
	case Ensemble:
		if len(mm.Models) == 0 {
			return "ensemble(empty)"
		}
		return fmt.Sprintf("ensemble(%s×%d)", FamilyName(mm.Models[0]), len(mm.Models))
	default:
		return fmt.Sprintf("%T", m)
	}
}
