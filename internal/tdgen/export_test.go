package tdgen

import (
	"repro/internal/core"
	"repro/internal/mlmodel"
)

// NewInterpolator builds the piecewise degree-5 interpolator NewImputer fits
// in log-log space.
var NewInterpolator = newInterpolator

// Draw runs one draw of r at a size row the test chooses and the given seed,
// over exactly r's seed queries: Dataset adds Table II's when r names none,
// Draw adds nothing.
func Draw(r Recipe, maxOps, templates, plans, profiles int, seed int64) (*mlmodel.Dataset, report, error) {
	return newGenerator(r, draw{maxOps, templates, plans, profiles}, seed).generate()
}

// Selection is one logical plan's β-bounded assignments in its context.
type Selection struct {
	Ctx     *core.Context
	Assigns [][]uint8
}

// Bounded makes the templates of such a draw, instantiates each at one
// cardinality, and returns the assignments selectAssignments picks there
// before its uniform negatives: the ones it keeps within β switches.
func Bounded(r Recipe, maxOps, templates, plans int, seed int64) ([]Selection, error) {
	g := newGenerator(r, draw{maxOps, templates, plans, 1}, seed)
	var out []Selection
	for s := pipeline; s <= loop; s++ {
		for t := 0; t < templates; t++ {
			insts, err := g.instantiateLadder(g.makeTemplate(s).instantiate, []float64{1e6})
			if err != nil {
				return nil, err
			}
			assigns, bounded := g.selectAssignments(insts[0])
			out = append(out, Selection{insts[0], assigns[:bounded]})
		}
	}
	return out, nil
}
