package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/workload"
)

// TestRunCellsExact: the cells a run's rows hold (Context.LiveCells) are
// exactly the cells the plan's vectors can set. Sound: every Schema cell
// outside them is 0 in the plan vector (VectorizeExecution) of random
// complete assignments. Exact: every one of them below the movement block,
// but TopoPipeline, which a merge writes, is non-zero in some singleton row
// (VectorizeSubplan of one operator on one platform). Over random DAGs,
// join trees and the catalog at its smallest sizes (the K-means, SGD and
// CrocoPR loops among them), on 2 to 5 platforms under the default and the
// uniform availability.
func TestRunCellsExact(t *testing.T) {
	type named struct {
		name string
		l    *plan.Logical
	}
	plans := []named{{"JoinTree(3)", workload.JoinTree(3, 1e9)}, {"JoinTree(5)", workload.JoinTree(5, 1e9)}}
	for _, n := range []int{4, 9, 17, 28, 40} {
		for seed := int64(1); seed <= 3; seed++ {
			plans = append(plans, named{fmt.Sprintf("RandomDAG(%d, %d)", n, seed), workload.RandomDAG(n, 1e8, seed)})
		}
	}
	for _, q := range workload.Catalog() {
		plans = append(plans, named{q.Name, q.Build(q.MinBytes)})
	}
	rng := rand.New(rand.NewSource(1))
	checked := 0
	for _, p := range plans {
		name, l := p.name, p.l
		for k := 2; k <= 5; k++ {
			plats := platform.Subset(k)
			for _, uniform := range []bool{false, true} {
				avail := platform.DefaultAvailability().Restrict(plats)
				if uniform {
					avail = platform.UniformAvailability(k)
				}
				ctx, err := core.NewContext(l, plats, avail)
				if err != nil && strings.Contains(err.Error(), "has no execution operator") {
					continue // the default availability leaves some kind without a platform
				} else if err != nil {
					t.Fatalf("%s, %d platforms: NewContext: %v", name, k, err)
				}
				checked++
				where := fmt.Sprintf("%s, %d platforms, uniform=%v", name, k, uniform)
				checkRunCells(t, where, ctx, rng)
			}
		}
	}
	if checked < len(plans)*4 {
		t.Fatalf("checked %d configurations of %d plans", checked, len(plans))
	}
}

func checkRunCells(t *testing.T, where string, ctx *core.Context, rng *rand.Rand) {
	t.Helper()
	s, l := ctx.Schema, ctx.Plan
	live := make([]bool, s.Len())
	for _, col := range ctx.LiveCells() {
		live[col] = true
	}
	if cols := ctx.LiveCells(); !slices.IsSorted(cols) || len(slices.Compact(slices.Clone(cols))) != len(cols) {
		t.Fatalf("%s: live cells not ascending and distinct: %v", where, cols)
	}
	for a := 0; a < 20; a++ {
		assign := make([]uint8, l.NumOps())
		for i := range assign {
			alts := ctx.Alternatives(plan.OpID(i))
			assign[i] = alts[rng.Intn(len(alts))]
		}
		for col, x := range ctx.VectorizeExecution(assign).F {
			if x != 0 && !live[col] {
				t.Fatalf("%s: assignment %v sets cell %d to %v, which the run's rows do not hold", where, assign, col, x)
			}
		}
	}
	set := make([]bool, s.Len())
	for _, o := range l.Ops {
		for _, pi := range ctx.Alternatives(o.ID) {
			for col, x := range ctx.VectorizeSubplan(map[plan.OpID]uint8{o.ID: pi}).F {
				set[col] = set[col] || x != 0
			}
		}
	}
	for col := 0; col < s.MovePlatformCell(0); col++ {
		if live[col] && !set[col] && col != core.TopoPipeline {
			t.Fatalf("%s: the run's rows hold cell %d, which no singleton row sets", where, col)
		}
	}
}
