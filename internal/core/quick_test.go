package core_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/workload"
)

// TestQuickUnvectorizeRoundTrip: for random plans and assignments, the
// execution plan reconstructed from a vector carries exactly the platforms
// the vector assigned, and its conversions sit exactly on switch edges.
func TestQuickUnvectorizeRoundTrip(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		size := int(sizeRaw)%12 + 3
		l := workload.RandomDAG(size, 1e7, seed)
		ctx, err := core.NewContext(l, platform.Subset(3), platform.UniformAvailability(3))
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed + 1))
		assign := make([]uint8, l.NumOps())
		for i := range assign {
			alts := ctx.Alternatives(plan.OpID(i))
			assign[i] = alts[rng.Intn(len(alts))]
		}
		v := ctx.VectorizeExecution(assign)
		x, err := ctx.Unvectorize(v)
		if err != nil {
			return false
		}
		for i, a := range assign {
			if x.Assign[i] != ctx.Schema.Platforms[a] {
				return false
			}
		}
		switches := 0
		for _, e := range l.Edges() {
			if assign[e.From] != assign[e.To] {
				switches++
			}
		}
		// Every switch puts one conversion instance on each side.
		moves := 0.0
		for _, n := range v.F[ctx.Schema.MovePlatformCell(0):][:len(ctx.Schema.Platforms)] {
			moves += n
		}
		return switches == len(x.Conversions) && 2*float64(switches) == moves
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickVectorNonNegative: every feature cell of a concrete plan vector
// is nonnegative (abstract vectors may hold -1 alternatives; concrete ones
// never do).
func TestQuickVectorNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		l := workload.RandomDAG(10, 1e6, seed)
		ctx, err := core.NewContext(l, platform.Subset(2), platform.UniformAvailability(2))
		if err != nil {
			return false
		}
		// RandomDAG sizes are approximate; no cap — 2 platforms keep
		// the exhaustive enumeration small enough.
		e, err := ctx.Enumerate(context.Background(), plan.FullBitset(l.NumOps()), 0, nil)
		if err != nil {
			return false
		}
		for _, v := range e.Vectors {
			for _, cell := range v.F {
				if cell < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPruneSubset: pruning returns a subset of the enumeration with
// unchanged scope, and the surviving minimum cost equals the pre-prune
// minimum (the footprint group containing the argmin keeps its best).
func TestQuickPruneSubset(t *testing.T) {
	f := func(seed int64) bool {
		l := workload.Pipeline(int(uint(seed)%5)+4, 1e7)
		ctx, err := core.NewContext(l, platform.Subset(3), platform.UniformAvailability(3))
		if err != nil {
			return false
		}
		e, err := ctx.Enumerate(context.Background(), plan.FullBitset(l.NumOps()), 0, nil)
		if err != nil {
			return false
		}
		m := newAdditiveLinModel(ctx.Schema, seed)
		before := len(e.Vectors)
		minBefore := 0.0
		for i, v := range e.Vectors {
			c := m.Predict(ctx.Wide(v))
			if i == 0 || c < minBefore {
				minBefore = c
			}
		}
		ctx.Bind(m)
		core.BoundaryPruner{}.Prune(context.Background(), ctx, e, nil)
		if len(e.Vectors) > before {
			return false
		}
		minAfter := 0.0
		for i, v := range e.Vectors {
			if i == 0 || v.Cost < minAfter {
				minAfter = v.Cost
			}
		}
		return minAfter == minBefore
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWorkersDeterministic: for random DAGs, the parallel enumeration
// is an exact replica of the serial one — Workers=1, 2 and 8 produce
// byte-identical platform assignments and do the same amount of merge work,
// with the store's poison hook armed. This is the determinism contract the
// chunked parallel writes exist for.
func TestQuickWorkersDeterministic(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		size := int(sizeRaw)%10 + 4
		l := workload.RandomDAG(size, 1e8, seed)
		run := func(workers int) (*core.Result, bool) {
			ctx := newCtx(t, l, 3)
			ctx.Workers = workers
			m := newAdditiveLinModel(ctx.Schema, seed+13)
			res, err := ctx.Optimize(context.Background(), m)
			if err != nil {
				return nil, false
			}
			return res, true
		}
		serial, ok := run(1)
		if !ok {
			return false
		}
		for _, workers := range []int{2, 8} {
			par, ok := run(workers)
			if !ok || !slices.Equal(serial.Execution.Assign, par.Execution.Assign) ||
				serial.Predicted != par.Predicted || serial.Stats.Counters() != par.Stats.Counters() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
