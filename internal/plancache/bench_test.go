package plancache

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/vecops"
)

// benchModel is a cheap deterministic cost oracle, the same arithmetic the
// core ablation benchmarks use.
type benchModel struct{}

func (benchModel) Predict(f []float64) float64 {
	s := 0.0
	for i, v := range f {
		s += v * float64(i%7)
	}
	return s
}

func (m benchModel) PredictBatchDist(X *vecops.Matrix, mean, spread, lo, hi []float64) {
	for i := 0; i < X.Rows; i++ {
		mean[i] = m.Predict(X.Row(i))
		if spread != nil {
			spread[i], lo[i], hi[i] = 0, mean[i], mean[i]
		}
	}
}

// benchPlan is a pipeline at Figure 9a's 40-operator scale.
func benchPlan(b *testing.B, nOps int) *plan.Logical {
	b.Helper()
	pb := plan.NewBuilder(100)
	cur := pb.Source(platform.TextFileSource, "src", 1e7)
	for i := 0; i < nOps-2; i++ {
		cur = pb.Add(platform.Map, "m", platform.Linear, 0.9, cur)
	}
	pb.Add(platform.CollectionSink, "sink", platform.Logarithmic, 1, cur)
	l, err := pb.Build()
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkPlanCache measures the three serving outcomes at the 40-operator
// scale, each timed as a whole request would run: plan-context construction,
// fingerprinting, then either the full enumeration (Miss), a cache lookup
// plus rematerialization (Hit), or one enumeration fanned out to eight
// concurrent identical requests (Collapsed; the reported time covers all
// eight requests).
func BenchmarkPlanCache(b *testing.B) {
	l := benchPlan(b, 40)
	plats := platform.Subset(2)
	avail := platform.UniformAvailability(2)
	model := benchModel{}
	optimize := func() *core.Result {
		cctx, err := core.NewContext(l, plats, avail)
		if err != nil {
			b.Fatal(err)
		}
		res, err := cctx.Optimize(context.Background(), model)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}

	b.Run("Miss", func(b *testing.B) {
		c := New(Config{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fp, canon, err := Compute(l, plats, avail, c.BandsPerDecade())
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := c.GetBand(fp, "v1", ""); ok {
				b.Fatal("unexpected hit")
			}
			cp, err := FromResult(fp, canon, "v1", optimize())
			if err != nil {
				b.Fatal(err)
			}
			c.Put(cp)
			c.Purge() // keep every iteration a miss
		}
	})

	b.Run("Hit", func(b *testing.B) {
		c := New(Config{})
		fp0, canon0, err := Compute(l, plats, avail, c.BandsPerDecade())
		if err != nil {
			b.Fatal(err)
		}
		cp0, err := FromResult(fp0, canon0, "v1", optimize())
		if err != nil {
			b.Fatal(err)
		}
		c.Put(cp0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fp, canon, err := Compute(l, plats, avail, c.BandsPerDecade())
			if err != nil {
				b.Fatal(err)
			}
			cp, ok := c.GetBand(fp, "v1", "")
			if !ok {
				b.Fatal("unexpected miss")
			}
			if _, err := cp.Materialize(l, canon, plats); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("Collapsed", func(b *testing.B) {
		c := New(Config{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A fresh version per round forces one real enumeration; eight
			// concurrent identical requests share it. The leader's fn waits
			// until every request has reached Do, so the round genuinely
			// exercises the collapse (otherwise a fast enumeration can finish
			// before the scheduler ever starts the other goroutines).
			version := fmt.Sprintf("v%d", i)
			var ready, wg sync.WaitGroup
			ready.Add(8)
			wg.Add(8)
			for g := 0; g < 8; g++ {
				go func() {
					defer wg.Done()
					fp, canon, err := Compute(l, plats, avail, c.BandsPerDecade())
					if err != nil {
						b.Error(err)
						return
					}
					ready.Done()
					cp, _, err := c.DoBand(context.Background(), fp, version, "", func() (*CachedPlan, error) {
						ready.Wait()
						return FromResult(fp, canon, version, optimize())
					})
					if err != nil {
						b.Error(err)
						return
					}
					if _, err := cp.Materialize(l, canon, plats); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
		}
	})
}
