package main

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/workload"
)

// instance is one set-up workload, ready to be driven.
type instance struct {
	// op runs operation i of a pass and checks its output; warm runs it
	// unchecked (the reference answers do not exist yet during set-up).
	op   func(i int) error
	warm func(i int) error
	// aux, when set, runs once per pass outside the timed section.
	aux func()
	// reference prepares the answers op compares against (checker work,
	// outside set-up time); validate runs the checks too slow for the loop.
	reference func() error
	validate  func() []error
	quality   func() float64
	close     func()

	sv  *serving // the driven server; nil on paper-fig9
	fig *fig9    // nil on the serving workloads
}

// workloadDef describes one workload. Names are permanent: BENCHMARK.json and
// every later comparison refer to them.
type workloadDef struct {
	name string
	why  string
	// tailQ is the quantile latency_tail_ms reports, fixed per workload so
	// that at least ten samples of every pass lie beyond it.
	tailQ float64
	// opsPerPass is the fixed composition replayed as a whole; warmOps is
	// the fixed warm-up every set-up ends with.
	opsPerPass int
	// chunkOps is how many operations run between two reference-kernel runs:
	// about a tenth of a second of work.
	chunkOps int
	warmOps  int
	setup    func(e *env, seed int64) (*instance, error)
}

var workloads = []workloadDef{
	{
		name:       "cold-enum",
		why:        "every request misses a 16-entry cache: core enumeration with GBM inference and the plancache write path do the work",
		tailQ:      0.99,
		opsPerPass: 4 * numServingPlans,
		chunkOps:   numServingPlans / 2,
		warmOps:    5 * numServingPlans,
		setup: func(e *env, seed int64) (*instance, error) {
			rep, err := e.boot("bench-cold", tinyCache)
			if err != nil {
				return nil, err
			}
			return e.servingInstance(rep, seed, "miss")
		},
	},
	{
		name:       "warm-hit",
		why:        "every request hits a pre-filled cache: plan decode, fingerprint, cache read, materialize and encode do the work, the enumerator none",
		tailQ:      0.99,
		opsPerPass: 32 * numServingPlans,
		chunkOps:   32 * numServingPlans,
		warmOps:    100 * numServingPlans,
		setup: func(e *env, seed int64) (*instance, error) {
			rep, err := e.boot("bench-warm", plancache.Config{})
			if err != nil {
				return nil, err
			}
			in, err := e.servingInstance(rep, seed, "hit")
			if err == nil {
				err = in.sv.cycle() // pre-fill
			}
			return in, err
		},
	},
	{
		name:       "peer-fill",
		why:        "replica B misses locally and is answered from replica A over loopback: peercache, registry discovery and plancache remote-install do the work",
		tailQ:      0.99,
		opsPerPass: 16 * numServingPlans,
		chunkOps:   8 * numServingPlans,
		warmOps:    30 * numServingPlans,
		setup: func(e *env, seed int64) (*instance, error) {
			a, err := e.startPeerA(seed)
			if err != nil {
				return nil, err
			}
			rep, err := e.boot(fmt.Sprintf("bench-B-%d", os.Getpid()), tinyCache)
			if err == nil {
				err = enablePeerFill(rep)
			}
			if err != nil {
				a.close()
				return nil, err
			}
			in, err := e.servingInstance(rep, seed, "peer")
			if err != nil {
				a.close()
				return nil, err
			}
			in.sv.peerA = a
			in.sv.closes = append(in.sv.closes, a.close)
			return in, nil
		},
	},
	{
		name:       "paper-fig9",
		why:        "library path on 20/40/80-operator pipelines with a linear model: merge and prune dominate, and the Fig 9a vector-vs-object ratio stays in the ledger",
		tailQ:      0.90,
		opsPerPass: fig9OpsPerPass,
		chunkOps:   fig9OpsPerPass,
		warmOps:    4 * fig9OpsPerPass,
		setup:      setupFig9,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// servingInstance wraps a booted replica and its request list as an instance.
func (e *env) servingInstance(rep *replica, seed int64, want string) (*instance, error) {
	sv, err := e.newServing(rep, seed, want)
	if err != nil {
		return nil, err
	}
	return &instance{
		op:        sv.op,
		warm:      sv.warm,
		reference: sv.reference,
		validate:  sv.validate,
		quality:   func() float64 { return e.planQuality(e.plats, e.avail, sv.executions()) },
		close:     sv.close,
		sv:        sv,
	}, nil
}

// fig9Sizes are the pipeline lengths of the paper-fig9 workload; fig9Obj
// indexes the one the object-graph enumeration is timed on (Fig 9a's 40).
var fig9Sizes = []int{20, 40, 80}

const (
	fig9Obj        = 1
	fig9OpsPerPass = 120
)

// fig9 is the library-path workload: Robopt's vector enumeration on long
// pipelines over two platforms with the latency experiments' linear model.
type fig9 struct {
	e     *env
	h     *experiments.Harness
	plats []platform.ID
	avail *platform.Availability
	model core.CostModel
	plans []*plan.Logical
	order []int
	want  []*core.Result
	last  []*core.Result
	// vecMs and objMs time the 40-operator plan under vector and under
	// object-graph enumeration.
	vecMs, objMs []float64
	objErr       error
}

func setupFig9(e *env, seed int64) (*instance, error) {
	f := &fig9{e: e, h: experiments.NewHarness(), plats: platform.Subset(2)}
	f.h.Quick = true
	f.h.Workers = 1
	f.avail = platform.DefaultAvailability().Restrict(f.plats)
	f.model = f.h.LatencyModel(f.plats)
	for _, n := range fig9Sizes {
		f.plans = append(f.plans, workload.Pipeline(n, 1e9))
	}
	f.last = make([]*core.Result, len(f.plans))
	f.seedOrder(fig9OpsPerPass, seed)
	return &instance{
		op:        f.op,
		warm:      func(i int) error { _, err := f.optimize(f.order[i%len(f.order)]); return err },
		aux:       f.objectEnum,
		reference: f.reference,
		validate:  f.validate,
		quality: func() float64 {
			xs := make([]*plan.Execution, len(f.want))
			for i, r := range f.want {
				xs[i] = r.Execution
			}
			return e.planQuality(f.plats, f.avail, xs)
		},
		close: func() {},
		fig:   f,
	}, nil
}

// seedOrder fixes the pass composition: every size equally often, in an order
// drawn from --seed.
func (f *fig9) seedOrder(ops int, seed int64) {
	f.order = f.order[:0]
	for i := 0; i < ops; i++ {
		f.order = append(f.order, i%len(f.plans))
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(f.order), func(i, j int) {
		f.order[i], f.order[j] = f.order[j], f.order[i]
	})
}

func (f *fig9) optimize(n int) (*core.Result, error) {
	return f.h.RoboptOptimizeWith(f.plans[n], f.plats, f.avail, f.model)
}

func (f *fig9) reference() error {
	f.want = f.want[:0]
	for n := range f.plans {
		res, err := f.optimize(n)
		if err != nil {
			return err
		}
		if err := res.Execution.Validate(f.avail); err != nil {
			return err
		}
		f.want = append(f.want, res)
	}
	return nil
}

func (f *fig9) op(i int) error {
	n := f.order[i%len(f.order)]
	t0 := time.Now()
	res, err := f.optimize(n)
	if n == fig9Obj {
		f.vecMs = append(f.vecMs, msSince(t0))
	}
	if err != nil {
		return err
	}
	f.last[n] = res
	if want := f.want[n]; res.Predicted != want.Predicted || !slices.Equal(res.Execution.Assign, want.Execution.Assign) {
		return fmt.Errorf("Pipeline(%d): plan differs from the reference enumeration", fig9Sizes[n])
	}
	return nil
}

// objectEnum times the object-graph enumeration of the 40-operator pipeline
// under the same model (the paper's Rheem-ML, Figure 1's "traditional"
// enumeration), once per pass.
func (f *fig9) objectEnum() {
	t0 := time.Now()
	res, err := f.h.RheemMLOptimizeWith(f.plans[fig9Obj], f.plats, f.avail, f.model)
	f.objMs = append(f.objMs, msSince(t0))
	if err == nil {
		err = res.Execution.Validate(f.avail)
	}
	if err != nil && f.objErr == nil {
		f.objErr = err
	}
}

// validate checks the executions and the Fig 9a claim: vector enumeration
// must beat object-graph enumeration at 40 operators.
func (f *fig9) validate() []error {
	var errs []error
	for n, res := range f.last {
		if res == nil {
			continue
		}
		if err := res.Execution.Validate(f.avail); err != nil {
			errs = append(errs, fmt.Errorf("Pipeline(%d): %w", fig9Sizes[n], err))
		}
	}
	if f.objErr != nil {
		errs = append(errs, fmt.Errorf("object enumeration: %w", f.objErr))
	}
	if len(f.vecMs) > 0 && len(f.objMs) > 0 {
		if v, o := median(f.vecMs), median(f.objMs); v >= o {
			errs = append(errs, fmt.Errorf("Fig 9a: vector enumeration %.3f ms does not beat object enumeration %.3f ms at 40 operators", v, o))
		}
	}
	return errs
}
