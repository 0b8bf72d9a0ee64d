// Command robopt optimizes a logical plan: it reads a JSON plan, trains (or
// loads) an ML model, runs the vector-based priority enumeration, and prints
// the chosen execution plan with its LOT/COT tables and the simulated
// runtime.
//
// Usage:
//
//	robopt -plan query.json                # multi-platform optimization
//	robopt -plan query.json -mode single   # best single platform
//	robopt -plan query.json -train train.csv
//
// Without -train, a model is trained on the fly from TDGen data (the paper's
// zero-tuning workflow); with -train, the model is fitted on the given CSV
// (as produced by the tdgen command). -save-model writes a versioned model
// artifact (schema width, platform set, holdout metrics, content hash) that
// roboptd serves directly, and -model loads one.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/mlmodel"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/registry"
	"repro/internal/simulator"
	"repro/internal/tdgen"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("robopt: ")
	var (
		planPath  = flag.String("plan", "", "path to the JSON logical plan (required)")
		mode      = flag.String("mode", "multi", "execution mode: multi or single")
		trainCSV  = flag.String("train", "", "training data CSV (optional; otherwise TDGen runs)")
		modelPath = flag.String("model", "", "load a previously saved model instead of training")
		saveModel = flag.String("save-model", "", "save the trained model to this path")
		nPlats    = flag.Int("platforms", platform.NumPlatforms, "number of platforms (2-5)")
		simulate  = flag.Bool("simulate", true, "also run the chosen plan on the simulated cluster")
		verbose   = flag.Bool("v", false, "print the LOT/COT tables and per-stage timings")
		dotPath   = flag.String("dot", "", "write the chosen execution plan as Graphviz DOT to this path")
		deadline  = flag.Duration("deadline", 0, "abort the optimization after this long (0 = none); combine with -budget-* to degrade instead")
		budgetVec = flag.Int("budget-vectors", 0, "degrade after materializing this many plan vectors (0 = unlimited)")
		budgetMC  = flag.Int("budget-model-calls", 0, "degrade after this many cost-oracle feature rows (0 = unlimited)")
		workers   = flag.Int("workers", 0, "enumeration parallelism (0 = all CPUs; plans are identical for any value)")
		riskL     = flag.Float64("risk-lambda", 0, "risk aversion λ: score plans by mean + λ·spread and keep near-ties with overlapping prediction intervals (0 = point-estimate optimization; multi mode only)")
		example   = flag.Bool("print-example-plan", false, "print the paper's running-example logical plan as JSON and exit")
		explain   = flag.String("explain", "", "trace the optimization and print an explanation report: text or json (multi mode only)")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logFormat = flag.String("log-format", "text", "log format: text or json")
		version   = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if err := platform.CheckCount(*nPlats); err != nil {
		log.Printf("-platforms: %v", err)
		flag.Usage()
		os.Exit(2)
	}
	if *version {
		fmt.Println(buildinfo.String("robopt"))
		fmt.Printf("workers: %d (from -workers %d; 0 resolves to runtime.GOMAXPROCS)\n",
			core.ResolveWorkers(*workers), *workers)
		return
	}
	if *explain != "" && *explain != "text" && *explain != "json" {
		log.Fatalf("-explain must be text or json, got %q", *explain)
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat, "robopt")
	if err != nil {
		log.Fatal(err)
	}
	if *example {
		data, err := plan.MarshalJSONPlan(workload.RunningExample())
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(data)
		return
	}
	if *planPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*planPath)
	if err != nil {
		log.Fatal(err)
	}
	l, err := plan.UnmarshalJSONPlan(f)
	if closeErr := f.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		log.Fatal(err)
	}

	plats := platform.Subset(*nPlats)
	avail := platform.DefaultAvailability().Restrict(plats)

	schema, err := core.NewSchema(plats)
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, len(plats))
	for i, p := range plats {
		names[i] = p.String()
	}

	// The model travels as a versioned artifact, validated against the
	// configured platform universe before it scores anything.
	var model mlmodel.Model
	trainRows := 0
	var holdout mlmodel.Metrics
	if *modelPath != "" {
		mf, err := os.Open(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		art, err := registry.Read(mf)
		if closeErr := mf.Close(); err == nil {
			err = closeErr
		}
		if err != nil {
			log.Fatal(err)
		}
		if err := art.Validate(schema.Len(), len(plats)); err != nil {
			log.Fatal(err)
		}
		model = art.Model
	} else if *trainCSV != "" {
		tf, err := os.Open(*trainCSV)
		if err != nil {
			log.Fatal(err)
		}
		ds, err := tdgen.ReadCSV(tf)
		if closeErr := tf.Close(); err == nil {
			err = closeErr
		}
		if err != nil {
			log.Fatal(err)
		}
		// Hold out a slice so the saved artifact records honest metrics.
		train, hold := ds.Split(0.15, 7)
		if model, err = tdgen.SizeFull.Fit(train, 0); err != nil {
			log.Fatal(err)
		}
		trainRows = train.Len()
		if hold.Len() > 0 {
			holdout = mlmodel.Evaluate(model, hold)
			logger.Info("model trained", "rows", train.Len(), "holdoutMAE", holdout.MAE, "holdoutRows", hold.Len())
		}
	} else {
		logger.Info("no -train or -model given; generating training data and fitting a model (one-time)")
		recipe := tdgen.Recipe{Platforms: plats, Avail: avail, Cluster: simulator.Default()}
		if model, trainRows, err = recipe.Train(); err != nil {
			log.Fatal(err)
		}
	}
	if *saveModel != "" {
		art, err := registry.New(model, schema.Len(), names, trainRows, holdout)
		if err != nil {
			log.Fatal(err)
		}
		mf, err := os.Create(*saveModel)
		if err != nil {
			log.Fatal(err)
		}
		err = art.Write(mf)
		if closeErr := mf.Close(); err == nil {
			err = closeErr
		}
		if err != nil {
			log.Fatal(err)
		}
		logger.Info("model artifact saved", "path", *saveModel, "family", art.Family, "width", art.FeatureWidth)
	}

	runCtx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, *deadline)
		defer cancel()
	}

	var x *plan.Execution
	switch *mode {
	case "multi":
		ctx, err := core.NewContext(l, plats, avail)
		if err != nil {
			log.Fatal(err)
		}
		ctx.Workers = core.ResolveWorkers(*workers)
		ctx.Budget = core.Budget{MaxVectors: *budgetVec, MaxModelCalls: *budgetMC}
		if *riskL < 0 {
			log.Fatalf("-risk-lambda must be >= 0, got %g", *riskL)
		}
		if *riskL != 0 {
			ctx.Risk = core.Risk{Lambda: *riskL, KeepOverlap: true}
		}
		if *deadline > 0 {
			// Degrade before the hard deadline so -deadline alone still
			// yields a plan when the enumeration is too large.
			ctx.Budget.SoftDeadline = *deadline * 4 / 5
		}
		if *explain != "" {
			// A one-shot trace turns on the run's pruning audit, the raw
			// material of the explanation report.
			ctx.Trace = obs.NewTrace("robopt")
		}
		res, err := ctx.Optimize(runCtx, model)
		if err != nil {
			log.Fatal(err)
		}
		ctx.Trace.End()
		x = res.Execution
		if d := res.PredictedDist; d.Spread != 0 {
			fmt.Printf("predicted runtime: %.2fs (90%% interval [%.2f, %.2f]s, spread %.2gs)\n",
				res.Predicted, d.Lo, d.Hi, d.Spread)
		} else {
			fmt.Printf("predicted runtime: %.2fs\n", res.Predicted)
		}
		if res.Risk.Lambda != 0 {
			fmt.Printf("risk-aware selection: λ=%g, %d near-tie vectors kept by overlap pruning\n",
				res.Risk.Lambda, res.Stats.IntervalKept)
		}
		fmt.Printf("enumeration stats: %d vectors, %d merges, %d model rows in %d batches (%d memo hits), %d pruned\n",
			res.Stats.VectorsCreated, res.Stats.Merges, res.Stats.ModelRows,
			res.Stats.ModelBatches, res.Stats.MemoHits, res.Stats.Pruned)
		if res.Degraded {
			fmt.Printf("note: budget exhausted (%s); plan is best-effort, not enumeration-optimal\n",
				res.Stats.DegradeReason)
		}
		if *verbose {
			t := res.Stats.Timings
			fmt.Printf("stage timings: vectorize=%v enumerate=%v merge=%v prune=%v unvectorize=%v (infer=%v)\n",
				t.Vectorize.Round(time.Microsecond), t.Enumerate.Round(time.Microsecond),
				t.Merge.Round(time.Microsecond), t.Prune.Round(time.Microsecond),
				t.Unvectorize.Round(time.Microsecond), t.Infer.Round(time.Microsecond))
		}
		if *explain != "" {
			ex, err := res.Explain()
			if err != nil {
				log.Fatal(err)
			}
			if *explain == "json" {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				if err := enc.Encode(ex); err != nil {
					log.Fatal(err)
				}
			} else {
				fmt.Print(ex.String())
			}
		}
	case "single":
		if *explain != "" {
			logger.Warn("-explain only applies to -mode multi; ignoring")
		}
		ctx, err := core.NewContext(l, plats, avail)
		if err != nil {
			log.Fatal(err)
		}
		var p platform.ID
		p, x, _, err = ctx.CheapestAllOn(model, plats)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("chosen platform: %s\n", p)
	default:
		log.Fatalf("unknown -mode %q (want multi or single)", *mode)
	}

	fmt.Printf("execution plan (%s):\n%s", x.PlatformLabel(), x)
	if *verbose {
		fmt.Print(x.FormatTables())
	}
	if *dotPath != "" {
		if err := os.WriteFile(*dotPath, []byte(x.ToDOT("execution-plan")), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "robopt: DOT written to %s\n", *dotPath)
	}
	if *simulate {
		r := simulator.Default().Run(x)
		fmt.Printf("simulated runtime: %s\n", r.Label())
	}
}
