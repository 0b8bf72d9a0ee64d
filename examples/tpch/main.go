// TPC-H example: optimize the scan-heavy aggregation query Q1 and the
// three-way join Q3 across dataset sizes, in both single- and
// multi-platform mode, and compare the optimizer's choices against running
// each query entirely on each platform — the experiment style of Fig. 11.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	fmt.Println("training the ML model...")
	opt, err := robopt.Train(robopt.QuickTraining())
	if err != nil {
		log.Fatal(err)
	}
	cluster := robopt.DefaultCluster()
	avail := robopt.DefaultAvailability()

	queries := []struct {
		name  string
		build func(bytes float64) *robopt.Plan
		sizes []float64
	}{
		{"TPC-H Q1 (Aggregate)", workload.Aggregate, []float64{1e9, 10e9, 100e9}},
		{"TPC-H Q3 (Join)", workload.Join, []float64{1e9, 10e9, 100e9}},
	}

	for _, q := range queries {
		fmt.Printf("\n=== %s ===\n", q.name)
		for _, bytes := range q.sizes {
			plan := q.build(bytes)
			fmt.Printf("%6.0fGB:", bytes/1e9)
			for _, p := range []robopt.Platform{robopt.Java, robopt.Spark, robopt.Flink} {
				r, err := cluster.RunAllOn(plan, p, avail)
				if err != nil {
					fmt.Printf("  %s=n/a", p)
					continue
				}
				fmt.Printf("  %s=%s", p, r.Label())
			}
			single, err := opt.OptimizeSinglePlatform(plan)
			if err != nil {
				log.Fatal(err)
			}
			multi, err := opt.Optimize(plan)
			if err != nil {
				log.Fatal(err)
			}
			rs := cluster.Run(single.Execution)
			rm := cluster.Run(multi.Execution)
			fmt.Printf("  | robopt-single=%s (%s)  robopt-multi=%s (%s)\n",
				rs.Label(), single.Execution.PlatformLabel(),
				rm.Label(), multi.Execution.PlatformLabel())
		}
	}

	// The Fig. 13 scenario: the TPC-H tables reside in Postgres, so the
	// scans must run there; the optimizer decides how much more of the
	// query to push down before moving the data to a parallel engine.
	fmt.Println("\n=== Q3 with tables resident in Postgres (Fig. 13) ===")
	pgAvail := robopt.DefaultAvailability().Only(robopt.TableSource, robopt.Postgres)
	pgOpts := robopt.QuickTraining()
	pgOpts.Avail = pgAvail
	pgOpt, err := robopt.Train(pgOpts)
	if err != nil {
		log.Fatal(err)
	}
	for _, gb := range []float64{10, 100} {
		plan := workload.Join(gb * 1e9)
		allPg, err := cluster.RunAllOn(plan, robopt.Postgres, pgAvail)
		if err != nil {
			log.Fatal(err)
		}
		res, err := pgOpt.Optimize(plan)
		if err != nil {
			log.Fatal(err)
		}
		r := cluster.Run(res.Execution)
		fmt.Printf("%6.0fGB: all-Postgres=%s  robopt=%s (%s)\n",
			gb, allPg.Label(), r.Label(), res.Execution.PlatformLabel())
	}
}
