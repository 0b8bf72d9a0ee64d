// Command tdgen generates training data for the ML-based optimizer: it
// creates synthetic query plans of the requested shapes, enumerates
// execution plans with the platform-switch pruning, runs a subset on the
// simulated cluster, imputes the rest by piecewise degree-5 polynomial
// interpolation (Section VI of the paper), and writes the labelled plan
// vectors as CSV.
//
// Usage:
//
//	tdgen -shapes pipeline,juncture,loop -max-ops 50 -templates 16 -o train.csv
//	tdgen -seed 2021 -o train.csv -append       # grow an existing dataset
//	tdgen -o all.csv -merge extra1.csv,extra2.csv
//	tdgen -o next.csv -merge fb.csv             # fold in a roboptd GET /modelz/feedback export
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/mlmodel"
	"repro/internal/platform"
	"repro/internal/simulator"
	"repro/internal/tdgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tdgen: ")
	var (
		shapesFlag = flag.String("shapes", "pipeline,juncture,loop", "comma-separated plan shapes (pipeline,juncture,replicate,loop)")
		maxOps     = flag.Int("max-ops", 50, "maximum operators per synthetic plan")
		templates  = flag.Int("templates", 16, "templates per shape")
		plansPer   = flag.Int("plans", 12, "execution plans kept per template")
		profiles   = flag.Int("profiles", 10, "input-cardinality profiles per plan")
		beta       = flag.Int("beta", 3, "platform-switch pruning threshold")
		nPlats     = flag.Int("platforms", platform.NumPlatforms, "number of platforms (2-5)")
		seed       = flag.Int64("seed", 2020, "generation seed")
		out        = flag.String("o", "-", "output CSV path ('-' for stdout)")
		appendTo   = flag.Bool("append", false, "merge the generated rows into an existing -o CSV instead of overwriting it")
		mergeCSV   = flag.String("merge", "", "comma-separated CSVs to merge into the output as well")
	)
	flag.Parse()
	if err := platform.CheckCount(*nPlats); err != nil {
		log.Printf("-platforms: %v", err)
		flag.Usage()
		os.Exit(2)
	}

	var shapes []tdgen.Shape
	for _, name := range strings.Split(*shapesFlag, ",") {
		s, err := tdgen.ShapeByName(strings.TrimSpace(name))
		if err != nil {
			log.Fatal(err)
		}
		shapes = append(shapes, s)
	}
	plats := platform.Subset(*nPlats)
	cfg := tdgen.Config{
		Shapes:            shapes,
		MaxOps:            *maxOps,
		TemplatesPerShape: *templates,
		PlansPerTemplate:  *plansPer,
		Profiles:          *profiles,
		Beta:              *beta,
		Platforms:         plats,
		Avail:             platform.DefaultAvailability().Restrict(plats),
		CardMax:           1e10,
		Seed:              *seed,
	}
	ds, rep, err := tdgen.New(cfg, simulator.Default()).Generate()
	if err != nil {
		log.Fatal(err)
	}

	// Dataset growth: -append folds the freshly generated rows into an
	// existing output CSV, and -merge folds in further CSVs — so a training
	// set can be grown incrementally across runs (different seeds, shapes or
	// platform mixes) instead of regenerated from scratch. Merging enforces
	// a consistent plan-vector width: rows from a different platform
	// universe cannot be silently mixed in.
	merged := 0
	if *appendTo && *out != "-" {
		if prev, err := readCSVFile(*out); err == nil {
			if err := prev.Merge(ds); err != nil {
				log.Fatal(err)
			}
			merged += prev.Len() - ds.Len()
			ds = prev
		} else if !os.IsNotExist(err) {
			log.Fatal(err)
		}
	}
	for _, path := range splitNonEmpty(*mergeCSV) {
		other, err := readCSVFile(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := ds.Merge(other); err != nil {
			log.Fatalf("merging %s: %v", path, err)
		}
		merged += other.Len()
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	if err := tdgen.WriteCSV(w, ds); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "generated %d rows (%d logical plans, %d execution plans, %d executed, %d imputed, %d failed, %d subplan rows; %d rows merged in)\n",
		ds.Len()-merged, rep.LogicalPlans, rep.ExecutionPlans, rep.Executed, rep.Imputed, rep.Failed, rep.SubplanRows, merged)
}

// readCSVFile loads one labelled training CSV.
func readCSVFile(path string) (*mlmodel.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return tdgen.ReadCSV(f)
}

// splitNonEmpty splits a comma-separated list, dropping empty entries.
func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
