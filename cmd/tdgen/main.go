// Command tdgen generates training data for the ML-based optimizer: it draws
// the training recipe's TDGen dataset (tdgen.Recipe, DESIGN.md deviation 20)
// — synthetic pipeline, juncture and loop plans plus the Table II queries,
// execution plans drawn within β platform switches, a subset run on the
// simulated cluster and the rest imputed by piecewise degree-5 polynomial
// interpolation (Section VI of the paper) — and writes the labelled plan
// vectors as CSV. -seed 0 at a size is the dataset member 0 of that size's
// model is fitted on; member i draws at 101·i.
//
// Usage:
//
//	tdgen -o train.csv                          # the full recipe
//	tdgen -size tiny -platforms 3 -o train.csv  # a small draw for plumbing
//	tdgen -seed 1 -o train.csv -append          # grow an existing dataset
//	tdgen -o all.csv -merge extra1.csv,extra2.csv
//	tdgen -o next.csv -merge fb.csv             # fold in a roboptd GET /modelz/feedback export
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/mlmodel"
	"repro/internal/platform"
	"repro/internal/simulator"
	"repro/internal/tdgen"
)

var sizeNames = map[string]tdgen.Size{"full": tdgen.SizeFull, "quick": tdgen.SizeQuick, "tiny": tdgen.SizeTiny}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it returns 2 with the usage for a command line it
// refuses, and 1 when the draw or a file fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tdgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		size     = fs.String("size", "full", "recipe size: full, quick or tiny")
		nPlats   = fs.Int("platforms", platform.NumPlatforms, "number of platforms (2-5)")
		seed     = fs.Int64("seed", 0, "recipe seed offset; member i of a trained ensemble draws at 101*i")
		out      = fs.String("o", "-", "output CSV path ('-' for stdout)")
		appendTo = fs.Bool("append", false, "merge the generated rows into an existing -o CSV instead of overwriting it")
		mergeCSV = fs.String("merge", "", "comma-separated CSVs to merge into the output as well")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	refuse := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "tdgen: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	sz, ok := sizeNames[*size]
	if !ok {
		return refuse("-size %q: want full, quick or tiny", *size)
	}
	if err := platform.CheckCount(*nPlats); err != nil {
		return refuse("-platforms: %v", err)
	}
	if *appendTo && *out == "-" {
		return refuse("-append needs an -o file to append to")
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "tdgen: %v\n", err)
		return 1
	}

	plats := platform.Subset(*nPlats)
	recipe := tdgen.Recipe{Size: sz, Platforms: plats, Avail: platform.DefaultAvailability().Restrict(plats), Cluster: simulator.Default()}
	ds, err := recipe.Dataset(*seed)
	if err != nil {
		return fail(err)
	}
	drawn := ds.Len()

	// Dataset growth: -append folds the freshly generated rows into the
	// existing output CSV, and -merge folds in further CSVs, so a training
	// set can be grown across runs (other seeds or sizes) instead of
	// regenerated. Merging enforces a consistent plan-vector width: rows from
	// a different platform universe cannot be silently mixed in.
	if *appendTo {
		if prev, err := readCSVFile(*out); err == nil {
			if err := prev.Merge(ds); err != nil {
				return fail(err)
			}
			ds = prev
		} else if !os.IsNotExist(err) {
			return fail(err)
		}
	}
	for _, path := range splitNonEmpty(*mergeCSV) {
		other, err := readCSVFile(path)
		if err != nil {
			return fail(err)
		}
		if err := ds.Merge(other); err != nil {
			return fail(fmt.Errorf("merging %s: %w", path, err))
		}
	}

	if *out == "-" {
		err = tdgen.WriteCSV(stdout, ds)
	} else {
		err = writeCSVFile(*out, ds)
	}
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "generated %d rows (%s draw, seed offset %d; %d rows merged in)\n", drawn, *size, *seed, ds.Len()-drawn)
	return 0
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

// writeCSVFile writes ds to path, replacing what was there.
func writeCSVFile(path string, ds *mlmodel.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tdgen.WriteCSV(f, ds); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
