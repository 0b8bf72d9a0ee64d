// Command benchharness regenerates the tables and figures of the paper's
// evaluation (Section VII) and prints them as aligned text tables on stdout
// (timings go to stderr, so the deterministic experiments print the same
// bytes every run). Use -exp to select experiments; -h lists their ids:
//
//	benchharness -exp all
//	benchharness -exp fig1,table1,fig9a
//	benchharness -quick -exp fig11     # fast, lower-quality model
//	benchharness -exp all -csv out     # also one CSV per experiment
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchharness: ")
	all := experiments.All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	var (
		expFlag = flag.String("exp", "all", "comma-separated experiment ids, or 'all': "+strings.Join(ids, ", "))
		quick   = flag.Bool("quick", false, "train a small model (fast, less faithful)")
		csvDir  = flag.String("csv", "", "also write each experiment's table as <id>.csv into this directory")
		workers = flag.Int("workers", 0, "enumeration parallelism for the Robopt runs (0 = all CPUs; results are worker-count invariant)")
	)
	flag.Parse()

	want := ids
	if *expFlag != "all" {
		want = strings.Split(*expFlag, ",")
		for i, id := range want {
			want[i] = strings.TrimSpace(id)
			if !slices.Contains(ids, want[i]) {
				log.Fatalf("unknown experiment %q (have %s)", want[i], strings.Join(ids, ", "))
			}
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	h := experiments.NewHarness()
	h.Quick = *quick
	h.Workers = core.ResolveWorkers(*workers)
	for _, e := range all {
		if !slices.Contains(want, e.ID) {
			continue
		}
		start := time.Now()
		t, err := e.Run(h)
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		log.Printf("%s generated in %v", e.ID, time.Since(start).Round(time.Millisecond))
		if err := t.WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		if *csvDir == "" {
			continue
		}
		f, err := os.Create(filepath.Join(*csvDir, e.ID+".csv"))
		if err != nil {
			log.Fatal(err)
		}
		err = t.WriteCSV(f)
		if closeErr := f.Close(); err == nil {
			err = closeErr
		}
		if err != nil {
			log.Fatalf("%s: writing CSV: %v", e.ID, err)
		}
	}
}
