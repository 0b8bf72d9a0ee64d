// Command obsctl is the fleet observability view: it discovers the replicas
// registered in a shared -model-dir, scrapes each one's /readyz and
// /metricz, and prints the merged view. It needs only the store, not a live
// replica to ask; no replica serves this view itself.
//
//	obsctl -model-dir /var/lib/robopt/models
//	obsctl -model-dir ./models -json | jq .fleet
//
// The table shows one row per replica (readiness, model version, traffic,
// cache hit rate, peer-fill rate, shed rate, worst SLO burn) under a fleet
// summary line.
// Exit status 1 means at least one replica was unreachable or breaching its
// SLO, so the command doubles as a coarse fleet health check in scripts.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/fleet"
	"repro/internal/registry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("obsctl: ")
	var (
		modelDir    = flag.String("model-dir", "", "shared artifact store directory the fleet registers in (required)")
		ttl         = flag.Duration("ttl", registry.DefaultReplicaTTL, "registration freshness cutoff: replicas not heard from within this window are ignored")
		timeout     = flag.Duration("timeout", fleet.DefaultScrapeTimeout, "per-replica scrape timeout")
		jsonOut     = flag.Bool("json", false, "print the raw fleet view as JSON instead of the table")
		showVersion = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.String("obsctl"))
		return
	}
	if *modelDir == "" {
		log.Fatal("obsctl needs -model-dir (the store the fleet registers in)")
	}

	store, err := registry.OpenStore(*modelDir)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout+2*time.Second)
	defer cancel()
	view, err := fleet.Collect(ctx, store, *ttl, nil)
	if err != nil {
		log.Fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(view); err != nil {
			log.Fatal(err)
		}
	} else {
		printView(view)
	}
	if view.Fleet.Unreachable > 0 || view.Fleet.Breached > 0 {
		os.Exit(1)
	}
}

func printView(v fleet.View) {
	f := v.Fleet
	fmt.Printf("fleet: %d replicas (%d ready, %d unreachable, %d breaching)  versions %s  hit %.1f%%  peer %.1f%%  shed %.1f%%",
		f.Replicas, f.Ready, f.Unreachable, f.Breached,
		versionMix(f.ModelVersions), 100*f.CacheHitRate, 100*f.PeerFillRate, 100*f.ShedRate)
	if f.MaxBurnWindow != "" {
		fmt.Printf("  worst burn %.2fx@%s", f.MaxBurnRate, f.MaxBurnWindow)
	}
	fmt.Printf("  (scraped %s)\n\n", v.ScrapedAt.Format(time.RFC3339))

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "REPLICA\tADDR\tREADY\tMODEL\tREQS\tHIT%\tPEER%\tSHED%\tQUEUE\tBURN\tNOTE")
	for _, st := range v.Replicas {
		if st.Err != "" {
			fmt.Fprintf(w, "%s\t%s\tdown\t-\t-\t-\t-\t-\t-\t-\t%s\n", st.ID, st.Addr, st.Err)
			continue
		}
		ready := "yes"
		if !st.Ready {
			ready = "no"
			if st.ReadyReason != "" {
				ready = "no (" + st.ReadyReason + ")"
			}
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d\t%.1f\t%.1f\t%.1f\t%.0f\t%s\t%s\n",
			st.ID, st.Addr, ready, st.ModelVersion, st.Requests,
			100*st.CacheHitRate, 100*st.PeerFillRate, 100*st.ShedRate, st.QueueDepth,
			burnSummary(st), note(st))
	}
	w.Flush()
}

// versionMix renders the model-version histogram compactly ("v3" for a
// converged fleet, "v3:2 v4:1" mid-promotion).
func versionMix(versions map[string]int) string {
	if len(versions) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(versions))
	for v := range versions {
		keys = append(keys, v)
	}
	sort.Strings(keys)
	if len(keys) == 1 {
		return keys[0]
	}
	out := ""
	for i, v := range keys {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s:%d", v, versions[v])
	}
	return out
}

// burnSummary is the replica's worst burn-rate window, or "-" without SLO
// tracking.
func burnSummary(st fleet.ReplicaStatus) string {
	window, worst := fleet.WorstBurn(st.BurnRates)
	if window == "" {
		return "-"
	}
	return fmt.Sprintf("%.2fx@%s", worst, window)
}

func note(st fleet.ReplicaStatus) string {
	if st.Breached {
		return "SLO BREACH"
	}
	return ""
}
