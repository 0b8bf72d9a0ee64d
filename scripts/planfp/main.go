// Command planfp prints the plan-cache fingerprint a roboptd replica files a
// JSON logical plan under — the fp= of its GET /peercache — so a script can
// fetch the entry a replica holds for a plan it sent:
//
//	go run ./scripts/planfp -platforms 3 < plan.json
//
// It fingerprints the way roboptd does: the first -platforms platforms, the
// default availability matrix restricted to them, the cache's banding.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/platform"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("planfp: ")
	nPlats := flag.Int("platforms", platform.NumPlatforms, "number of platforms (2-5), as given to roboptd")
	flag.Parse()
	body, err := io.ReadAll(os.Stdin)
	if err != nil {
		log.Fatal(err)
	}
	l, err := plan.DecodeJSONPlan(body)
	if err != nil {
		log.Fatal(err)
	}
	plats := platform.Subset(*nPlats)
	fp, _, err := plancache.Compute(l, plats, platform.DefaultAvailability().Restrict(plats), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fp)
}
