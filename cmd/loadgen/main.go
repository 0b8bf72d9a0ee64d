// Command loadgen drives sustained mixed traffic against one or more
// roboptd replicas and writes a BENCH_serving.json summary — the harness
// behind the serving-layer numbers in EXPERIMENTS.md.
//
//	loadgen -replicas http://localhost:8080,http://localhost:8081 \
//	        -rate 100 -duration 30s -out BENCH_serving.json
//
// Arrivals are open-loop: requests start at -rate per second regardless of
// how fast responses come back, so server-side admission control is
// actually exercised — a closed-loop client would self-throttle and never
// see a 429. Requests round-robin across -replicas, and each response's
// model version is tallied, so promoting a model on one replica mid-run
// shows up as the fleet's version mix shifting.
//
// The plan mix cycles through a weighted set of workload shapes
// (-mix name=weight,...): "example" (the paper's running example),
// "pipeline", "jointree" and "random". Random plans are drawn from
// -distinct seeds, which controls how much the plan cache can help; the
// other shapes are structurally constant and cache-hot after one request
// each per model version.
//
// With -peer-compare, the same workload runs twice against a peer-fill
// fleet: once with the shared cache tier bypassed per request (?nopeer=1)
// and once with it active, purging every replica's plan cache before each
// phase so both start cold. The two phase summaries land side by side
// under "peerCompare" in the output, and each phase tallies the X-Cache
// disposition of every response — "peer" counts plans installed from
// another replica's cache instead of re-enumerated. Both phases replay the
// identical seeded request sequence, so the only variable is the tier.
//
// Every request carries a client-minted W3C traceparent (sampled when
// -trace-force is set), so the -slowest report and the "slowestRequests"
// section of the summary name trace IDs retrievable from the server via
// /tracez?id= — the p99-chasing loop in EXPERIMENTS.md. With -slo, the run
// ends by scraping each replica's /sloz and exits 1 on any breach (or
// unreachable/SLO-less replica); -slo-latency-ms with -slo-target adds a
// client-side assertion over this run's own latencies.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		replicasF   = flag.String("replicas", "http://localhost:8080", "comma-separated replica base URLs; requests round-robin across them")
		rate        = flag.Float64("rate", 50, "open-loop arrival rate, requests per second")
		duration    = flag.Duration("duration", 30*time.Second, "how long to offer load")
		mixF        = flag.String("mix", "example=2,pipeline=1,jointree=1,random=2", "weighted plan mix: name=weight[,name=weight...]; names: example, pipeline, jointree, random")
		distinct    = flag.Int("distinct", 16, "distinct random-plan variants (higher = colder plan cache)")
		deadlineMS  = flag.Int("deadline-ms", 0, "per-request ?deadline_ms= (0 = server default)")
		riskLambda  = flag.Float64("risk-lambda", 0, "per-request ?risk_lambda=")
		maxInflight = flag.Int("max-inflight", 512, "client-side cap on in-flight requests; arrivals beyond it are counted as skipped, not sent")
		timeout     = flag.Duration("timeout", 60*time.Second, "per-request client timeout")
		outPath     = flag.String("out", "BENCH_serving.json", "write the JSON summary here")
		seed        = flag.Int64("seed", 1, "seed for the plan mix and random plans")
		traceForce  = flag.Bool("trace-force", false, "set the traceparent sampled flag, forcing the server to retain every request's trace")
		slowestN    = flag.Int("slowest", 8, "how many of the slowest requests to report with their trace IDs (0 disables)")
		peerCompare = flag.Bool("peer-compare", false, "run the workload twice — peer-fill bypassed (?nopeer=1) then active — purging caches before each phase, and report both summaries")
		sloAssert   = flag.Bool("slo", false, "after the run, scrape each replica's /sloz and exit 1 if any reports an SLO breach")
		sloLatency  = flag.Float64("slo-latency-ms", 0, "client-side SLO assertion: with -slo-target, exit 1 unless this fraction of sent requests completed OK within this latency")
		sloTarget   = flag.Float64("slo-target", 0, "client-side SLO assertion target fraction (see -slo-latency-ms)")
		showVersion = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.String("loadgen"))
		return
	}
	replicas := strings.Split(*replicasF, ",")
	for i := range replicas {
		replicas[i] = strings.TrimRight(strings.TrimSpace(replicas[i]), "/")
	}
	if len(replicas) == 0 || replicas[0] == "" {
		log.Fatal("-replicas must name at least one base URL")
	}
	if *rate <= 0 {
		log.Fatal("-rate must be positive")
	}

	bodies, names, err := planMix(*mixF, *distinct, *seed)
	if err != nil {
		log.Fatal(err)
	}
	query := url(*deadlineMS, *riskLambda)

	client := &http.Client{Timeout: *timeout}
	cfg := runConfig{
		replicas:    replicas,
		rate:        *rate,
		duration:    *duration,
		bodies:      bodies,
		query:       query,
		maxInflight: *maxInflight,
		seed:        *seed,
		traceForce:  *traceForce,
		slowestN:    *slowestN,
		client:      client,
	}
	configSection := map[string]any{
		"replicas":    replicas,
		"rateRps":     *rate,
		"durationMs":  duration.Milliseconds(),
		"mix":         names,
		"distinct":    *distinct,
		"deadlineMs":  *deadlineMS,
		"riskLambda":  *riskLambda,
		"seed":        *seed,
		"peerCompare": *peerCompare,
	}

	var summary map[string]any
	var res runResult
	failed := false
	if *peerCompare {
		// Same seed, same request sequence, cold cache both times: the only
		// difference between the phases is whether a miss may be served by a
		// peer instead of a local enumeration.
		offCfg := cfg
		offCfg.query = addParam(query, "nopeer=1")
		purgeCaches(client, replicas)
		log.Printf("peer-compare phase 1/2: peer-fill bypassed (?nopeer=1)")
		off := run(offCfg)
		purgeCaches(client, replicas)
		log.Printf("peer-compare phase 2/2: peer-fill active")
		on := run(cfg)
		res = on
		summary = map[string]any{
			"config": configSection,
			"peerCompare": map[string]any{
				"off": off.summary,
				"on":  on.summary,
			},
		}
		log.Printf("peer-compare: enumerations %d -> %d, peer-served %d (%.0f%% of ok), p99 %.1fms -> %.1fms",
			off.cache["miss"], on.cache["miss"], on.cache["peer"],
			100*rate3(on.cache["peer"], on.ok),
			percentile(off.latencies, 0.99), percentile(on.latencies, 0.99))
		failed = off.ok == 0 || on.ok == 0
	} else {
		res = run(cfg)
		summary = res.summary
		summary["config"] = configSection
		failed = res.ok == 0
	}
	if *sloAssert {
		summary["sloz"] = scrapeSloz(client, replicas)
	}
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("summary -> %s", *outPath)
	for _, s := range res.slowest {
		log.Printf("slow: %.1fms trace %s (%s/tracez?id=%s)%s",
			s.Ms, s.TraceID, s.Replica, s.TraceID, cacheNote(s.Cache))
	}

	// SLO assertions: the server-side verdict comes from each replica's
	// multi-window burn tracker via /sloz; the client-side one from this
	// run's own latency observations (the peer-on phase under -peer-compare).
	if *sloAssert {
		for _, sz := range scrapeSloz(client, replicas) {
			switch {
			case sz.Err != "":
				log.Printf("slo: %s unreachable: %s", sz.Replica, sz.Err)
				failed = true
			case !sz.Enabled:
				log.Printf("slo: %s has no SLO configured (roboptd -slo-latency-ms)", sz.Replica)
				failed = true
			case sz.Breached:
				log.Printf("slo: BREACH on %s (objective %.0fms target %.3f): %s",
					sz.Replica, sz.ObjectiveMs, sz.Target, burnString(sz.Windows))
				failed = true
			default:
				log.Printf("slo: %s ok: %s", sz.Replica, burnString(sz.Windows))
			}
		}
	}
	if *sloLatency > 0 && *sloTarget > 0 {
		within := int64(0)
		for _, ms := range res.latencies {
			if ms <= *sloLatency {
				within++
			}
		}
		achieved := 0.0
		if res.sent > 0 {
			achieved = float64(within) / float64(res.sent)
		}
		if achieved < *sloTarget {
			log.Printf("slo: CLIENT BREACH: %.4f of sent requests completed within %.0fms, target %.4f",
				achieved, *sloLatency, *sloTarget)
			failed = true
		} else {
			log.Printf("slo: client-side ok: %.4f within %.0fms (target %.4f)", achieved, *sloLatency, *sloTarget)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runConfig parameterizes one open-loop load phase.
type runConfig struct {
	replicas    []string
	rate        float64
	duration    time.Duration
	bodies      [][]byte
	query       string
	maxInflight int
	seed        int64
	traceForce  bool
	slowestN    int
	client      *http.Client
}

// runResult carries one phase's summary plus the raw tallies the caller
// needs for logging, comparison and SLO assertions.
type runResult struct {
	summary   map[string]any
	latencies []float64
	cache     map[string]int64
	sent      int64
	ok        int64
	slowest   []slowRequest
}

// run offers the configured load and tallies the responses. Each call
// reseeds from cfg.seed, so two runs with the same config replay the same
// request sequence.
func run(cfg runConfig) runResult {
	var (
		mu        sync.Mutex
		latencies []float64
		status    = map[int]int64{}
		cache     = map[string]int64{}
		versions  = map[string]int64{}
		byReplica = make([]int64, len(cfg.replicas))
		shed      int64
		degraded  int64
		transport int64
		slowest   []slowRequest
	)
	var inflight atomic.Int64
	var offered, skipped int64
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(cfg.seed))

	log.Printf("offering %.0f req/s for %v across %d replica(s), %d plan shapes",
		cfg.rate, cfg.duration, len(cfg.replicas), len(cfg.bodies))
	interval := time.Duration(float64(time.Second) / cfg.rate)
	ticker := time.NewTicker(interval)
	stop := time.After(cfg.duration)
	start := time.Now()

loop:
	for {
		select {
		case <-stop:
			break loop
		case <-ticker.C:
			offered++
			if inflight.Load() >= int64(cfg.maxInflight) {
				skipped++
				continue
			}
			i := int(offered)
			body := cfg.bodies[rng.Intn(len(cfg.bodies))]
			target := cfg.replicas[i%len(cfg.replicas)]
			// Every request carries a W3C traceparent minted here, so any
			// server-retained trace is addressable by an ID the client knows
			// — the slowest-request report below links straight to
			// /tracez?id=. (rng is only touched on this dispatch goroutine.)
			traceID := fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64())
			header := obs.TraceParent{
				TraceID:  traceID,
				ParentID: fmt.Sprintf("%016x", rng.Uint64()),
				Sampled:  cfg.traceForce,
			}.String()
			inflight.Add(1)
			wg.Add(1)
			go func(replica int, target string, body []byte, traceID, header string) {
				defer wg.Done()
				defer inflight.Add(-1)
				t0 := time.Now()
				req, err := http.NewRequest(http.MethodPost, target+"/optimize"+cfg.query, bytes.NewReader(body))
				if err != nil {
					mu.Lock()
					transport++
					mu.Unlock()
					return
				}
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("traceparent", header)
				resp, err := cfg.client.Do(req)
				ms := float64(time.Since(t0).Microseconds()) / 1000
				if err != nil {
					mu.Lock()
					transport++
					mu.Unlock()
					return
				}
				var or struct {
					ModelVersion  string `json:"modelVersion"`
					Degraded      bool   `json:"degraded"`
					DegradeReason string `json:"degradeReason"`
				}
				_ = json.NewDecoder(resp.Body).Decode(&or)
				resp.Body.Close()
				mu.Lock()
				status[resp.StatusCode]++
				byReplica[replica]++
				if resp.StatusCode == http.StatusOK {
					latencies = append(latencies, ms)
					if c := resp.Header.Get("X-Cache"); c != "" {
						cache[c]++
					}
					if or.ModelVersion != "" {
						versions[or.ModelVersion]++
					}
					if or.Degraded {
						degraded++
					}
					if or.DegradeReason == "load-shed" {
						shed++
					}
					if cfg.slowestN > 0 {
						slowest = recordSlowest(slowest, cfg.slowestN, slowRequest{
							Ms:      ms,
							TraceID: traceID,
							Replica: target,
							Cache:   resp.Header.Get("X-Cache"),
						})
					}
				}
				mu.Unlock()
			}(i%len(cfg.replicas), target, body, traceID, header)
		}
	}
	ticker.Stop()
	wg.Wait()
	elapsed := time.Since(start)

	mu.Lock()
	defer mu.Unlock()
	ok := status[http.StatusOK]
	var rejected int64
	for code, n := range status {
		if code == http.StatusTooManyRequests {
			rejected += n
		}
	}
	sent := offered - skipped
	summary := map[string]any{
		"offered":         offered,
		"sent":            sent,
		"skippedInflight": skipped,
		"transportErrors": transport,
		"status":          statusKeys(status),
		"ok":              ok,
		"rejected429":     rejected,
		"throughputRps":   float64(ok) / elapsed.Seconds(),
		"latencyMs": map[string]any{
			"p50": percentile(latencies, 0.50),
			"p90": percentile(latencies, 0.90),
			"p99": percentile(latencies, 0.99),
			"max": percentile(latencies, 1),
		},
		"cache":        cache,
		"cacheHitRate": rate3(cache["hit"]+cache["collapsed"], ok),
		// peerFillRate is the share of OK responses served from a peer's
		// cache over the fleet-shared tier (X-Cache: peer).
		"peerFillRate":  rate3(cache["peer"], ok),
		"degraded":      degraded,
		"degradedRate":  rate3(degraded, ok),
		"shed":          shed,
		"shedRate":      rate3(shed, ok),
		"rejectedRate":  rate3(rejected, sent),
		"modelVersions": versions,
		"perReplica":    byReplica,
	}
	if cfg.slowestN > 0 {
		sort.Slice(slowest, func(i, j int) bool { return slowest[i].Ms > slowest[j].Ms })
		summary["slowestRequests"] = slowest
	}
	log.Printf("done: %d ok / %d sent (%.1f req/s), p50 %.1fms p99 %.1fms, cache-hit %.0f%%, peer %d, shed %d, 429 %d",
		ok, sent, float64(ok)/elapsed.Seconds(),
		percentile(latencies, 0.5), percentile(latencies, 0.99),
		100*rate3(cache["hit"]+cache["collapsed"], ok), cache["peer"], shed, rejected)
	return runResult{
		summary:   summary,
		latencies: latencies,
		cache:     cache,
		sent:      sent,
		ok:        ok,
		slowest:   slowest,
	}
}

// purgeCaches empties every replica's plan cache so a compare phase starts
// cold. A failed purge is reported, not fatal: a replica without a cache
// answers 409 and contributes nothing to the comparison anyway.
func purgeCaches(client *http.Client, replicas []string) {
	for _, base := range replicas {
		resp, err := client.Post(base+"/cachez/purge", "application/json", nil)
		if err != nil {
			log.Printf("purge %s: %v", base, err)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Printf("purge %s: status %d", base, resp.StatusCode)
		}
	}
}

// addParam appends one query parameter to an already-rendered query string.
func addParam(query, param string) string {
	if query == "" {
		return "?" + param
	}
	return query + "&" + param
}

// slowRequest is one of the run's slowest OK responses, with the trace ID
// the request propagated — the handle for /tracez?id= exemplar chasing.
type slowRequest struct {
	Ms      float64 `json:"ms"`
	TraceID string  `json:"traceId"`
	Replica string  `json:"replica"`
	Cache   string  `json:"cache,omitempty"`
}

// recordSlowest keeps the n slowest requests (unordered; sorted at report
// time). Linear replacement of the current minimum — n is small.
func recordSlowest(have []slowRequest, n int, r slowRequest) []slowRequest {
	if len(have) < n {
		return append(have, r)
	}
	minIdx := 0
	for i := 1; i < len(have); i++ {
		if have[i].Ms < have[minIdx].Ms {
			minIdx = i
		}
	}
	if r.Ms > have[minIdx].Ms {
		have[minIdx] = r
	}
	return have
}

func cacheNote(c string) string {
	if c == "" {
		return ""
	}
	return " cache=" + c
}

// slozResult is one replica's /sloz reply, tagged with its origin.
type slozResult struct {
	Replica     string       `json:"replica"`
	Err         string       `json:"err,omitempty"`
	Enabled     bool         `json:"enabled"`
	ObjectiveMs float64      `json:"objectiveMs"`
	Target      float64      `json:"target"`
	Breached    bool         `json:"breached"`
	Windows     []slozWindow `json:"windows,omitempty"`
}

type slozWindow struct {
	Window   string  `json:"window"`
	Total    int64   `json:"total"`
	BurnRate float64 `json:"burnRate"`
}

// scrapeSloz reads every replica's SLO state after the run.
func scrapeSloz(client *http.Client, replicas []string) []slozResult {
	out := make([]slozResult, 0, len(replicas))
	for _, base := range replicas {
		sz := slozResult{Replica: base}
		resp, err := client.Get(base + "/sloz")
		if err != nil {
			sz.Err = err.Error()
			out = append(out, sz)
			continue
		}
		if err := json.NewDecoder(resp.Body).Decode(&sz); err != nil {
			sz.Err = err.Error()
		}
		resp.Body.Close()
		out = append(out, sz)
	}
	return out
}

// burnString renders the window burn rates compactly for the log line.
func burnString(windows []slozWindow) string {
	parts := make([]string, 0, len(windows))
	for _, w := range windows {
		parts = append(parts, fmt.Sprintf("%s %.2fx/%d", w.Window, w.BurnRate, w.Total))
	}
	if len(parts) == 0 {
		return "no windows"
	}
	return strings.Join(parts, ", ")
}

// planMix parses "name=weight,..." into a weighted pool of marshaled plan
// bodies. Random plans expand into `distinct` seeded variants sharing the
// shape's weight.
func planMix(mix string, distinct int, seed int64) ([][]byte, []string, error) {
	if distinct < 1 {
		distinct = 1
	}
	var bodies [][]byte
	var names []string
	add := func(l *plan.Logical, weight int, name string) error {
		data, err := plan.MarshalJSONPlan(l)
		if err != nil {
			return fmt.Errorf("marshal %s: %w", name, err)
		}
		for i := 0; i < weight; i++ {
			bodies = append(bodies, data)
		}
		if name != "" {
			names = append(names, name)
		}
		return nil
	}
	for _, part := range strings.Split(mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, found := strings.Cut(part, "=")
		weight := 1
		if found {
			w, err := strconv.Atoi(weightStr)
			if err != nil || w < 0 {
				return nil, nil, fmt.Errorf("loadgen: bad weight in mix entry %q", part)
			}
			weight = w
		}
		if weight == 0 {
			continue
		}
		var err error
		switch name {
		case "example":
			err = add(workload.RunningExample(), weight, part)
		case "pipeline":
			err = add(workload.Pipeline(12, 1e9), weight, part)
		case "jointree":
			err = add(workload.JoinTree(5, 1e9), weight, part)
		case "random":
			for i := 0; i < distinct && err == nil; i++ {
				err = add(workload.RandomDAG(14, 1e9, seed+int64(i)), weight, "")
			}
			names = append(names, fmt.Sprintf("%s x%d", part, distinct))
		default:
			return nil, nil, fmt.Errorf("loadgen: unknown mix shape %q (want example, pipeline, jointree or random)", name)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	if len(bodies) == 0 {
		return nil, nil, fmt.Errorf("loadgen: the plan mix %q selects no plans", mix)
	}
	return bodies, names, nil
}

// url renders the shared query string of every request.
func url(deadlineMS int, lambda float64) string {
	var parts []string
	if deadlineMS > 0 {
		parts = append(parts, "deadline_ms="+strconv.Itoa(deadlineMS))
	}
	if lambda > 0 {
		parts = append(parts, "risk_lambda="+strconv.FormatFloat(lambda, 'g', -1, 64))
	}
	if len(parts) == 0 {
		return ""
	}
	return "?" + strings.Join(parts, "&")
}

// statusKeys renders the status histogram with string keys so the JSON is
// stable and self-describing.
func statusKeys(in map[int]int64) map[string]int64 {
	out := make(map[string]int64, len(in))
	for code, n := range in {
		out[strconv.Itoa(code)] = n
	}
	return out
}

// percentile returns the nearest-rank p-th percentile (0..1) of the samples:
// the smallest sample at least a fraction p of them do not exceed, 0 when
// empty. The slice is sorted in place.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	i := int(math.Ceil(p*float64(len(samples)))) - 1
	return samples[min(max(i, 0), len(samples)-1)]
}

// rate3 is n/d rounded to 3 decimals, 0 when d is 0.
func rate3(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(int64(1000*float64(n)/float64(d)+0.5)) / 1000
}
