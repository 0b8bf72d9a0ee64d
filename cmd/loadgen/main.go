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
// The summary tallies the X-Cache disposition of every OK response: "peer"
// counts plans installed from another replica's cache instead of
// re-enumerated. A replica's own counts and SLO state are on its /metricz.
//
// Every request carries a client-minted W3C traceparent (sampled when
// -trace-force is set), so the -slowest report and the "slowestRequests"
// section of the summary name trace IDs retrievable from the server via
// /tracez?id= — the p99-chasing loop in EXPERIMENTS.md. The run exits 1
// when no request succeeded.
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
	"net/url"
	"os"
	"path/filepath"
	"runtime"
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
		maxInflight = flag.Int("max-inflight", 512, "client-side cap on in-flight requests; arrivals beyond it are counted as skipped, not sent")
		timeout     = flag.Duration("timeout", 60*time.Second, "per-request client timeout")
		outPath     = flag.String("out", "BENCH_serving.json", "write the JSON summary here")
		seed        = flag.Int64("seed", 1, "seed for the plan mix and random plans")
		traceForce  = flag.Bool("trace-force", false, "set the traceparent sampled flag, forcing the server to retain every request's trace")
		slowestN    = flag.Int("slowest", 8, "how many of the slowest requests to report with their trace IDs (0 disables)")
		showVersion = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.String("loadgen"))
		return
	}
	replicas, err := parseReplicas(*replicasF)
	if err != nil {
		log.Fatal(err)
	}
	if *rate <= 0 {
		log.Fatal("-rate must be positive")
	}

	bodies, names, err := planMix(*mixF, *distinct, *seed)
	if err != nil {
		log.Fatal(err)
	}
	query := ""
	if *deadlineMS > 0 {
		query = "?deadline_ms=" + strconv.Itoa(*deadlineMS)
	}

	res := run(runConfig{
		replicas:    replicas,
		rate:        *rate,
		duration:    *duration,
		bodies:      bodies,
		query:       query,
		maxInflight: *maxInflight,
		seed:        *seed,
		traceForce:  *traceForce,
		slowestN:    *slowestN,
		client:      &http.Client{Timeout: *timeout},
	})
	res.summary["config"] = map[string]any{
		"replicas":   replicas,
		"rateRps":    *rate,
		"durationMs": duration.Milliseconds(),
		"mix":        names,
		"distinct":   *distinct,
		"deadlineMs": *deadlineMS,
		"seed":       *seed,
	}
	stamp(res.summary, os.Args, time.Now())
	data, err := json.MarshalIndent(res.summary, "", "  ")
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
	if res.ok == 0 {
		os.Exit(1)
	}
}

// stamp records in summary where the run came from: when it ended (UTC, RFC
// 3339), the command line that re-runs it (args, the program by its base
// name, an argument with a space or a quote quoted) and the host it ran on.
// The setup of the replicas and any note are the two fields of environment
// left to add by hand.
func stamp(summary map[string]any, args []string, now time.Time) {
	cmd := make([]string, len(args))
	for i, a := range args {
		switch {
		case i == 0:
			a = filepath.Base(a)
		case a == "" || strings.ContainsAny(a, " \t\"'"):
			a = strconv.Quote(a)
		}
		cmd[i] = a
	}
	summary["generated"] = now.UTC().Format(time.RFC3339)
	summary["command"] = strings.Join(cmd, " ")
	summary["environment"] = map[string]any{
		"goos":   runtime.GOOS,
		"goarch": runtime.GOARCH,
		"vcpus":  runtime.NumCPU(),
	}
}

// parseReplicas splits -replicas into base URLs without a trailing slash.
// Every entry must be an http:// or https:// URL with a host: an empty entry
// or a bare host:port would take its share of the load and fail all of it.
func parseReplicas(list string) ([]string, error) {
	replicas := strings.Split(list, ",")
	for i, r := range replicas {
		r = strings.TrimRight(strings.TrimSpace(r), "/")
		u, err := url.Parse(r)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("-replicas entry %d is %q, want an http:// or https:// base URL", i+1, r)
		}
		replicas[i] = r
	}
	return replicas, nil
}

// runConfig parameterizes the open-loop run.
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

// runResult carries the run's summary plus what main logs and exits on.
type runResult struct {
	summary map[string]any
	ok      int64
	slowest []slowRequest
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
	return runResult{summary: summary, ok: ok, slowest: slowest}
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
