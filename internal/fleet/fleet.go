// Package fleet turns a set of registered replicas into one merged
// observability view: it scrapes each replica's /readyz and /metricz,
// distills the per-replica health signals an operator actually pages on
// (readiness, model version, cache hit rate, queue depth, shed rate, SLO
// burn), and rolls them up fleet-wide. The obsctl command renders this view,
// as a table or as JSON; no serving replica scrapes its peers for it.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
)

// DefaultScrapeTimeout bounds one replica's scrape; a hung replica turns
// into an errored row, not a hung fleet view.
const DefaultScrapeTimeout = 3 * time.Second

// ReplicaStatus is one replica's distilled state.
type ReplicaStatus struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// Err carries the scrape failure when the replica was unreachable;
	// every other field is zero then.
	Err string `json:"err,omitempty"`

	Ready        bool   `json:"ready"`
	ReadyReason  string `json:"readyReason,omitempty"`
	ModelVersion string `json:"modelVersion,omitempty"`

	// Requests counts optimize responses (Σ serving_requests_total);
	// Failures those with an error outcome, plus replies lost on their way
	// to the client (encode_failures_total).
	Requests     int64   `json:"requests"`
	Failures     int64   `json:"failures"`
	CacheHits    int64   `json:"cacheHits"`
	CacheMisses  int64   `json:"cacheMisses"`
	CacheHitRate float64 `json:"cacheHitRate"`
	// PeerFills counts local misses this replica served from a peer's
	// cache over the fleet-shared tier; PeerFillRate is that count over
	// all cache lookups (hits + misses).
	PeerFills    int64   `json:"peerFills"`
	PeerFillRate float64 `json:"peerFillRate"`
	QueueDepth   float64 `json:"queueDepth"`
	Shed         int64   `json:"shed"`
	ShedRate     float64 `json:"shedRate"`

	// BurnRates maps SLO window name to burn rate (the window label of the
	// slo_burn_rate gauges); Breached mirrors the replica's slo_breached gauge.
	BurnRates map[string]float64 `json:"burnRates,omitempty"`
	Breached  bool               `json:"breached,omitempty"`
}

// readyzReply is the subset of the service's /readyz body the scraper needs,
// declared locally so that obsctl does not link the serving stack.
type readyzReply struct {
	Ready        bool   `json:"ready"`
	Reason       string `json:"reason,omitempty"`
	ModelVersion string `json:"modelVersion,omitempty"`
}

// getJSON fetches url and decodes the body, accepting non-200 statuses
// (readyz answers 503 with a meaningful body while draining).
func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// ScrapeReplica collects one replica's status. Scrape errors are reported
// in the row, never returned: a down replica is a finding, not a failure.
func ScrapeReplica(ctx context.Context, client *http.Client, info registry.ReplicaInfo) ReplicaStatus {
	st := ReplicaStatus{ID: info.ID, Addr: info.Addr}
	base := "http://" + info.Addr

	var rz readyzReply
	if err := getJSON(ctx, client, base+"/readyz", &rz); err != nil {
		st.Err = fmt.Sprintf("readyz: %v", err)
		return st
	}
	st.Ready, st.ReadyReason, st.ModelVersion = rz.Ready, rz.Reason, rz.ModelVersion

	var mz obs.Snapshot
	if err := getJSON(ctx, client, base+"/metricz", &mz); err != nil {
		st.Err = fmt.Sprintf("metricz: %v", err)
		return st
	}
	// Every optimize response is in one serving_requests_total series; a
	// failure is one whose outcome is neither ok nor shed, or a reply lost
	// on its way to the client.
	for name, n := range mz.Counters {
		labels, ok := strings.CutPrefix(name, "serving_requests_total{")
		if !ok {
			continue
		}
		st.Requests += n
		if !strings.Contains(labels, `outcome="ok"`) && !strings.Contains(labels, `outcome="shed"`) {
			st.Failures += n
		}
	}
	st.Failures += mz.Counters["encode_failures_total"]
	st.CacheHits = mz.Counters["plan_cache_hits_total"]
	st.CacheMisses = mz.Counters["plan_cache_misses_total"]
	st.PeerFills = mz.Counters["plan_cache_peer_fills_total"]
	if looked := st.CacheHits + st.CacheMisses; looked > 0 {
		st.CacheHitRate = float64(st.CacheHits) / float64(looked)
		st.PeerFillRate = float64(st.PeerFills) / float64(looked)
	}
	st.Shed = mz.Counters["shed_total"]
	if st.Requests > 0 {
		st.ShedRate = float64(st.Shed) / float64(st.Requests)
	}
	st.QueueDepth = mz.Gauges["admission_queue_depth"]
	st.Breached = mz.Gauges["slo_breached"] > 0
	for name, v := range mz.Gauges {
		if w, ok := strings.CutPrefix(name, `slo_burn_rate{window="`); ok {
			if st.BurnRates == nil {
				st.BurnRates = map[string]float64{}
			}
			st.BurnRates[strings.TrimSuffix(w, `"}`)] = v
		}
	}
	return st
}

// scrape collects every replica concurrently, preserving input order. A nil
// client gets DefaultScrapeTimeout.
func scrape(ctx context.Context, client *http.Client, replicas []registry.ReplicaInfo) []ReplicaStatus {
	if client == nil {
		client = &http.Client{Timeout: DefaultScrapeTimeout}
	}
	out := make([]ReplicaStatus, len(replicas))
	var wg sync.WaitGroup
	for i, info := range replicas {
		wg.Add(1)
		go func(i int, info registry.ReplicaInfo) {
			defer wg.Done()
			out[i] = ScrapeReplica(ctx, client, info)
		}(i, info)
	}
	wg.Wait()
	return out
}

// Rollup is the fleet-wide aggregate over a scrape.
type Rollup struct {
	Replicas    int `json:"replicas"`
	Ready       int `json:"ready"`
	Unreachable int `json:"unreachable"`
	// ModelVersions counts replicas per served model version; more than
	// one key means the fleet has not converged on a promotion yet.
	ModelVersions map[string]int `json:"modelVersions,omitempty"`
	Requests      int64          `json:"requests"`
	Failures      int64          `json:"failures"`
	CacheHitRate  float64        `json:"cacheHitRate"`
	// PeerFillRate is the traffic-weighted share of cache lookups served
	// from a peer's cache over the fleet-shared tier.
	PeerFillRate float64 `json:"peerFillRate"`
	ShedRate     float64 `json:"shedRate"`
	// MaxBurnRate is the worst per-window burn rate anywhere in the fleet
	// (window name in MaxBurnWindow); Breached counts replicas whose own
	// multi-window verdict fired.
	MaxBurnRate   float64 `json:"maxBurnRate"`
	MaxBurnWindow string  `json:"maxBurnWindow,omitempty"`
	Breached      int     `json:"breached"`
}

// Aggregate rolls statuses up fleet-wide. Rate aggregates weight by
// traffic (summed numerators over summed denominators), not by replica.
func Aggregate(statuses []ReplicaStatus) Rollup {
	r := Rollup{Replicas: len(statuses), ModelVersions: map[string]int{}}
	var hits, looked, peer, shed int64
	for _, st := range statuses {
		if st.Err != "" {
			r.Unreachable++
			continue
		}
		if st.Ready {
			r.Ready++
		}
		if st.ModelVersion != "" {
			r.ModelVersions[st.ModelVersion]++
		}
		r.Requests += st.Requests
		r.Failures += st.Failures
		hits += st.CacheHits
		looked += st.CacheHits + st.CacheMisses
		peer += st.PeerFills
		shed += st.Shed
		if st.Breached {
			r.Breached++
		}
		if w, b := WorstBurn(st.BurnRates); b > r.MaxBurnRate {
			r.MaxBurnRate, r.MaxBurnWindow = b, w
		}
	}
	if looked > 0 {
		r.CacheHitRate = float64(hits) / float64(looked)
		r.PeerFillRate = float64(peer) / float64(looked)
	}
	if r.Requests > 0 {
		r.ShedRate = float64(shed) / float64(r.Requests)
	}
	if len(r.ModelVersions) == 0 {
		r.ModelVersions = nil
	}
	return r
}

// WorstBurn returns the window with the highest of a replica's burn rates,
// and that rate. Equal rates go to the shortest window (1m0s before 5m0s
// before 30m0s), so a quiet replica, all 0.00×, reports the same window on
// every scrape. The window is "" when there are no rates.
func WorstBurn(rates map[string]float64) (window string, rate float64) {
	var shortest time.Duration
	for w, b := range rates {
		d, _ := time.ParseDuration(w)
		if window == "" || b > rate || b == rate && (d < shortest || d == shortest && w < window) {
			window, rate, shortest = w, b, d
		}
	}
	return window, rate
}

// View is the complete fleet view: the rollup plus per-replica rows, what
// obsctl -json prints and the data behind obsctl's table.
type View struct {
	ScrapedAt time.Time       `json:"scrapedAt"`
	Fleet     Rollup          `json:"fleet"`
	Replicas  []ReplicaStatus `json:"replicas"`
}

// Collect discovers the live replicas in store, scrapes them and aggregates
// — the one-call form obsctl uses.
func Collect(ctx context.Context, store *registry.Store, ttl time.Duration, client *http.Client) (View, error) {
	replicas, err := store.Replicas(ttl)
	if err != nil {
		return View{}, err
	}
	statuses := scrape(ctx, client, replicas)
	sort.Slice(statuses, func(i, j int) bool { return statuses[i].ID < statuses[j].ID })
	return View{
		ScrapedAt: time.Now().UTC(),
		Fleet:     Aggregate(statuses),
		Replicas:  statuses,
	}, nil
}
