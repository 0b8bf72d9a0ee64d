// Package peercache turns the per-process plan cache into a fleet-shared
// tier. On a local miss, a replica consults its peers — discovered through
// the shared store's heartbeat records — over a small HTTP endpoint
// (GET /peercache?fp=&version=&band=) and installs a peer's entry locally
// before falling back to enumeration. The lookup path is built to never
// block serving on a sick fleet: every probe carries a bounded per-peer
// timeout, lookups hedge across at most two peers, clean fleet-wide misses
// are memoized for a short window so cold fingerprints don't re-probe on
// every request, and peers that keep failing are circuit-broken out of
// rotation for a cooldown.
package peercache

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/registry"
)

// Defaults for Config's zero values.
const (
	// DefaultTimeout bounds one probe to one peer. Peers answer from
	// memory, so this is network budget, not compute budget.
	DefaultTimeout = 150 * time.Millisecond
	// DefaultHedgeDelay is how long the first probe runs alone before the
	// lookup hedges to a second peer.
	DefaultHedgeDelay = 25 * time.Millisecond
	// DefaultHedge is how many peers one lookup may consult (max 2).
	DefaultHedge = 2
	// DefaultNegTTL memoizes a fleet-wide miss: equal-key lookups within
	// the window skip the network entirely.
	DefaultNegTTL = 2 * time.Second
	// DefaultBreakerThreshold is how many consecutive failures open a
	// peer's circuit breaker.
	DefaultBreakerThreshold = 3
	// DefaultBreakerCooldown is how long an open breaker keeps a peer out
	// of rotation.
	DefaultBreakerCooldown = 5 * time.Second
)

// maxEntryBytes bounds a /peercache response body; anything larger is a
// protocol violation, not a plan.
const maxEntryBytes = 1 << 20

var errEntryTooBig = fmt.Errorf("entry exceeds %d bytes", maxEntryBytes)

// idleConnsPerPeer is how many idle connections the default client keeps to
// one peer. A lookup holds at most one connection to a peer at a time, so this
// is how many lookups can be in flight toward one peer, burst after burst,
// without dialling again: twice the default admission concurrency of an
// 8-CPU replica, where http.DefaultTransport would keep 2.
const idleConnsPerPeer = 32

// transport carries the probes of every Filler that is not given a client.
// Peers are addresses the fleet's own replicas registered in the shared
// store, so it takes no proxy from the environment; an entry is a kilobyte or
// two, so it does not negotiate gzip; and it shares its connection pool with
// nothing else in the process.
var transport = &http.Transport{
	DisableCompression:  true,
	MaxIdleConnsPerHost: idleConnsPerPeer,
	IdleConnTimeout:     90 * time.Second,
}

// bodies recycles the buffers probes read response bodies into; a decoded
// entry keeps no reference to its bytes.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

// negCacheCap bounds the negative-result memo; past it, expired entries
// are swept and, if the memo is still over cap, it is cleared outright
// (it is only a memo — losing it costs one extra probe per key).
const negCacheCap = 8192

// Config configures a Filler. The zero value gets sensible defaults, but
// Peers must be set.
type Config struct {
	// SelfID and SelfAddr identify this replica so it never probes itself.
	SelfID   string
	SelfAddr string
	// Peers lists the live fleet (typically registry.Store.Replicas
	// under the default TTL). Called once per remote lookup.
	Peers func() ([]registry.ReplicaInfo, error)
	// Timeout bounds one probe to one peer (DefaultTimeout when 0).
	Timeout time.Duration
	// HedgeDelay is the head start the first probe gets before a second
	// peer is consulted (DefaultHedgeDelay when 0).
	HedgeDelay time.Duration
	// Hedge is the number of peers one lookup may consult, clamped to
	// [1, 2] (DefaultHedge when 0).
	Hedge int
	// NegTTL is the negative-result memo window (DefaultNegTTL when 0;
	// negative to disable memoization).
	NegTTL time.Duration
	// BreakerThreshold and BreakerCooldown tune the per-peer circuit
	// breaker (defaults when 0).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Client is the HTTP client probes go through (when nil, one over the
	// package's own transport).
	Client *http.Client
	// Metrics, when set, holds the peer_fill_*_total counters. They are the
	// filler's only ledger: New resolves each handle once and Snapshot reads
	// the same counters back, so two fillers sharing one registry share its
	// counters. Nil keeps them private to the filler.
	Metrics *obs.Registry
}

// breaker is one peer's failure tracker.
type breaker struct {
	fails     int
	openUntil time.Time
}

// Filler is the peer-fill client. It implements plancache.RemoteFiller;
// install it with Cache.SetRemoteFiller. All methods are safe for
// concurrent use.
type Filler struct {
	cfg Config
	rr  atomic.Uint64 // round-robin rotation over the peer list

	mu       sync.Mutex
	neg      map[string]time.Time // key -> memo expiry
	breakers map[string]*breaker  // peer addr -> breaker

	// The outcome of every probe, counted once: peer_fill_hits_total,
	// peer_fill_misses_total, peer_fill_errors_total, peer_fill_timeouts_total.
	hits, misses, errors, timeouts *obs.Counter
}

// New returns a Filler over cfg.
func New(cfg Config) (*Filler, error) {
	if cfg.Peers == nil {
		return nil, fmt.Errorf("peercache: Config.Peers is required")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.HedgeDelay <= 0 {
		cfg.HedgeDelay = DefaultHedgeDelay
	}
	if cfg.Hedge <= 0 {
		cfg.Hedge = DefaultHedge
	}
	if cfg.Hedge > 2 {
		cfg.Hedge = 2
	}
	if cfg.NegTTL == 0 {
		cfg.NegTTL = DefaultNegTTL
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = DefaultBreakerThreshold
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Transport: transport}
	}
	m := cfg.Metrics
	return &Filler{
		cfg: cfg, neg: map[string]time.Time{}, breakers: map[string]*breaker{},
		hits:     m.Counter("peer_fill_hits_total"),
		misses:   m.Counter("peer_fill_misses_total"),
		errors:   m.Counter("peer_fill_errors_total"),
		timeouts: m.Counter("peer_fill_timeouts_total"),
	}, nil
}

func negKey(fp plancache.Fingerprint, version, band string) string {
	return string(fp[:]) + "\x00" + version + "\x00" + band
}

// negHit reports whether key's fleet-wide miss is memoized and fresh.
func (f *Filler) negHit(key string) bool {
	if f.cfg.NegTTL < 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	exp, ok := f.neg[key]
	if !ok {
		return false
	}
	if time.Now().After(exp) {
		delete(f.neg, key)
		return false
	}
	return true
}

// memoizeMiss records a clean fleet-wide miss for key.
func (f *Filler) memoizeMiss(key string) {
	if f.cfg.NegTTL < 0 {
		return
	}
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.neg) >= negCacheCap {
		for k, exp := range f.neg {
			if now.After(exp) {
				delete(f.neg, k)
			}
		}
		if len(f.neg) >= negCacheCap {
			f.neg = map[string]time.Time{}
		}
	}
	f.neg[key] = now.Add(f.cfg.NegTTL)
}

// Forget drops key's negative memo (call after installing the plan by
// other means, e.g. a local enumeration finishing).
func (f *Filler) Forget(fp plancache.Fingerprint, version, band string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.neg, negKey(fp, version, band))
}

// breakerOpen reports whether addr's circuit is open right now.
func (f *Filler) breakerOpen(addr string, now time.Time) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	b := f.breakers[addr]
	return b != nil && now.Before(b.openUntil)
}

// breakerResult feeds one probe outcome into addr's breaker.
func (f *Filler) breakerResult(addr string, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b := f.breakers[addr]
	if ok {
		if b != nil {
			b.fails = 0
			b.openUntil = time.Time{}
		}
		return
	}
	if b == nil {
		b = &breaker{}
		f.breakers[addr] = b
	}
	b.fails++
	if b.fails >= f.cfg.BreakerThreshold {
		b.openUntil = time.Now().Add(f.cfg.BreakerCooldown)
		b.fails = 0
	}
}

// alivePeers lists probe targets: the fleet minus this replica minus any
// peer whose breaker is open.
func (f *Filler) alivePeers() []registry.ReplicaInfo {
	all, err := f.cfg.Peers()
	if err != nil {
		return nil
	}
	now := time.Now()
	out := all[:0:0]
	for _, p := range all {
		if p.Addr == "" || p.ID == f.cfg.SelfID || p.Addr == f.cfg.SelfAddr {
			continue
		}
		if f.breakerOpen(p.Addr, now) {
			continue
		}
		out = append(out, p)
	}
	return out
}

// probeResult is one peer's answer.
type probeResult struct {
	addr string
	cp   *plancache.CachedPlan
	miss bool
	err  error
}

// failed counts one failed probe: a deadline or timeout failure as a timeout,
// anything else as an error.
func (f *Filler) failed(err error) {
	var ne interface{ Timeout() bool }
	if errors.Is(err, context.DeadlineExceeded) || errors.As(err, &ne) && ne.Timeout() {
		f.timeouts.Inc()
	} else {
		f.errors.Inc()
	}
}

// probe fetches (fp, version, band) from one peer. A 404 is a clean miss.
func (f *Filler) probe(ctx context.Context, addr string, fp plancache.Fingerprint, version, band string) (*plancache.CachedPlan, bool, error) {
	ctx, cancel := context.WithTimeout(ctx, f.cfg.Timeout)
	defer cancel()
	u := "http://" + addr + "/peercache?fp=" + fp.String() +
		"&version=" + url.QueryEscape(version) + "&band=" + url.QueryEscape(band)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		buf := bodies.Get().(*[]byte)
		defer bodies.Put(buf)
		*buf, err = readBody((*buf)[:0], resp.Body, resp.ContentLength)
		if err != nil {
			return nil, false, fmt.Errorf("peer %s: %w", addr, err)
		}
		cp, err := DecodeEntry(*buf)
		if err != nil {
			return nil, false, fmt.Errorf("peer %s: %w", addr, err)
		}
		return cp, false, nil
	case http.StatusNotFound:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, true, nil
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, false, fmt.Errorf("peer %s: status %d", addr, resp.StatusCode)
	}
}

// readBody appends r, read to its end, to buf, sized in one step when the
// peer announced a length (-1 when it did not). A body longer than
// maxEntryBytes is an error, not a truncation.
func readBody(buf []byte, r io.Reader, length int64) ([]byte, error) {
	if length > maxEntryBytes {
		return buf, errEntryTooBig
	}
	// One byte more than announced, so that the read that meets the end of
	// the body has room to find it.
	if need := int(length) + 1; need > cap(buf) {
		buf = make([]byte, 0, need)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), maxEntryBytes+1)])
		buf = buf[:len(buf)+n]
		switch {
		case len(buf) > maxEntryBytes:
			return buf, errEntryTooBig
		case err == io.EOF:
			return buf, nil
		case err != nil:
			return buf, err
		}
	}
}

// Fill implements plancache.RemoteFiller: a hedged, breaker-aware lookup
// across the live fleet. (nil, nil) is a clean miss (including "no peers"
// and "memoized miss"); an error means every consulted peer failed.
func (f *Filler) Fill(ctx context.Context, fp plancache.Fingerprint, version, band string) (*plancache.CachedPlan, error) {
	k := negKey(fp, version, band)
	if f.negHit(k) {
		f.misses.Inc()
		return nil, nil
	}
	peers := f.alivePeers()
	if len(peers) == 0 {
		// A fleet of one (or a fully broken one) is not worth memoizing:
		// peers may register at any moment.
		f.misses.Inc()
		return nil, nil
	}
	start := int(f.rr.Add(1)-1) % len(peers)
	n := f.cfg.Hedge
	if n > len(peers) {
		n = len(peers)
	}
	targets := make([]string, 0, n)
	for i := 0; i < n; i++ {
		targets = append(targets, peers[(start+i)%len(peers)].Addr)
	}

	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan probeResult, len(targets))
	launch := func(addr string) {
		go func() {
			cp, miss, err := f.probe(pctx, addr, fp, version, band)
			results <- probeResult{addr: addr, cp: cp, miss: miss, err: err}
		}()
	}
	launch(targets[0])
	launched, outstanding := 1, 1
	var hedgeC <-chan time.Time
	if len(targets) > 1 {
		t := time.NewTimer(f.cfg.HedgeDelay)
		defer t.Stop()
		hedgeC = t.C
	}
	sawMiss := false
	var firstErr error
	for outstanding > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil
			launch(targets[launched])
			launched++
			outstanding++
		case r := <-results:
			outstanding--
			switch {
			case r.err == nil && r.cp != nil:
				f.breakerResult(r.addr, true)
				f.hits.Inc()
				return r.cp, nil
			case r.miss:
				f.breakerResult(r.addr, true)
				sawMiss = true
			default:
				f.breakerResult(r.addr, false)
				f.failed(r.err)
				if firstErr == nil {
					firstErr = r.err
				}
			}
			// One peer has answered without a hit; any unconsulted hedge
			// target might still have the entry — probe it now rather than
			// waiting out the hedge delay.
			if hedgeC != nil && launched < len(targets) {
				hedgeC = nil
				launch(targets[launched])
				launched++
				outstanding++
			}
		}
	}
	if sawMiss {
		f.misses.Inc()
		f.memoizeMiss(k)
		return nil, nil
	}
	return nil, firstErr
}

// FetchFrom fetches (fp, version, band) from one explicit peer — the
// fleet-singleflight wait path polling a claim holder. It bypasses the
// breaker, rotation and negative memo: the claim names exactly one
// authoritative address. (nil, nil) is a miss (holder not done yet).
func (f *Filler) FetchFrom(ctx context.Context, addr string, fp plancache.Fingerprint, version, band string) (*plancache.CachedPlan, error) {
	cp, miss, err := f.probe(ctx, addr, fp, version, band)
	if err != nil {
		f.failed(err)
		return nil, err
	}
	if miss {
		return nil, nil
	}
	return cp, nil
}

// Stats is the filler's point-in-time view, surfaced under /cachez.
type Stats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Errors       int64 `json:"errors"`
	Timeouts     int64 `json:"timeouts"`
	NegCached    int   `json:"negCached"`
	OpenBreakers int   `json:"openBreakers"`
}

// Snapshot returns the filler's current statistics.
func (f *Filler) Snapshot() Stats {
	s := Stats{
		Hits:     f.hits.Load(),
		Misses:   f.misses.Load(),
		Errors:   f.errors.Load(),
		Timeouts: f.timeouts.Load(),
	}
	now := time.Now()
	f.mu.Lock()
	s.NegCached = len(f.neg)
	for _, b := range f.breakers {
		if now.Before(b.openUntil) {
			s.OpenBreakers++
		}
	}
	f.mu.Unlock()
	return s
}
