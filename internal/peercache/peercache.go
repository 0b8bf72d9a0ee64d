// Package peercache turns the per-process plan cache into a fleet-shared
// tier. On a local miss, a replica consults its peers — discovered through
// the shared store's heartbeat records — over a small HTTP endpoint
// (GET /peercache?fp=&version=&band=) and installs a peer's entry locally
// before falling back to enumeration. The lookup path is built to never
// block serving on a sick fleet: every probe carries a bounded per-peer
// timeout, lookups hedge across at most two peers, clean fleet-wide misses
// are memoized for a short window so cold fingerprints don't re-probe on
// every request, and peers that keep failing are circuit-broken out of
// rotation for a cooldown. A probe is one request on a kept-alive connection
// of the package's own small HTTP/1.1 client (client.go), run on the
// caller's goroutine when only one peer can be asked.
package peercache

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/registry"
)

// The lookup's fixed budgets. Tests in this package may shorten a Filler's
// copies after New.
const (
	// probeTimeout bounds one probe to one peer. Peers answer from memory, so
	// this is network budget, not compute budget.
	probeTimeout = 150 * time.Millisecond
	// hedgeDelay is how long the first probe runs alone before the lookup
	// hedges to a second peer.
	hedgeDelay = 25 * time.Millisecond
	// hedgePeers is how many peers one lookup may consult.
	hedgePeers = 2
	// negTTL memoizes a fleet-wide miss: equal-key lookups within the window
	// skip the network entirely.
	negTTL = 2 * time.Second
	// breakerThreshold is how many consecutive failures open a peer's circuit
	// breaker.
	breakerThreshold = 3
	// breakerCooldown is how long an open breaker keeps a peer out of
	// rotation.
	breakerCooldown = 5 * time.Second
)

// maxEntryBytes bounds a /peercache response body; anything larger is a
// protocol violation, not a plan.
const maxEntryBytes = 1 << 20

var errEntryTooBig = fmt.Errorf("entry exceeds %d bytes", maxEntryBytes)

// idleConnsPerPeer is how many idle connections a Filler keeps to one peer.
// A lookup holds at most one connection to a peer at a time, so this is how
// many lookups can be in flight toward one peer, burst after burst, without
// dialling again: twice the default admission concurrency of an 8-CPU
// replica.
const idleConnsPerPeer = 32

// negCacheCap bounds the negative-result memo; past it, expired entries
// are swept and, if the memo is still over cap, it is cleared outright
// (it is only a memo — losing it costs one extra probe per key).
const negCacheCap = 8192

// Config configures a Filler. Peers must be set.
type Config struct {
	// SelfID and SelfAddr identify this replica so it never probes itself.
	SelfID   string
	SelfAddr string
	// Peers lists the live fleet (typically registry.Store.Replicas
	// under the default TTL). Called once per remote lookup.
	Peers func() ([]registry.ReplicaInfo, error)
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

	// The package constants, copied so in-package tests can shorten them.
	timeout, hedgeDelay, negTTL, breakerCooldown, idleTimeout time.Duration

	// The probe client's connections (client.go): dial opens one, and
	// conns keeps the idle ones.
	dial  func(ctx context.Context, network, addr string) (net.Conn, error)
	conns *connPool

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
	m := cfg.Metrics
	var d net.Dialer
	return &Filler{
		cfg: cfg, neg: map[string]time.Time{}, breakers: map[string]*breaker{},
		timeout: probeTimeout, hedgeDelay: hedgeDelay, negTTL: negTTL,
		breakerCooldown: breakerCooldown, idleTimeout: idleTimeout,
		dial: d.DialContext, conns: &connPool{idle: map[string][]*peerConn{}},
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
	f.mu.Lock()
	defer f.mu.Unlock()
	exp, ok := f.neg[key]
	if !ok {
		return false
	}
	if !time.Now().Before(exp) {
		delete(f.neg, key)
		return false
	}
	return true
}

// memoizeMiss records a clean fleet-wide miss for key.
func (f *Filler) memoizeMiss(key string) {
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
	f.neg[key] = now.Add(f.negTTL)
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
	if b.fails >= breakerThreshold {
		b.openUntil = time.Now().Add(f.breakerCooldown)
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

// failed counts one failed probe: a deadline or timeout failure, or the
// caller's cancellation, as a timeout, anything else as an error.
func (f *Filler) failed(err error) {
	if isTimeout(err) {
		f.timeouts.Inc()
	} else {
		f.errors.Inc()
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
	t := tally{key: k}
	if len(peers) == 1 {
		cp, _, err := f.settle(&t, f.probe(ctx, peers[0].Addr, fp, version, band), true)
		return cp, err
	}
	first := int(f.rr.Add(1)-1) % len(peers)
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan probeResult, hedgePeers)
	launch := func(i int) {
		addr := peers[i%len(peers)].Addr
		go func() { results <- f.probe(pctx, addr, fp, version, band) }()
	}
	launch(first)
	outstanding := 1
	hedge := time.NewTimer(f.hedgeDelay)
	defer hedge.Stop()
	hedgeC := hedge.C
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			launch(first + 1)
			outstanding++
		case r := <-results:
			outstanding--
			// One peer has answered without a hit; the second might still
			// have the entry — probe it now rather than waiting out the
			// hedge delay.
			if r.cp == nil && hedgeC != nil {
				hedgeC = nil
				launch(first + 1)
				outstanding++
			}
			if cp, done, err := f.settle(&t, r, outstanding == 0); done {
				return cp, err
			}
		}
	}
}

// tally is one lookup's outcome so far, over the probes that have answered.
type tally struct {
	key  string // the lookup's negative-memo key
	miss bool   // a peer answered a clean miss
	err  error  // the first failure
}

// settle books probe answer r, for the inline probe and the hedged ones
// alike: the peer's breaker and the outcome counters. It reports done when r
// decides the lookup, a hit or the last answer (last), and then returns
// Fill's answer, having memoized a clean fleet-wide miss.
func (f *Filler) settle(t *tally, r probeResult, last bool) (*plancache.CachedPlan, bool, error) {
	switch {
	case r.cp != nil:
		f.breakerResult(r.addr, true)
		f.hits.Inc()
		return r.cp, true, nil
	case r.miss:
		f.breakerResult(r.addr, true)
		t.miss = true
	default:
		f.breakerResult(r.addr, false)
		f.failed(r.err)
		if t.err == nil {
			t.err = r.err
		}
	}
	switch {
	case !last:
		return nil, false, nil
	case t.miss:
		f.misses.Inc()
		f.memoizeMiss(t.key)
		return nil, true, nil
	}
	return nil, true, t.err
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
