package plancache

import (
	"context"
	"time"
)

// RemoteFiller is the pluggable remote-cache tier: on a local miss the
// serving path may consult it for a peer's entry before paying for an
// enumeration. The canonical implementation is internal/peercache, which
// fans a lookup out across the fleet's replicas; tests plug in stubs.
type RemoteFiller interface {
	// Fill looks (fp, version, band) up in the remote tier. A clean
	// remote miss is (nil, nil); an error means the tier is degraded
	// (timeouts, dead peers) and the caller should fall through to
	// enumeration without retrying.
	Fill(ctx context.Context, fp Fingerprint, version, band string) (*CachedPlan, error)
}

// remoteHolder wraps the filler so the cache can publish it through one
// atomic pointer (SetRemoteFiller may run while requests are in flight).
type remoteHolder struct{ f RemoteFiller }

// SetRemoteFiller installs (or, with nil, removes) the remote tier. Safe
// to call concurrently with serving traffic.
func (c *Cache) SetRemoteFiller(f RemoteFiller) {
	if f == nil {
		c.remote.Store(nil)
		return
	}
	c.remote.Store(&remoteHolder{f: f})
}

// RemoteFiller returns the installed remote tier, or nil.
func (c *Cache) RemoteFiller() RemoteFiller {
	if h := c.remote.Load(); h != nil {
		return h.f
	}
	return nil
}

// FillRemote consults the remote tier for (fp, version, band) and, on a
// hit, installs the entry locally so subsequent equal-fingerprint requests
// are plain local hits. The install is version-guarded twice: a peer
// lagging a model swap must never hand this process an entry from a
// version it no longer considers active, so the entry is dropped unless
// its declared version matches both the requested version and the cache's
// active version (when one is set). Returns (nil, false) when no remote
// tier is installed, on remote miss, on error, and on a version-guard
// drop — all of which the caller treats as an ordinary local miss.
func (c *Cache) FillRemote(ctx context.Context, fp Fingerprint, version, band string) (*CachedPlan, bool) {
	h := c.remote.Load()
	if h == nil || h.f == nil {
		return nil, false
	}
	cp, err := h.f.Fill(ctx, fp, version, band)
	if err != nil || cp == nil {
		return nil, false
	}
	return c.InstallRemote(cp, fp, version, band)
}

// InstallRemote validates and installs a remotely fetched entry (the tail
// of FillRemote, also used by the fleet-singleflight wait path, which
// fetches from an explicit claim holder instead of going through the
// filler). Returns (cp, true) only when the entry passed both guards and
// was handed to Put.
func (c *Cache) InstallRemote(cp *CachedPlan, fp Fingerprint, version, band string) (*CachedPlan, bool) {
	if cp == nil {
		return nil, false
	}
	// A peer answering with the wrong key is a protocol violation; refuse
	// the entry rather than poisoning the local cache.
	if cp.Fingerprint != fp || cp.ModelVersion != version || RiskBand(cp.RiskLambda) != band {
		c.dropped.Inc()
		return nil, false
	}
	// Re-check the active version at install time: the requester may have
	// hot-swapped while the lookup was in flight.
	if v := c.active.Load(); v != nil && *v != version {
		c.dropped.Inc()
		return nil, false
	}
	c.peerFills.Inc()
	c.Put(cp)
	return cp, true
}

// PeekBand is GetBand without side effects on the cache's accounting: no
// hit/miss counters, no LRU bump. It backs the /peercache endpoint, so
// peer probes from the rest of the fleet do not distort this replica's
// own hit-rate statistics. Stale (old-generation) and expired entries are
// still removed and counted as on the normal read path.
func (c *Cache) PeekBand(fp Fingerprint, version, band string) (*CachedPlan, bool) {
	sh := c.shardFor(fp)
	k := key(fp, version, band)
	now := time.Now()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[k]
	if !ok {
		return nil, false
	}
	if e.gen != c.gen.Load() {
		sh.remove(e)
		c.invalidated.Inc()
		return nil, false
	}
	if !e.expires.IsZero() && now.After(e.expires) {
		sh.remove(e)
		c.expire()
		return nil, false
	}
	return e.cp, true
}
