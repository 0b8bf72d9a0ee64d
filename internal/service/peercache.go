package service

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"repro/internal/peercache"
	"repro/internal/plancache"
	"repro/internal/registry"
)

// The shared cache tier has two server-side pieces:
//
//   - GET /peercache?fp=&version=&band= — answer a peer's lookup from the
//     local plan cache. 200 with the entry in peercache's wire format on a
//     hit, 404 on a miss. The lookup is a Peek: peer probes never distort this replica's
//     own hit/miss accounting or LRU order.
//   - claimOrWait — the fleet-singleflight client: before a cold
//     enumeration, claim the cache key in the shared store. The winner
//     enumerates (and releases the claim once the entry is published);
//     everyone else polls the winner's /peercache until the result lands,
//     the claim disappears, or the wait budget lapses — at which point the
//     waiter degrades to a local enumeration, so a sick claimant can slow
//     a request but never wedge it.

// DefaultClaimWait bounds how long a request waits behind another
// replica's fleet-singleflight claim before enumerating locally anyway.
const DefaultClaimWait = 1 * time.Second

// claimPollInterval is how often a waiter polls the claim holder.
const claimPollInterval = 20 * time.Millisecond

// ClaimKey renders the fleet-singleflight claim key for a cache key
// triple. Exported so tooling (e2e smoke) can locate a claim file via
// registry.ClaimFile(ClaimKey(...)).
func ClaimKey(fp plancache.Fingerprint, version, band string) string {
	k := fp.String() + "-" + version
	if band != "" {
		k += "-" + band
	}
	return k
}

// claimOrWait runs the fleet-singleflight protocol for one cold cache key.
// It returns exactly one of:
//
//   - (cp, nil): another replica enumerated the plan while we waited; cp
//     is installed locally and should be served as a peer fill.
//   - (nil, release): we hold the claim — enumerate, publish to the local
//     cache, then call release.
//   - (nil, nil): no fleet coordination happened (store/identity not
//     configured, claim machinery erroring, or the wait budget lapsed);
//     enumerate locally without a claim.
func (s *Server) claimOrWait(ctx context.Context, fp plancache.Fingerprint, version, band string) (*plancache.CachedPlan, func()) {
	st := s.ModelStore
	if st == nil || s.ReplicaID == "" {
		return nil, nil
	}
	m := s.Metrics()
	key := ClaimKey(fp, version, band)
	ttl := s.ClaimTTL
	if ttl <= 0 {
		ttl = registry.DefaultClaimTTL
	}
	wait := s.ClaimWait
	if wait <= 0 {
		wait = DefaultClaimWait
	}
	wctx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	waited := false
	for {
		acquired, holder, takeover, err := st.Claim(key, s.ReplicaID, s.AdvertiseAddr, ttl)
		if err != nil {
			// A broken claims directory must never stall serving.
			return nil, nil
		}
		if acquired {
			m.Counter("fleet_singleflight_claims_total").Inc()
			if takeover {
				m.Counter("fleet_singleflight_takeovers_total").Inc()
			}
			owner := s.ReplicaID
			release := func() { _ = st.ReleaseClaim(key, owner) }
			// Between the caller's pre-claim probe and winning the claim, the
			// previous holder may have published its result and released —
			// acquiring cleanly does not prove the fleet is cold. One
			// memo-bypassing re-probe closes that window: enumerating exactly
			// once fleet-wide is worth a second 404 round-trip on keys that
			// turn out to be genuinely cold.
			s.PeerFill.Forget(fp, version, band)
			if cp, ok := s.PlanCache.FillRemote(ctx, fp, version, band); ok {
				release()
				return cp, nil
			}
			return nil, release
		}
		if !waited {
			waited = true
			m.Counter("fleet_singleflight_waits_total").Inc()
		}
		// Poll the holder until the entry is published, the claim goes away
		// (released, expired, or replaced — contend again), or the wait
		// budget lapses.
		ticker := time.NewTicker(claimPollInterval)
		recontend := false
		for !recontend {
			select {
			case <-wctx.Done():
				ticker.Stop()
				return nil, nil
			case <-ticker.C:
				if holder.Addr != "" {
					cp, ferr := s.PeerFill.FetchFrom(wctx, holder.Addr, fp, version, band)
					if ferr == nil && cp != nil {
						ticker.Stop()
						if got, ok := s.PlanCache.InstallRemote(cp, fp, version, band); ok {
							return got, nil
						}
						// The version guard refused the install (we
						// hot-swapped mid-wait); fall back to our own
						// enumeration under our own snapshot.
						return nil, nil
					}
				}
				cur, _ := st.LoadClaim(key)
				if cur == nil || cur.Owner != holder.Owner || cur.Expired(time.Now()) {
					recontend = true
				}
			}
		}
		ticker.Stop()
	}
}

// errPeerMiss is the body of a /peercache 404: an expected answer, not a fault.
var errPeerMiss = errors.New("peercache: miss")

// entryBufs recycles the buffers /peercache hits are encoded into.
var entryBufs = sync.Pool{New: func() any { return new([]byte) }}

// handlePeercache serves GET /peercache?fp=&version=&band= — the wire
// endpoint of the shared cache tier (see internal/peercache for the
// client side and the body format).
func (s *Server) handlePeercache(w http.ResponseWriter, r *http.Request, reqID string) {
	if s.PlanCache == nil {
		s.fail(w, reqID, http.StatusNotFound, errors.New("service: no plan cache configured (-cache-entries)"))
		return
	}
	qs := r.URL.Query()
	fp, err := peercache.ParseFingerprint(qs.Get("fp"))
	if err != nil {
		s.fail(w, reqID, http.StatusBadRequest, err)
		return
	}
	version := qs.Get("version")
	if version == "" {
		s.fail(w, reqID, http.StatusBadRequest, errors.New("service: peercache lookup needs a version"))
		return
	}
	cp, ok := s.PlanCache.PeekBand(fp, version, qs.Get("band"))
	if !ok {
		s.fail(w, reqID, http.StatusNotFound, errPeerMiss)
		return
	}
	buf := entryBufs.Get().(*[]byte)
	defer entryBufs.Put(buf)
	*buf, err = peercache.AppendEntry((*buf)[:0], cp, s.ReplicaID)
	if err != nil {
		s.fail(w, reqID, http.StatusInternalServerError, err)
		return
	}
	s.Metrics().Counter("peer_serve_total").Inc()
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(*buf) // the peer hanging up is its own affair
}
