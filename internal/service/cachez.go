package service

import (
	"errors"
	"net/http"
)

// The /cachez endpoint pair is the plan cache's admin surface:
//
//   - GET  /cachez       — cache configuration and live statistics (entries,
//     bytes, hit/miss/collapsed/eviction/invalidation counters, generation,
//     active model version). Reports {"enabled": false} on servers without
//     a cache.
//   - POST /cachez/purge — drop every cached plan. Serialized behind the
//     same admin mutex as /modelz mutations, so a purge cannot interleave
//     with a promote's flash invalidation.

// CachezResponse is the JSON reply of GET /cachez.
type CachezResponse struct {
	Enabled bool `json:"enabled"`
	// Stats embeds the cache statistics when a cache is configured (its
	// peerFills field counts entries installed from the fleet tier).
	Stats any `json:"stats,omitempty"`
	// PeerFill embeds the peer-fill client's statistics (hits, misses,
	// errors, timeouts, memoized negatives, open breakers) when the
	// fleet-shared tier is enabled.
	PeerFill any `json:"peerFill,omitempty"`
}

// PurgeResponse is the JSON reply of POST /cachez/purge.
type PurgeResponse struct {
	Purged int `json:"purged"`
}

func (s *Server) handleCachez(w http.ResponseWriter, r *http.Request, reqID string) {
	if s.PlanCache == nil {
		s.writeJSON(w, CachezResponse{Enabled: false})
		return
	}
	resp := CachezResponse{Enabled: true, Stats: s.PlanCache.Snapshot()}
	if s.PeerFill != nil {
		resp.PeerFill = s.PeerFill.Snapshot()
	}
	s.writeJSON(w, resp)
}

func (s *Server) handleCachezPurge(w http.ResponseWriter, r *http.Request, reqID string) {
	if s.PlanCache == nil {
		s.fail(w, reqID, http.StatusConflict, errors.New("service: no plan cache configured (-cache-entries)"))
		return
	}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	s.writeJSON(w, PurgeResponse{Purged: s.PlanCache.Purge()})
}
