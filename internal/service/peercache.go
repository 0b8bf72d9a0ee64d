package service

import (
	"errors"
	"net/http"

	"repro/internal/jsonlex"
	"repro/internal/peercache"
)

// The server side of the shared cache tier: GET /peercache?fp=&version=&band=
// answers a peer's lookup from the local plan cache. 200 with the entry in
// peercache's wire format on a hit, 404 on a miss. The lookup is a Peek: peer
// probes never distort this replica's own hit/miss accounting or LRU order.
// The client side is peerTier (resolve.go).

// errPeerMiss is the body of a /peercache 404: an expected answer, not a fault.
var errPeerMiss = errors.New("peercache: miss")

// handlePeercache serves GET /peercache?fp=&version=&band= — the wire
// endpoint of the shared cache tier (see internal/peercache for the
// client side and the body format).
func (s *Server) handlePeercache(w http.ResponseWriter, r *http.Request, reqID string) {
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
	buf := jsonlex.TakeBuffer()
	defer jsonlex.PutBuffer(buf)
	buf.B, err = peercache.AppendEntry(buf.B, cp, s.ReplicaID)
	if err != nil {
		s.fail(w, reqID, http.StatusInternalServerError, err)
		return
	}
	s.Metrics().Counter("peer_serve_total").Inc()
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.B) // the peer hanging up is its own affair
}
