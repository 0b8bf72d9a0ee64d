package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/fleet"
	"repro/internal/registry"
)

// GET /fleetz is the merged fleet view: any replica sharing a -model-dir
// can answer for the whole fleet, because discovery rides on the same
// store the replicas register into. The reply is a fleet.View — the
// fleet-wide rollup (ready count, model-version convergence, cache hit
// rate, shed rate, worst burn rate) plus one row per replica. Query
// parameters:
//
//   - ttl_s=<seconds> — registration freshness cutoff (default
//     registry.DefaultReplicaTTL).
//
// obsctl renders the same view from the command line without going through
// a replica. A server without a ModelStore reports 503: there is no fleet
// without the shared store.
func (s *Server) handleFleetz(w http.ResponseWriter, r *http.Request, reqID string) {
	if s.ModelStore == nil {
		s.fail(w, reqID, http.StatusServiceUnavailable, errors.New("service: no model store configured (-model-dir), fleet discovery disabled"))
		return
	}
	ttl := time.Duration(0)
	if q := r.URL.Query().Get("ttl_s"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			s.fail(w, reqID, http.StatusBadRequest, fmt.Errorf("service: ttl_s must be a positive integer, got %q", q))
			return
		}
		ttl = time.Duration(v) * time.Second
	}
	view, err := fleet.Collect(r.Context(), s.ModelStore, ttl, nil)
	if err != nil {
		s.fail(w, reqID, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, view)
}

// RegisterReplicaLoop registers this replica in the shared store and
// heartbeats until ctx is done, then deregisters. interval <= 0 means a
// fifth of registry.DefaultReplicaTTL. The returned channel closes after
// deregistration, so a draining server can wait for its record to vanish
// before the listener closes.
func (s *Server) RegisterReplicaLoop(ctx context.Context, addr string, interval time.Duration) (<-chan struct{}, error) {
	if s.ModelStore == nil {
		return nil, errors.New("service: no model store configured (-model-dir)")
	}
	if s.ReplicaID == "" {
		return nil, errors.New("service: replica registration needs Server.ReplicaID")
	}
	if interval <= 0 {
		interval = registry.DefaultReplicaTTL / 5
	}
	info := registry.ReplicaInfo{ID: s.ReplicaID, Addr: addr, StartedAt: time.Now()}
	if err := s.ModelStore.RegisterReplica(info); err != nil {
		return nil, err
	}
	warn := func(msg string, err error) {
		if err != nil && s.Logger != nil {
			s.Logger.Warn(msg, "replicaId", s.ReplicaID, "err", err.Error())
		}
	}
	return every(ctx, interval,
		func() { warn("replica heartbeat failed", s.ModelStore.RegisterReplica(info)) },
		func() { warn("replica deregistration failed", s.ModelStore.DeregisterReplica(s.ReplicaID)) },
	), nil
}
