package service

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/internal/obs"
)

// GET /tracez is the trace inspection surface: the tracer's ring of recent
// traces, newest first. Query parameters:
//
//   - id=<requestId> — return only that trace (404 when it was not retained
//     or has aged out of the ring).
//   - n=<count>      — cap the listing.
//
// Traces enter the ring per the tracer's retention policy: forced
// (?trace=1), errored, degraded and slow runs always, others at the
// configured sample rate. A server without a Tracer reports enabled=false
// and an empty list.

// TracezResponse is the JSON reply of GET /tracez.
type TracezResponse struct {
	// Enabled reports whether the server retains traces at all.
	Enabled bool `json:"enabled"`
	// SampleRate is the probabilistic retention rate for unremarkable runs.
	SampleRate float64 `json:"sampleRate"`
	// Retained and Dropped count the tracer's retention decisions.
	Retained int64 `json:"retained"`
	Dropped  int64 `json:"dropped"`
	// Traces lists the retained traces, newest first.
	Traces []obs.TraceSnapshot `json:"traces"`
}

func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request, reqID string) {
	if id := r.URL.Query().Get("id"); id != "" {
		tr := s.Tracer.Get(id)
		if tr == nil {
			s.fail(w, reqID, http.StatusNotFound, fmt.Errorf("service: no retained trace %q", id))
			return
		}
		s.writeJSON(w, tr.Snapshot())
		return
	}
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			s.fail(w, reqID, http.StatusBadRequest, fmt.Errorf("service: n must be a nonnegative integer, got %q", q))
			return
		}
		n = v
	}
	resp := TracezResponse{
		Enabled:    s.Tracer != nil,
		SampleRate: s.Tracer.SampleRate(),
		Retained:   s.Tracer.Retained(),
		Dropped:    s.Tracer.Dropped(),
		Traces:     []obs.TraceSnapshot{},
	}
	for _, tr := range s.Tracer.Recent(n) {
		resp.Traces = append(resp.Traces, tr.Snapshot())
	}
	s.writeJSON(w, resp)
}

// registerPprof mounts net/http/pprof under /debug/pprof/ when the server
// opts in (roboptd -pprof). Off by default: the profiling surface exposes
// heap and CPU internals and belongs behind an explicit flag.
func (s *Server) registerPprof(mux *http.ServeMux) {
	if !s.EnablePprof {
		return
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
