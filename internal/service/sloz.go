package service

import "net/http"

// GET /sloz is the SLO inspection surface: the configured latency objective
// and availability target, every rolling window's traffic and error-budget
// burn rate, and the combined breach verdict (burn rate > 1 in every window
// with traffic).
//
// The same numbers are exported as gauges on /metricz (slo_objective_ms,
// slo_target, slo_breached and the slo_burn_rate family, one series per
// window label), refreshed on each scrape, so dashboards and the loadgen -slo
// assertion mode read the same state.

// handleSloz replies with the SLO's obs.SLOSnapshot.
func (s *Server) handleSloz(w http.ResponseWriter, r *http.Request, reqID string) {
	s.writeJSON(w, s.SLO.Snapshot())
}

// refreshSLOGauges republishes the SLO state as gauges so /metricz scrapes
// carry the burn rates without a second poll of /sloz.
func (s *Server) refreshSLOGauges() {
	snap := s.SLO.Snapshot()
	m := s.Metrics()
	m.Gauge("slo_objective_ms").Set(snap.ObjectiveMs)
	m.Gauge("slo_target").Set(snap.Target)
	breached := 0.0
	if snap.Breached {
		breached = 1
	}
	m.Gauge("slo_breached").Set(breached)
	burn := m.GaugeVec("slo_burn_rate", "window")
	for _, w := range snap.Windows {
		burn.With(w.Window).Set(w.BurnRate)
	}
}
