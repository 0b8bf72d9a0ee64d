package service

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/tdgen"
)

// The /modelz endpoint family is the model lifecycle's admin surface:
//
//   - GET  /modelz          — active artifact metadata, feedback buffer
//     occupancy and store versions.
//   - POST /modelz/promote  — ?version=vN: mark a stored version active and
//     hot-swap it in.
//   - GET  /modelz/feedback — the buffered execution-feedback samples as
//     the training CSV tdgen and robopt read (header f0..fN-1,runtime).
//
// Every way the served version changes — promote, the store follower and
// roboptd's boot — is a call of one routine, publish, made under the one
// admin mutex. A replica picks up a version another process made ACTIVE
// through its follower (lifecycle.go); there is no admin call for it. A
// retrained model arrives the way any artifact does: trained offline, saved
// to the store, promoted. /optimize never takes that mutex: requests read
// the provider's atomic pointer only.

// ModelzResponse is the JSON reply of GET /modelz: state, not counts. How
// often the model was swapped and how many feedback samples arrived are
// /metricz's model_swaps_total and feedback_samples_total.
type ModelzResponse struct {
	// Active is the served artifact's metadata (its model is not included).
	Active *registry.Artifact `json:"active"`
	// Store reports the persisted versions when a model store is configured.
	Store *ModelzStoreJSON `json:"store,omitempty"`
	// Feedback reports the execution-feedback buffer's occupancy.
	Feedback *ModelzFeedbackJSON `json:"feedback"`
}

// ModelzStoreJSON summarizes the artifact store in GET /modelz.
type ModelzStoreJSON struct {
	Versions []string `json:"versions"`
	Active   string   `json:"active,omitempty"`
}

// ModelzFeedbackJSON summarizes the feedback buffer in GET /modelz.
type ModelzFeedbackJSON struct {
	Len int `json:"len"`
	Cap int `json:"cap"`
}

// SwapResponse is the JSON reply of POST /modelz/promote.
type SwapResponse struct {
	Swapped  bool   `json:"swapped"`
	Version  string `json:"version"`
	Previous string `json:"previous,omitempty"`
}

// schemaWidth returns the plan-vector width of the server's platform
// universe — the width every served model must match.
func (s *Server) schemaWidth() (int, error) {
	sc, err := core.NewSchema(s.Platforms)
	if err != nil {
		return 0, err
	}
	return sc.Len(), nil
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleModelz(w http.ResponseWriter, r *http.Request, reqID string) {
	resp := ModelzResponse{
		Active:   s.Provider.Get().Artifact,
		Feedback: &ModelzFeedbackJSON{Len: s.Feedback.Len(), Cap: s.Feedback.Cap()},
	}
	if s.ModelStore != nil {
		versions, err := s.ModelStore.Versions()
		if err != nil {
			s.fail(w, reqID, http.StatusInternalServerError, err)
			return
		}
		active, _ := s.ModelStore.ActiveVersion()
		resp.Store = &ModelzStoreJSON{Versions: versions, Active: active}
	}
	s.writeJSON(w, resp)
}

// publish makes art the served version. It is the only code that moves the
// store's ACTIVE marker, swaps the provider, points the plan cache at a
// version or counts a swap, in that order:
//
//  1. validate art against the serving schema;
//  2. if pin is set and a store is configured, make the payload a stored
//     version (Store.Adopt) and move ACTIVE to it;
//  3. swap the provider, unless it already serves this payload as this version;
//  4. activate the served version in the plan cache, which flash-invalidates
//     plans the outgoing model scored;
//  5. count model_swaps_total and log.
//
// A step that fails returns before the next, so a failed store write leaves
// the provider, the cache and the counter untouched, and no replica serves a
// version its peers cannot converge on. Callers hold adminMu.
func (s *Server) publish(art *registry.Artifact, pin bool) (SwapResponse, error) {
	width, err := s.schemaWidth()
	if err != nil {
		return SwapResponse{}, err
	}
	if err := art.Validate(width, len(s.Platforms)); err != nil {
		return SwapResponse{}, err
	}
	p := s.Provider
	if pin && s.ModelStore != nil {
		v, err := s.ModelStore.Adopt(art)
		if err == nil {
			err = s.ModelStore.Activate(v)
		}
		if err != nil {
			return SwapResponse{}, &statusError{http.StatusInternalServerError, err}
		}
	}
	cur := p.Get()
	resp := SwapResponse{Version: cur.Version()}
	if cur.Artifact.Hash == "" || cur.Artifact.Hash != art.Hash || cur.Artifact.Version != art.Version {
		if _, err := p.Swap(art); err != nil {
			return SwapResponse{}, err
		}
		resp = SwapResponse{Swapped: true, Version: art.Version, Previous: cur.Version()}
	}
	s.PlanCache.Activate(p.Get().Version())
	if resp.Swapped {
		s.Metrics().Counter("model_swaps_total").Inc()
		s.Logger.Info("model published", "version", resp.Version, "previous", resp.Previous, "pinned", pin)
	}
	return resp, nil
}

// Publish makes art the served version, and with pin also the store's ACTIVE
// one. roboptd boots through it, pinning an artifact it brings (a -model file,
// a freshly trained model) and not one it read from the store: that one is
// already what ACTIVE names, and writing the marker again could undo a
// promotion another replica made since it was read.
func (s *Server) Publish(art *registry.Artifact, pin bool) (SwapResponse, error) {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	return s.publish(art, pin)
}

func (s *Server) handleModelzPromote(w http.ResponseWriter, r *http.Request, reqID string) {
	if s.ModelStore == nil {
		s.fail(w, reqID, http.StatusConflict, errors.New("service: no model store configured (-model-dir)"))
		return
	}
	version := r.URL.Query().Get("version")
	if version == "" {
		s.fail(w, reqID, http.StatusBadRequest, errors.New("service: promote needs ?version=vN"))
		return
	}
	art, err := s.ModelStore.Load(version)
	if err != nil {
		s.fail(w, reqID, http.StatusNotFound, err)
		return
	}
	// Pinned even when the provider already serves this version (it may have
	// booted on it through LoadActive's newest-version fallback): the choice
	// must survive a restart.
	resp, err := s.Publish(art, true)
	if err != nil {
		s.fail(w, reqID, statusOf(err, http.StatusConflict), err)
		return
	}
	s.writeJSON(w, resp)
}

func (s *Server) handleModelzFeedback(w http.ResponseWriter, r *http.Request, reqID string) {
	w.Header().Set("Content-Type", "text/csv")
	_ = tdgen.WriteCSV(w, s.Feedback.Dataset())
}
