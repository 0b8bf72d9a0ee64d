package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
)

// The /modelz endpoint family is the model lifecycle's admin surface:
//
//   - GET  /modelz          — active artifact metadata, swap count, feedback
//     buffer state and store versions.
//   - POST /modelz/reload   — re-read the store's active artifact and
//     hot-swap it in if it differs from the served one.
//   - POST /modelz/promote  — ?version=vN: mark a stored version active and
//     hot-swap it in.
//   - POST /modelz/retrain  — run one retraining attempt synchronously and
//     report its outcome (the background loop's step, on demand).
//   - GET  /modelz/feedback — the buffered execution-feedback samples as CSV.
//
// Every way the served version changes — these three POSTs, the store follower,
// the background retrain loop and roboptd's boot — is a call of one routine,
// publish, made under the one admin mutex. /optimize never takes that mutex:
// requests read the provider's atomic pointer only.

// ModelzResponse is the JSON reply of GET /modelz.
type ModelzResponse struct {
	// Active is the served artifact's metadata (its model is not included).
	Active *registry.Artifact `json:"active"`
	// Swaps counts hot-swaps since the provider was created.
	Swaps int64 `json:"swaps"`
	// Store reports the persisted versions when a model store is configured.
	Store *ModelzStoreJSON `json:"store,omitempty"`
	// Feedback reports the execution-feedback buffer when one is configured.
	Feedback *ModelzFeedbackJSON `json:"feedback,omitempty"`
	// Retrainer reports whether a background retraining loop is configured.
	Retrainer bool `json:"retrainer"`
}

// ModelzStoreJSON summarizes the artifact store in GET /modelz.
type ModelzStoreJSON struct {
	Versions []string `json:"versions"`
	Active   string   `json:"active,omitempty"`
}

// ModelzFeedbackJSON summarizes the feedback buffer in GET /modelz.
type ModelzFeedbackJSON struct {
	Len   int   `json:"len"`
	Cap   int   `json:"cap"`
	Total int64 `json:"total"`
}

// SwapResponse is the JSON reply of POST /modelz/reload and /modelz/promote.
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
	p := s.provider()
	if p == nil {
		s.fail(w, reqID, http.StatusServiceUnavailable, errors.New("service: no model configured"))
		return
	}
	snap := p.Get()
	resp := ModelzResponse{Active: snap.Artifact, Swaps: p.Swaps(), Retrainer: s.Retrainer != nil}
	if s.ModelStore != nil {
		versions, err := s.ModelStore.Versions()
		if err != nil {
			s.fail(w, reqID, http.StatusInternalServerError, err)
			return
		}
		active, _ := s.ModelStore.ActiveVersion()
		resp.Store = &ModelzStoreJSON{Versions: versions, Active: active}
	}
	if s.Feedback != nil {
		resp.Feedback = &ModelzFeedbackJSON{
			Len:   s.Feedback.Len(),
			Cap:   s.Feedback.Cap(),
			Total: s.Feedback.Total(),
		}
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
	p := s.provider()
	if p == nil {
		return SwapResponse{}, errors.New("service: no model configured")
	}
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
	if s.PlanCache != nil {
		s.PlanCache.Activate(p.Get().Version())
	}
	if resp.Swapped {
		s.Metrics().Counter("model_swaps_total").Inc()
		if s.Logger != nil {
			s.Logger.Info("model published", "version", resp.Version, "previous", resp.Previous, "pinned", pin)
		}
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

// Retrain runs one retraining attempt under the admin lock; a candidate that
// passes the retrainer's gate is published pinned. It is the step behind
// POST /modelz/retrain and StartRetrainLoop.
func (s *Server) Retrain() (registry.Outcome, error) {
	if s.Retrainer == nil {
		return registry.Outcome{}, &statusError{http.StatusConflict, errors.New("service: no retrainer configured (-retrain-interval)")}
	}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	return s.Retrainer.RetrainOnce(func(art *registry.Artifact) error {
		_, err := s.publish(art, true)
		return err
	})
}

// StartRetrainLoop runs Retrain every interval (≤ 0 means one minute) until
// ctx is done; the retrainer logs each attempt, and a failed one does not stop
// the loop. The returned channel closes when the loop's goroutine has exited.
func (s *Server) StartRetrainLoop(ctx context.Context, interval time.Duration) (<-chan struct{}, error) {
	if s.Retrainer == nil {
		return nil, errors.New("service: no retrainer configured (-retrain-interval)")
	}
	if interval <= 0 {
		interval = time.Minute
	}
	return every(ctx, interval, func() { _, _ = s.Retrain() }, nil), nil
}

func (s *Server) handleModelzReload(w http.ResponseWriter, r *http.Request, reqID string) {
	resp, err := s.SyncStore()
	if err != nil {
		s.fail(w, reqID, http.StatusConflict, err)
		return
	}
	s.writeJSON(w, resp)
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

func (s *Server) handleModelzRetrain(w http.ResponseWriter, r *http.Request, reqID string) {
	out, err := s.Retrain()
	if err != nil {
		s.fail(w, reqID, statusOf(err, http.StatusInternalServerError), err)
		return
	}
	s.writeJSON(w, out)
}

func (s *Server) handleModelzFeedback(w http.ResponseWriter, r *http.Request, reqID string) {
	if s.Feedback == nil {
		s.fail(w, reqID, http.StatusConflict, errors.New("service: no feedback buffer configured"))
		return
	}
	ds := s.Feedback.Dataset()
	w.Header().Set("Content-Type", "text/csv")
	for i := 0; i < ds.Len(); i++ {
		for _, x := range ds.X[i] {
			fmt.Fprintf(w, "%s,", strconv.FormatFloat(x, 'g', -1, 64))
		}
		fmt.Fprintln(w, strconv.FormatFloat(ds.Y[i], 'g', -1, 64))
	}
}
