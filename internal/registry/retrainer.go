package registry

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/mlmodel"
	"repro/internal/obs"
)

// Retrainer is the execution-feedback loop: it periodically fits a candidate
// model on the buffered (plan vector, observed runtime) samples, evaluates
// both the candidate and the active model on a held-out slice of the freshest
// feedback, and atomically promotes the candidate only when its holdout error
// did not regress. This is the paper's "re-train instead of re-calibrate"
// workflow running unattended inside the serving process.
type Retrainer struct {
	Provider *Provider
	Feedback *Feedback
	// Train fits a candidate on the assembled feedback (roboptd: one member
	// of the training recipe, tdgen.Size.Fit).
	Train func(*mlmodel.Dataset) (mlmodel.Model, error)
	// MinSamples is the fewest buffered feedback samples worth retraining
	// on (default 64).
	MinSamples int
	// HoldoutFrac is the feedback fraction held out for the promotion gate
	// (default 0.25).
	HoldoutFrac float64
	// Seed makes the holdout split deterministic.
	Seed int64
	// SchemaWidth and Platforms stamp promoted artifacts with deployment
	// metadata.
	SchemaWidth int
	Platforms   []string
	// Metrics, when set, receives retrain counters and durations (a nil
	// registry counts into nothing).
	Metrics *obs.Registry
	// Logger, when set, receives one structured record per retraining
	// attempt: promotions at Info, holdout regressions at Warn, skipped
	// attempts (insufficient or no new samples) at Debug, errors at Error.
	Logger *slog.Logger

	// mu serializes retraining attempts end-to-end: concurrent callers must
	// not train twice on the same data or interleave their publications.
	mu        sync.Mutex
	lastTotal int64
	// trainedUpTo is the feedback sequence number (Feedback.Total at
	// promotion time) covered by the active model's training set. Samples at
	// or beyond it are unseen by the incumbent and thus fair holdout
	// material. Zero means the active model trained on no feedback at all
	// (the boot model).
	trainedUpTo int64
}

// Outcome reports one retraining attempt.
type Outcome struct {
	// Promoted is true when the candidate replaced the active model.
	Promoted bool `json:"promoted"`
	// Reason is "promoted", "holdout-regression", "insufficient-samples",
	// "insufficient-unseen-samples" or "no-new-samples".
	Reason string `json:"reason"`
	// Version is the version the promoted artifact is served under: the
	// store's name for it, or its content-derived label without a store ("" when
	// not promoted).
	Version string `json:"version,omitempty"`
	// Candidate and Active are the holdout metrics behind the decision
	// (zero when the attempt was skipped).
	Candidate mlmodel.Metrics `json:"candidate"`
	Active    mlmodel.Metrics `json:"active"`
}

func (r *Retrainer) minSamples() int {
	if r.MinSamples > 0 {
		return r.MinSamples
	}
	return 64
}

func (r *Retrainer) holdoutFrac() float64 {
	if r.HoldoutFrac > 0 && r.HoldoutFrac < 1 {
		return r.HoldoutFrac
	}
	return 0.25
}

// logOutcome emits one structured record per retraining attempt, keyed by
// the outcome reason so operators can alert on regressions and confirm
// promotions without parsing free-form text.
func (r *Retrainer) logOutcome(out Outcome, err error) {
	if r.Logger == nil {
		return
	}
	if err != nil {
		r.Logger.Error("retrain failed", "err", err.Error())
		return
	}
	switch out.Reason {
	case "promoted":
		r.Logger.Info("retrain promoted",
			"version", out.Version,
			"candidateMAE", out.Candidate.MAE,
			"activeMAE", out.Active.MAE)
	case "holdout-regression":
		r.Logger.Warn("retrain rejected",
			"reason", out.Reason,
			"candidateMAE", out.Candidate.MAE,
			"activeMAE", out.Active.MAE)
	case "insufficient-samples", "insufficient-unseen-samples":
		r.Logger.Info("retrain skipped", "reason", out.Reason)
	default: // no-new-samples: the steady state, not worth Info noise.
		r.Logger.Debug("retrain skipped", "reason", out.Reason)
	}
}

// RetrainOnce performs one retraining attempt: assemble data, fit a
// candidate, gate on holdout error, and hand a candidate that passed to
// publish, which makes it the served model (storing it, swapping it in,
// telling the plan cache) or returns why it could not. The retrainer itself
// changes nothing outside its own bookkeeping and logs the attempt's outcome.
// Attempts are serialized internally.
func (r *Retrainer) RetrainOnce(publish func(*Artifact) error) (out Outcome, err error) {
	if r.Provider == nil || r.Feedback == nil || r.Train == nil || publish == nil {
		return Outcome{}, fmt.Errorf("registry: retrainer needs Provider, Feedback, Train and a publish function")
	}
	defer func() { r.logOutcome(out, err) }()
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.Metrics
	// failed counts an attempt that got as far as training and then broke.
	failed := func(err error) (Outcome, error) {
		m.Counter("retrain_failures_total").Inc()
		return Outcome{}, err
	}
	fb, spreads, firstSeq := r.Feedback.SnapshotSpreads()
	total := firstSeq + int64(fb.Len())
	m.Gauge("feedback_buffer_len").Set(float64(fb.Len()))
	if total == r.lastTotal {
		return Outcome{Reason: "no-new-samples"}, nil
	}
	if fb.Len() < r.minSamples() {
		return Outcome{Reason: "insufficient-samples"}, nil
	}
	// The holdout slice must judge both models on data neither trained on.
	// Feedback rows persist in the ring across rounds, so a plain split
	// would let the incumbent be scored on its own training data after one
	// promotion, biasing the gate toward it. Instead, only rows the active
	// model has never trained on (sequence >= trainedUpTo) are holdout
	// material; older rows go straight into the candidate's training set.
	seen := int(r.trainedUpTo - firstSeq)
	if seen < 0 {
		seen = 0
	}
	if seen > fb.Len() {
		seen = fb.Len()
	}
	fbSeen := &mlmodel.Dataset{X: fb.X[:seen], Y: fb.Y[:seen]}
	fbFresh := &mlmodel.Dataset{X: fb.X[seen:], Y: fb.Y[seen:]}
	freshTrain, holdout := fbFresh.Split(r.holdoutFrac(), r.Seed+total)
	if holdout.Len() == 0 {
		return Outcome{Reason: "insufficient-unseen-samples"}, nil
	}
	start := time.Now()
	m.Counter("retrain_total").Inc()
	// The candidate trains on every row not held out, plus a second copy of
	// the ones the serving model was least sure about.
	dup := oversampleHighSpread(fb, spreads, fbSeen, freshTrain)
	trainSet := fbSeen.Clone()
	for _, part := range []*mlmodel.Dataset{freshTrain, dup} {
		if err := trainSet.Merge(part); err != nil {
			return Outcome{}, fmt.Errorf("registry: feedback rows do not compose: %w", err)
		}
	}
	if dup.Len() > 0 {
		m.Counter("retrain_oversampled_total").Add(int64(dup.Len()))
	}
	cand, err := r.Train(trainSet)
	if err != nil {
		return failed(fmt.Errorf("registry: retraining: %w", err))
	}
	active := r.Provider.Get()
	out = Outcome{
		Candidate: mlmodel.Evaluate(cand, holdout),
		Active:    mlmodel.Evaluate(active.Artifact.Model, holdout),
	}
	m.Histogram("retrain_ms").Observe(float64(time.Since(start).Microseconds()) / 1000)
	r.lastTotal = total

	// Promotion gate: the candidate must be no worse than the active model
	// on held-out feedback. MAE is the primary criterion; ties promote (the
	// candidate has seen fresher data).
	if out.Candidate.MAE > out.Active.MAE {
		m.Counter("retrain_rejected_total").Inc()
		out.Reason = "holdout-regression"
		return out, nil
	}
	art, err := New(cand, r.SchemaWidth, r.Platforms, trainSet.Len(), out.Candidate)
	if err != nil {
		return failed(err)
	}
	// Labelled by content until a store names it, so a promotion without a
	// store is still a version the plan cache can tell from the last one.
	art.Version = "retrain-" + art.Hash[:8]
	if err := publish(art); err != nil {
		return failed(err)
	}
	out.Version = art.Version
	// Advance the watermark to the whole snapshot, not just the training
	// rows: holdout rows the candidate never saw are also retired from
	// future holdouts, which costs a few rows of holdout material but keeps
	// the "unseen by the incumbent" invariant a single sequence comparison.
	r.trainedUpTo = total
	m.Counter("retrain_promoted_total").Inc()
	m.Gauge("retrain_last_unix").Set(float64(time.Now().Unix()))
	out.Promoted = true
	out.Reason = "promoted"
	return out, nil
}

// oversampleHighSpread returns the training rows whose plans the serving
// model was least certain about — predictive spread above the snapshot's
// mean positive spread — for one extra inclusion in the candidate's training
// set. Only rows already destined for training (fbSeen and freshTrain) are
// duplicated; holdout rows are never touched, so the promotion gate stays
// unbiased. Row-to-spread matching is by row identity: the snapshot, the
// seen/fresh slices and the split all share the ring's row allocations.
// Deterministic — the decision depends only on the buffered spreads.
func oversampleHighSpread(fb *mlmodel.Dataset, spreads []float64, fbSeen, freshTrain *mlmodel.Dataset) *mlmodel.Dataset {
	var sum float64
	n := 0
	for _, s := range spreads {
		if s > 0 {
			sum += s
			n++
		}
	}
	dup := &mlmodel.Dataset{}
	if n == 0 {
		return dup
	}
	thr := sum / float64(n)
	spreadOf := make(map[*float64]float64, len(fb.X))
	for i, row := range fb.X {
		if len(row) > 0 {
			spreadOf[&row[0]] = spreads[i]
		}
	}
	for _, ds := range []*mlmodel.Dataset{fbSeen, freshTrain} {
		for i, row := range ds.X {
			if len(row) > 0 && spreadOf[&row[0]] > thr {
				dup.Append(row, ds.Y[i])
			}
		}
	}
	return dup
}
