// Package registry is the model lifecycle layer of the serving stack: it
// wraps trained mlmodel models in versioned artifacts with deployment
// metadata, stores them on disk, publishes the active one through an
// atomically hot-swappable provider, and buffers execution feedback.
//
// The paper's operational claim (Section VI) is that cheap training data
// frees the optimizer from hand-tuned cost models: instead of re-calibrating
// coefficients when the cluster drifts, one simply re-trains on fresh
// executions. Here that is an offline step — export the feedback buffer,
// merge it into TDGen data, train and save an artifact, then promote it into
// the store — because a model fitted on the served plans alone chose slower
// plans than the model it replaced (DESIGN.md deviation 10).
package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"time"

	"repro/internal/jsonlex"
	"repro/internal/mlmodel"
)

// Artifact is a versioned, self-describing model envelope: the trained model
// plus everything a deployment needs to decide whether it is safe to serve —
// the plan-vector schema width, the platform universe it was trained for,
// provenance (when, on how many rows), holdout quality at train time, and a
// content hash for integrity and change detection.
type Artifact struct {
	// Version is the store-assigned identifier ("v1", "v2", ...); empty
	// until the artifact is saved into a Store.
	Version string `json:"version,omitempty"`
	// Family names the model family, e.g. "ensemble(logtarget(gbm)×3)".
	Family string `json:"family"`
	// FeatureWidth is the plan-vector length the model was trained on
	// (core.Schema.Len() of the training universe). A file that leaves it
	// 0 gets the width Read recovers from the model.
	FeatureWidth int `json:"featureWidth"`
	// WidthExact reports whether FeatureWidth is exact or only a lower
	// bound recovered from a tree model's split indices.
	WidthExact bool `json:"widthExact"`
	// Platforms is the platform universe, in schema column order.
	Platforms []string `json:"platforms,omitempty"`
	// TrainedAt is the training timestamp.
	TrainedAt time.Time `json:"trainedAt"`
	// TrainingRows is the number of labelled rows the model was fit on.
	TrainingRows int `json:"trainingRows,omitempty"`
	// Holdout carries the held-out evaluation at train time; zero when the
	// trainer did not hold data out.
	Holdout mlmodel.Metrics `json:"holdout"`
	// Hash is the hex SHA-256 of the serialized model payload.
	Hash string `json:"hash"`

	// Model is the deserialized model itself (not part of the metadata
	// JSON; it is carried in a sibling field of the file envelope).
	Model mlmodel.Model `json:"-"`
}

// artifactFile is the on-disk layout Write encodes: metadata next to the
// compact mlmodel envelope. A bare mlmodel envelope (top-level
// "type"/"payload") is not an artifact file, and Read refuses it.
type artifactFile struct {
	Artifact *Artifact       `json:"artifact"`
	Model    json.RawMessage `json:"model"`
}

// New wraps a trained model in an artifact, filling the model-derived
// metadata (family, feature width, hash). The caller provides provenance:
// the platform universe, schema width, training-set size and holdout
// metrics. The declared schema width must not contradict the width recorded
// by (or recoverable from) the model.
func New(m mlmodel.Model, schemaWidth int, platforms []string, rows int, holdout mlmodel.Metrics) (*Artifact, error) {
	if m == nil {
		return nil, fmt.Errorf("registry: nil model")
	}
	raw, err := modelBytes(m)
	if err != nil {
		return nil, err
	}
	w, exact := mlmodel.FeatureWidth(m)
	if schemaWidth > 0 {
		if err := checkDeclaredWidth(m, schemaWidth); err != nil {
			return nil, err
		}
		w, exact = schemaWidth, true
	}
	sum := sha256.Sum256(raw)
	return &Artifact{
		Family:       mlmodel.FamilyName(m),
		FeatureWidth: w,
		WidthExact:   exact,
		Platforms:    append([]string(nil), platforms...),
		TrainedAt:    time.Now().UTC().Truncate(time.Second),
		TrainingRows: rows,
		Holdout:      holdout,
		Hash:         hex.EncodeToString(sum[:]),
		Model:        m,
	}, nil
}

// checkDeclaredWidth refuses a declared plan-vector width the model itself
// contradicts: an exact model width that differs, or a split on a feature the
// declared width does not have.
func checkDeclaredWidth(m mlmodel.Model, declared int) error {
	w, exact := mlmodel.FeatureWidth(m)
	if exact && w != declared {
		return fmt.Errorf("registry: model has feature width %d but schema width %d was declared", w, declared)
	}
	if !exact && w > declared {
		return fmt.Errorf("registry: model references feature %d but schema width %d was declared", w-1, declared)
	}
	return nil
}

// modelBytes serializes m through the mlmodel envelope in canonical
// (compact) JSON form, so content hashes are stable across the encoder's
// whitespace choices.
func modelBytes(m mlmodel.Model) ([]byte, error) {
	var buf bytes.Buffer
	if err := mlmodel.SaveModel(&buf, m); err != nil {
		return nil, fmt.Errorf("registry: serializing model: %w", err)
	}
	return canonicalJSON(buf.Bytes())
}

// canonicalJSON compacts raw JSON so semantically identical payloads hash
// identically regardless of formatting.
func canonicalJSON(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, fmt.Errorf("registry: canonicalizing model payload: %w", err)
	}
	return buf.Bytes(), nil
}

// Write encodes the artifact (metadata + model payload) to w.
func (a *Artifact) Write(w io.Writer) error {
	if a.Model == nil {
		return fmt.Errorf("registry: artifact %s has no model to write", a.Version)
	}
	raw, err := modelBytes(a.Model)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	return enc.Encode(artifactFile{Artifact: a, Model: raw})
}

// Read decodes an artifact written by Write, verifying the content hash. It
// reads r into one buffer and walks it once: the metadata object is decoded
// by encoding/json, the model by mlmodel.DecodeModel in place. The file's
// keys are matched as the model's are: exactly, once each, with unknown keys
// skipped and nothing but whitespace after the object.
func Read(r io.Reader) (*Artifact, error) {
	var buf bytes.Buffer
	if n := sizeOf(r); n > 0 {
		buf.Grow(n + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("registry: reading artifact: %w", err)
	}
	a, m, model, err := decodeFile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	if a == nil || m == nil {
		return nil, fmt.Errorf("registry: not an artifact file (missing artifact or model section)")
	}
	a.Model = m
	// Serving decides from the metadata alone whether the model fits its plan
	// vectors (Validate), so the metadata must not understate what the payload
	// indexes: that would pass Validate and run off the end of a plan vector
	// inside a request. An undeclared width is recovered from the model.
	if a.FeatureWidth <= 0 {
		a.FeatureWidth, a.WidthExact = mlmodel.FeatureWidth(m)
	} else if err := checkDeclaredWidth(m, a.FeatureWidth); err != nil {
		return nil, err
	}
	if a.Hash != "" {
		sum, err := modelHash(model)
		if err != nil {
			return nil, err
		}
		if sum != a.Hash {
			return nil, fmt.Errorf("registry: artifact hash mismatch: file says %.8s…, payload is %.8s…", a.Hash, sum)
		}
	}
	return a, nil
}

// decodeFile walks an artifact file's top-level object: the metadata, nil
// when the file has none, the model, and the model's span of data.
func decodeFile(data []byte) (a *Artifact, m mlmodel.Model, model []byte, err error) {
	s := jsonlex.Scanner{Data: data, What: "registry: decoding artifact"}
	if err := s.Open('{'); err != nil {
		return nil, nil, nil, err
	}
	var sawArtifact bool
	for first := true; ; first = false {
		ok, err := s.More(first, '}')
		if err != nil {
			return nil, nil, nil, err
		}
		if !ok {
			break
		}
		key, err := s.Key()
		if err != nil {
			return nil, nil, nil, err
		}
		s.SkipSpace()
		start := s.Pos
		switch {
		case string(key) == "artifact" && !sawArtifact:
			sawArtifact = true
			if s.Null() {
				continue
			}
			if err := s.Skip(1); err != nil {
				return nil, nil, nil, err
			}
			a = new(Artifact)
			if err := json.Unmarshal(data[start:s.Pos], a); err != nil {
				return nil, nil, nil, fmt.Errorf("registry: decoding artifact: %w", err)
			}
		case string(key) == "model" && m == nil:
			if m, err = mlmodel.DecodeModel(&s, 1); err != nil {
				return nil, nil, nil, fmt.Errorf("registry: artifact model payload: %w", err)
			}
			model = data[start:s.Pos]
		case bytes.EqualFold(key, []byte("artifact")), bytes.EqualFold(key, []byte("model")):
			return nil, nil, nil, s.Errorf("repeated or case-folded key %q", key)
		default:
			if err := s.Skip(1); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	if s.SkipSpace(); s.Pos != len(data) {
		return nil, nil, nil, s.Errorf("data after the artifact")
	}
	return a, m, model, nil
}

// sizeOf returns how many bytes r holds when r can tell (a file, a
// bytes.Reader), so that Read reads it into a buffer made once; 0 otherwise.
func sizeOf(r io.Reader) int {
	switch r := r.(type) {
	case interface{ Len() int }:
		return r.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return int(fi.Size())
		}
	}
	return 0
}

// modelHash returns the hex SHA-256 of a model's span of an artifact file:
// of the span itself when it holds no JSON whitespace, as Write leaves it,
// and of its compact form otherwise, so a reformatted file hashes as written.
func modelHash(model []byte) (string, error) {
	for _, c := range []byte(" \t\n\r") {
		if bytes.IndexByte(model, c) >= 0 {
			canon, err := canonicalJSON(model)
			if err != nil {
				return "", err
			}
			model = canon
			break
		}
	}
	sum := sha256.Sum256(model)
	return hex.EncodeToString(sum[:]), nil
}

// Validate checks the artifact against a serving configuration: the schema's
// plan-vector width and platform count. It fails fast on any mismatch that
// would make the model silently score garbage — an exact width that differs,
// a width lower bound that exceeds the schema, or a recorded platform set of
// the wrong size. Metadata a file left out (no platform list) passes only the
// checks it can support.
func (a *Artifact) Validate(schemaWidth, numPlatforms int) error {
	if a.Model == nil {
		return fmt.Errorf("registry: artifact %s carries no model", a.Version)
	}
	if a.FeatureWidth > 0 {
		if a.WidthExact && a.FeatureWidth != schemaWidth {
			return fmt.Errorf("registry: model %s was trained on %d-dimensional plan vectors but the configured platforms produce %d-dimensional vectors; retrain the model or adjust -platforms",
				a.describe(), a.FeatureWidth, schemaWidth)
		}
		if !a.WidthExact && a.FeatureWidth > schemaWidth {
			return fmt.Errorf("registry: model %s references plan-vector feature %d but the configured platforms produce only %d-dimensional vectors; retrain the model or adjust -platforms",
				a.describe(), a.FeatureWidth-1, schemaWidth)
		}
	}
	if len(a.Platforms) > 0 && len(a.Platforms) != numPlatforms {
		return fmt.Errorf("registry: model %s was trained for %d platforms (%v) but the server is configured for %d; retrain the model or adjust -platforms",
			a.describe(), len(a.Platforms), a.Platforms, numPlatforms)
	}
	return nil
}

func (a *Artifact) describe() string {
	if a.Version != "" {
		return a.Version + " (" + a.Family + ")"
	}
	return "(" + a.Family + ")"
}
