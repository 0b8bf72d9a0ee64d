package registry

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
)

// Snapshot is one immutable published model. Requests resolve a snapshot
// once and use it for the whole optimization, so every response can report
// exactly the version that scored it even while swaps happen concurrently.
type Snapshot struct {
	Artifact *Artifact
}

// ActiveModel implements core.ModelProvider with a constant answer: a
// resolved snapshot IS the model for the rest of the request, which is what
// lets a response report exactly the version that scored it.
func (s *Snapshot) ActiveModel() core.CostModel { return s.Artifact.Model }

// Version returns the snapshot's version label.
func (s *Snapshot) Version() string {
	if s.Artifact.Version != "" {
		return s.Artifact.Version
	}
	return "unversioned"
}

// Provider publishes the active model to the serving path through a single
// atomic pointer: readers (one Load per request) never block, and Swap
// makes a promoted or followed artifact visible to all subsequent requests
// at once — the hot-swap primitive of the model lifecycle. In-flight
// requests keep the snapshot they resolved; there are no torn reads because
// snapshots are immutable.
type Provider struct {
	p atomic.Pointer[Snapshot]
}

// NewProvider returns a provider serving a.
func NewProvider(a *Artifact) (*Provider, error) {
	if a == nil || a.Model == nil {
		return nil, fmt.Errorf("registry: provider needs an artifact with a model")
	}
	p := &Provider{}
	p.p.Store(&Snapshot{Artifact: a})
	return p, nil
}

// Get returns the current snapshot. The result is never nil and never
// mutated; callers may hold it for the duration of a request.
func (p *Provider) Get() *Snapshot { return p.p.Load() }

// Swap atomically publishes a and returns the previously active snapshot.
func (p *Provider) Swap(a *Artifact) (*Snapshot, error) {
	if a == nil || a.Model == nil {
		return nil, fmt.Errorf("registry: cannot swap in an artifact without a model")
	}
	return p.p.Swap(&Snapshot{Artifact: a}), nil
}
