package plancache

import (
	"context"
	"errors"
	"sync"
)

// flight is one in-progress computation followers can wait on.
type flight struct {
	done chan struct{}
	cp   *CachedPlan
	err  error
	// abandoned marks a flight whose leader's own context was cancelled:
	// followers must not inherit that outcome, so they re-arm and elect a
	// new leader instead of returning the leader's cancellation.
	abandoned bool
}

// group collapses concurrent calls with the same key into one execution.
type group struct {
	mu sync.Mutex
	m  map[string]*flight
}

// do runs fn once per key among concurrent callers. The first caller (the
// leader) executes fn; everyone else (followers) waits for the leader's
// result. collapsed reports whether this caller was a follower.
//
// Deadline semantics: a follower waits under its own ctx only — a follower
// whose deadline expires returns its own ctx error while the leader keeps
// running. Conversely, followers never inherit the leader's cancellation:
// when the leader's own ctx caused its failure, the flight is marked
// abandoned and waiting followers re-arm, electing a new leader among
// themselves.
func (g *group) do(ctx context.Context, k string, fn func() (*CachedPlan, error)) (cp *CachedPlan, collapsed bool, err error) {
	for {
		g.mu.Lock()
		if g.m == nil {
			g.m = map[string]*flight{}
		}
		if f, ok := g.m[k]; ok {
			g.mu.Unlock()
			select {
			case <-ctx.Done():
				return nil, true, ctx.Err()
			case <-f.done:
				if f.abandoned {
					continue
				}
				return f.cp, true, f.err
			}
		}
		f := &flight{done: make(chan struct{})}
		g.m[k] = f
		g.mu.Unlock()

		func() {
			defer func() {
				g.mu.Lock()
				delete(g.m, k)
				g.mu.Unlock()
				close(f.done)
			}()
			f.cp, f.err = fn()
			if f.err != nil && ctx.Err() != nil &&
				(errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
				f.abandoned = true
			}
		}()
		return f.cp, false, f.err
	}
}

// DoBand collapses concurrent computations of the same (fingerprint,
// version) key in one risk band (see RiskBand; "" is the point-estimate λ=0
// band): one caller runs fn, concurrent identical callers share its result
// (see group.do for the deadline and re-arm semantics). Followers are counted
// as collapsed requests. Requests in different λ bands never collapse into
// each other's computation.
func (c *Cache) DoBand(ctx context.Context, fp Fingerprint, version, band string, fn func() (*CachedPlan, error)) (cp *CachedPlan, collapsed bool, err error) {
	cp, collapsed, err = c.flight.do(ctx, key(fp, version, band), fn)
	if collapsed && err == nil {
		c.collapsed.Inc()
	}
	return cp, collapsed, err
}
