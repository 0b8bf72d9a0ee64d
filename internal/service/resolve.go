package service

import (
	"context"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/plancache"
)

// source names the tier that answered a request unit.
type source uint8

const (
	srcNone      source = iota // own enumeration, cache not in play
	srcMiss                    // own enumeration after every cache tier missed
	srcHit                     // this replica's plan cache
	srcCollapsed               // a concurrent identical request's enumeration
	srcDedup                   // an earlier member of the same batch
	srcPeer                    // a peer replica's cache: probed, or awaited behind its fleet claim
)

// sources is the one place a source is spelled for the outside: the X-Cache
// header (and a batch member's cache field), the reason on the trace link
// from the served request to the run that produced its plan, and the cache
// label of serving_requests_total.
var sources = [...]struct{ xcache, link, label string }{
	srcNone:      {"", "", "none"},
	srcMiss:      {"miss", "", "miss"},
	srcHit:       {"hit", "cache-origin", "hit"},
	srcCollapsed: {"collapsed", "singleflight-leader", "collapsed"},
	srcDedup:     {"dedup", "batch-dedup-leader", "dedup"},
	srcPeer:      {"peer", "peer-fill", "peer"},
}

// answer is what resolve returns: the plan that serves a request unit and
// the tier it came from. A cache tier sets cp; an enumeration sets res, and
// cp as well when its plan is cacheable.
type answer struct {
	src source
	cp  *plancache.CachedPlan
	res *core.Result
}

func (a answer) found() bool { return a.cp != nil || a.res != nil }

// tiers is the ordered list every plan answer is resolved through; a tier
// that cannot answer passes the unit on. The lead tiers cost a network
// round-trip or an enumeration, so a cacheable request runs them as the
// leader of an in-process singleflight — concurrent identical requests wait
// for it and are answered srcCollapsed — and they degrade in order: a sick
// fleet slows a request by bounded timeouts at worst, it never wedges one.
// The last tier always answers or fails.
var tiers = [...]struct {
	try  func(*Server, context.Context, *optimizeReq) (answer, error)
	lead bool
}{
	{try: (*Server).localTier},
	{try: (*Server).dedupTier},
	{try: (*Server).peerTier, lead: true},
	{try: (*Server).claimTier, lead: true},
	{try: (*Server).enumerate, lead: true},
}

// resolve walks tiers from index from (a batch has already taken its
// members through tier 0) and returns the first answer.
func (s *Server) resolve(ctx context.Context, q *optimizeReq, from int) (answer, error) {
	i := from
	for ; !tiers[i].lead; i++ {
		if a, err := tiers[i].try(s, ctx, q); a.found() || err != nil {
			return a, err
		}
	}
	// Shed requests lead no singleflight: their degraded beam must not be
	// published to followers expecting a full-quality plan.
	if q.canon == nil || q.shed {
		return s.walk(ctx, q, i)
	}
	var a answer
	cp, followed, err := s.PlanCache.DoBand(ctx, q.fp, q.version, q.band, func() (*plancache.CachedPlan, error) {
		var err error
		a, err = s.walk(ctx, q, i)
		return a.cp, err
	})
	if followed {
		a = answer{src: srcCollapsed, cp: cp}
	}
	return a, err
}

// walk tries tiers[from:] one after the other.
func (s *Server) walk(ctx context.Context, q *optimizeReq, from int) (a answer, err error) {
	for _, t := range tiers[from:] {
		if a, err = t.try(s, ctx, q); a.found() || err != nil {
			break
		}
	}
	return a, err
}

// localTier answers from this replica's plan cache.
func (s *Server) localTier(_ context.Context, q *optimizeReq) (answer, error) {
	if q.canon == nil {
		return answer{}, nil
	}
	cp, _ := s.PlanCache.GetBand(q.fp, q.version, q.band)
	return answer{src: srcHit, cp: cp}, nil
}

// dedupTier answers a duplicate batch member from the plan its leader — the
// first member with the same fingerprint — was served, whatever tier that
// came from. A leader that failed, or whose plan is not cacheable, passes
// the duplicate on to resolve for itself.
func (s *Server) dedupTier(_ context.Context, q *optimizeReq) (answer, error) {
	if q.leader == nil || q.leader.out == nil || q.leader.out.err != nil {
		return answer{}, nil
	}
	cp := q.leader.out.cp
	if cp != nil && cp.ModelVersion != q.version {
		cp = nil // a hot-swap landed between the two members
	}
	return answer{src: srcDedup, cp: cp}, nil
}

// fleet reports whether q may consult the fleet-shared tiers: they need a
// cache key, skip shed requests (whose beam is never published) and honor
// ?nopeer=1.
func (s *Server) fleet(q *optimizeReq) bool {
	return s.PeerFill != nil && q.canon != nil && !q.shed && !q.nopeer
}

// peerTier asks the fleet's replicas for their entry; a hit is installed in
// the local cache on the way.
func (s *Server) peerTier(ctx context.Context, q *optimizeReq) (answer, error) {
	if !s.fleet(q) {
		return answer{}, nil
	}
	q.fleetStart = time.Now()
	cp, ok := s.PlanCache.FillRemote(ctx, q.fp, q.version, q.band)
	if ok {
		q.peerMs = sinceMs(q.fleetStart)
	} else {
		s.peerFillMs("miss").Observe(sinceMs(q.fleetStart))
	}
	return answer{src: srcPeer, cp: cp}, nil
}

// claimTier runs the fleet singleflight for a key that is cold fleet-wide:
// exactly one replica claims it in the shared store and enumerates while the
// others wait on the claimant (see claimOrWait). Winning the claim answers
// nothing — the enumerate tier runs next and gives the claim up.
func (s *Server) claimTier(ctx context.Context, q *optimizeReq) (answer, error) {
	if !s.fleet(q) {
		return answer{}, nil
	}
	cp, release := s.claimOrWait(ctx, q.fp, q.version, q.band)
	q.release = release
	if cp != nil {
		q.peerMs = sinceMs(q.fleetStart)
	}
	return answer{src: srcPeer, cp: cp}, nil
}

// budget is the enumeration budget of a run under ctx.
func (s *Server) budget(ctx context.Context, shed bool) core.Budget {
	b := s.Budget
	if dl, ok := ctx.Deadline(); ok && b.SoftDeadline == 0 {
		// Degrade at 80% of the time the request has left — not of its
		// nominal deadline, part of which the admission queue, a peer probe
		// or a fleet-claim wait may already have spent — so it has slack to
		// finish its best-effort plan before the hard cutoff.
		b.SoftDeadline = time.Until(dl) * 4 / 5
	}
	if shed {
		// Load-shedding admission: skip straight to the degraded beam.
		b.ForceDegraded = true
	}
	return b
}

// enumerate is the last tier: the full vector-algebra enumeration, published
// to the plan cache when the request has a cache key.
func (s *Server) enumerate(ctx context.Context, q *optimizeReq) (answer, error) {
	if release := q.release; release != nil {
		// We hold the fleet claim: release it only after the result is
		// published to the local cache, so a waiter observing the release
		// always finds the entry (or learns the run failed and contends
		// anew).
		q.release = nil
		defer release()
	}
	cctx, err := core.NewContext(q.l, s.Platforms, s.Avail)
	if err != nil {
		// The decoded plan is well-formed but no configured platform can
		// run one of its operators: the client's error.
		return answer{}, &statusError{http.StatusBadRequest, err}
	}
	cctx.Workers = q.workers
	if cctx.Workers <= 0 {
		cctx.Workers = s.workers()
	}
	cctx.Budget = s.budget(ctx, q.shed)
	if q.lambda != 0 {
		// Risk-aware request: λ-adjusted scoring plus overlap pruning, so
		// near-ties the model cannot separate survive to the final selection.
		cctx.Risk = core.Risk{Lambda: q.lambda, KeepOverlap: true}
	}
	cctx.Trace, cctx.TraceParent = q.tr, q.parent
	res, err := cctx.OptimizeProvider(ctx, q.snap)
	if err != nil {
		return answer{}, err
	}
	a := answer{res: res}
	if q.canon == nil {
		return a, nil
	}
	a.src = srcMiss
	// A result that cannot be canonicalized is still a successful
	// optimization: serve it, cache nothing.
	if cp, err := plancache.FromResult(q.fp, q.canon, q.version, res); err == nil {
		cp.TraceID = traceIDOf(q.tr)
		a.cp = cp
		// Degraded plans are budget artifacts of one moment, not the
		// enumeration optimum — never cache them.
		if !res.Degraded {
			s.PlanCache.Put(cp)
		}
	}
	return a, nil
}
