package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/plan"
	"repro/internal/plancache"
)

// DefaultMaxBatchMembers caps POST /optimize/batch when
// Server.MaxBatchMembers is unset.
const DefaultMaxBatchMembers = 64

// BatchRequest is the body of POST /optimize/batch: a slice of JSON logical
// plans, each in the same format POST /optimize accepts.
type BatchRequest struct {
	Plans []json.RawMessage `json:"plans"`
}

// BatchMemberResult is one member's outcome inside a BatchResponse: either
// Plan (the same shape as a POST /optimize reply) or Error. Cache reports
// how the member was served, with the values POST /optimize sends as
// X-Cache: hit (plan cache), collapsed (another in-flight request's
// enumeration), dedup (another member of this batch with the same
// fingerprint), peer (a peer replica's cache over the fleet-shared tier),
// miss (own enumeration, cache populated) or empty (cache not in play).
type BatchMemberResult struct {
	Plan  *OptimizeResponse `json:"plan,omitempty"`
	Error string            `json:"error,omitempty"`
	Cache string            `json:"cache,omitempty"`
}

// BatchResponse is the reply of POST /optimize/batch. Members appear in
// Results in request order. The batch itself is one admission unit: it is
// admitted, queued, shed or refused as a whole.
type BatchResponse struct {
	RequestID string `json:"requestId"`
	// Members is the submitted plan count; Distinct the number of unique
	// canonical fingerprints among them (unfingerprintable members count as
	// distinct).
	Members  int `json:"members"`
	Distinct int `json:"distinct"`
	// CacheHits counts members served from the plan cache, Deduped members
	// served from another member's enumeration in this batch, Errors
	// members that failed individually.
	CacheHits int `json:"cacheHits"`
	Deduped   int `json:"deduped"`
	Errors    int `json:"errors"`
	// Shed reports that the whole batch was admitted in load-shedding mode:
	// every enumerated member carries the degraded beam's plan.
	Shed    bool    `json:"shed,omitempty"`
	TotalMs float64 `json:"totalMs"`
	// TraceID names the batch's shared trace (every member is a child span
	// of its root): the remote W3C trace ID when the caller sent a
	// traceparent header, the batch request ID otherwise.
	TraceID string              `json:"traceId,omitempty"`
	Results []BatchMemberResult `json:"results"`
}

func (s *Server) maxBatchMembers() int {
	if s.MaxBatchMembers > 0 {
		return s.MaxBatchMembers
	}
	return DefaultMaxBatchMembers
}

// batchMember is one plan of a batch on its way to a result: q is nil when
// the plan did not parse, out is set once the member is served.
type batchMember struct {
	q   *optimizeReq
	out *optimizeOut
}

// handleOptimizeBatch admits a slice of plans as one unit and takes every
// member through the same answer path a single request uses: all
// fingerprinted members through the local cache tier first, then the
// remaining distinct members, fanned out across the enumeration worker pool,
// through the tiers after it, then each duplicate — whose leader, the first
// member with its fingerprint, has an outcome by now — through the dedup
// tier.
func (s *Server) handleOptimizeBatch(w http.ResponseWriter, r *http.Request) {
	var breq BatchRequest
	p, ctx, ls, ok := s.prelude(w, r, "batch", `POST {"plans": [...]} — a slice of JSON logical plans`, func(body []byte) error {
		if err := json.Unmarshal(body, &breq); err != nil {
			return err
		}
		if len(breq.Plans) == 0 {
			return errors.New("service: batch carries no plans")
		}
		if limit := s.maxBatchMembers(); len(breq.Plans) > limit {
			return &statusError{http.StatusRequestEntityTooLarge,
				fmt.Errorf("service: batch of %d plans exceeds the member limit of %d", len(breq.Plans), limit)}
		}
		return nil
	})
	if !ok {
		return
	}
	// One admission unit: the batch holds one slot (its members share the
	// enumeration worker pool internally), so a 64-member batch cannot
	// monopolize 64 admission slots.
	defer ls.done()

	// The whole batch is one trace: a "batch" root span with one "member"
	// child span per plan, so the fan-out reads as a single tree. A
	// propagated traceparent names the trace; its sampled flag forces
	// retention, exactly like ?trace=1 on /optimize.
	btr := s.startTrace(&p, p.remoteSampled)
	broot := btr.StartSpan(nil, "batch")
	broot.SetInt("members", int64(len(breq.Plans)))

	m := s.Metrics()
	m.Histogram("batch_size").Observe(float64(len(breq.Plans)))

	// Parse and fingerprint every member up front; duplicates point at the
	// first member with their fingerprint (the leader) and never enumerate.
	members := make([]batchMember, len(breq.Plans))
	firstByFP := make(map[plancache.Fingerprint]int, len(breq.Plans))
	distinct := 0
	for i, raw := range breq.Plans {
		l, err := plan.DecodeJSONPlan(raw)
		if err != nil {
			members[i].out = &optimizeOut{status: http.StatusBadRequest, err: fmt.Errorf("member %d: %w", i, err), early: true}
			s.account(&p, members[i].out)
			continue
		}
		q := s.unit(&p, l)
		q.id = fmt.Sprintf("%s.%d", p.id, i)
		q.tr, q.member = btr, true
		q.parent = btr.StartSpan(broot, "member")
		q.parent.SetStr("requestId", q.id)
		members[i].q = q
		if q.canon != nil {
			if j, seen := firstByFP[q.fp]; seen {
				q.leader = &members[j]
				continue
			}
			firstByFP[q.fp] = i
		}
		distinct++
	}
	settle := func(mb *batchMember, out *optimizeOut) {
		mb.out = out
		mb.q.parent.End()
	}

	// Local tier: every fingerprinted member is looked up exactly once
	// (duplicates included — they share the entry) before any enumeration.
	for i := range members {
		if mb := &members[i]; mb.q != nil {
			if a, _ := s.localTier(ctx, mb.q); a.found() {
				settle(mb, s.finish(ctx, mb.q, a, nil))
			}
		}
	}

	// Fan the remaining distinct members across the enumeration pool:
	// `fanout` members resolve concurrently, each with an equal share of the
	// worker budget, so a batch uses the same parallelism one request would.
	// They enter at tier 1 — the local tier is behind them.
	var runnable []*batchMember
	for i := range members {
		if mb := &members[i]; mb.out == nil && mb.q.leader == nil {
			runnable = append(runnable, mb)
		}
	}
	if n := len(runnable); n > 0 {
		workers := s.workers()
		fanout := min(n, workers)
		sem := make(chan struct{}, fanout)
		var wg sync.WaitGroup
		for _, mb := range runnable {
			wg.Add(1)
			go func(mb *batchMember) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				mb.q.workers = max(1, workers/fanout)
				settle(mb, s.serve(ctx, mb.q, 1))
			}(mb)
		}
		wg.Wait()
	}
	// What is left are duplicates, whose leaders now all have an outcome.
	for i := range members {
		if mb := &members[i]; mb.out == nil {
			settle(mb, s.serve(ctx, mb.q, 1))
		}
	}

	resp := BatchResponse{
		RequestID: p.id,
		Members:   len(members),
		Distinct:  distinct,
		Shed:      p.shed,
		Results:   make([]BatchMemberResult, len(members)),
	}
	degraded := 0
	for i := range members {
		out := members[i].out
		if out.err != nil {
			resp.Errors++
			m.Counter("batch_member_errors_total").Inc()
			resp.Results[i] = BatchMemberResult{Error: out.err.Error()}
			continue
		}
		switch out.src {
		case srcHit, srcCollapsed:
			resp.CacheHits++
		case srcDedup:
			resp.Deduped++
			m.Counter("batch_dedup_total").Inc()
		}
		if out.resp.Degraded {
			degraded++
		}
		resp.Results[i] = BatchMemberResult{Plan: &out.resp, Cache: sources[out.src].xcache}
	}
	resp.TotalMs = sinceMs(p.start)
	resp.TraceID = traceIDOf(btr)

	// Close the shared trace once the whole fan-out is accounted for; a
	// batch with any degraded member is notable, like a degraded single
	// request.
	broot.SetInt("distinct", int64(distinct))
	broot.SetInt("deduped", int64(resp.Deduped))
	broot.SetInt("cacheHits", int64(resp.CacheHits))
	broot.SetInt("errors", int64(resp.Errors))
	broot.SetInt("degraded", int64(degraded))
	broot.End()
	notable := ""
	if degraded > 0 {
		notable = "degraded"
	}
	s.Tracer.Finish(btr, p.remoteSampled, notable)
	s.writeJSON(w, resp)
}
