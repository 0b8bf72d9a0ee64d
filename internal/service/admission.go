package service

import (
	"context"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Admission defaults. MaxConcurrent defaults to twice the scheduler
// parallelism (optimizations are CPU-bound but interleave model inference),
// MaxQueue to four waiters per slot, and shedding starts at half a full
// queue.
const (
	DefaultShedFraction = 0.5
	DefaultRetryAfter   = time.Second
)

// admitOutcome is the admission layer's verdict for one request unit.
type admitOutcome int

const (
	// admitOK: a slot is held; run the full optimization.
	admitOK admitOutcome = iota
	// admitShed: a slot is held, but the queue was deep when the request
	// arrived — serve the degraded beam (core.Budget.ForceDegraded) so the
	// backlog drains instead of compounding.
	admitShed
	// admitRejected: the queue was full; refuse with 429 + Retry-After.
	admitRejected
	// admitCanceled: the request's deadline or connection expired while it
	// waited in the queue.
	admitCanceled
)

// Admission is the first layer of the serving path: a bounded concurrency
// gate with a bounded wait queue in front of it. At most MaxConcurrent
// request units optimize at once; up to MaxQueue more wait for a slot
// (honoring their deadlines); everything beyond that is refused immediately
// with 429 so overload turns into fast feedback instead of unbounded
// latency. Requests that had to queue while the backlog was already deep
// (≥ ShedFraction of the queue) are admitted in shed mode: the optimizer
// serves its degraded beam, trading plan quality for drain rate before any
// request has to be refused.
//
// The zero value is not usable directly; leave Server.Admission nil to
// admit everything immediately.
type Admission struct {
	// MaxConcurrent caps concurrently optimizing request units. Zero or
	// negative resolves to 2×GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue caps waiting request units. Zero resolves to
	// 4×MaxConcurrent; negative disables queueing (no slot → 429).
	MaxQueue int
	// ShedFraction is the queue occupancy (fraction of MaxQueue, measured
	// when the request joins the queue) at which admitted requests are shed
	// to the degraded beam. Zero resolves to DefaultShedFraction; values
	// ≥ 1 disable shedding short of a full queue.
	ShedFraction float64
	// RetryAfter is the hint sent in the Retry-After header with each 429.
	// Zero resolves to DefaultRetryAfter.
	RetryAfter time.Duration
	// Metrics receives the admission counters; Server.Handler wires it to
	// the server registry when nil.
	Metrics *obs.Registry

	once   sync.Once
	slots  chan struct{}
	queued atomic.Int64
}

func (a *Admission) init() {
	a.once.Do(func() {
		a.slots = make(chan struct{}, a.maxConcurrent())
	})
}

func (a *Admission) maxConcurrent() int {
	if a.MaxConcurrent > 0 {
		return a.MaxConcurrent
	}
	return 2 * runtime.GOMAXPROCS(0)
}

func (a *Admission) maxQueue() int {
	if a.MaxQueue > 0 {
		return a.MaxQueue
	}
	if a.MaxQueue < 0 {
		return 0
	}
	return 4 * a.maxConcurrent()
}

// shedAt returns the queue occupancy at which admissions shed.
func (a *Admission) shedAt() int {
	f := a.ShedFraction
	if f == 0 {
		f = DefaultShedFraction
	}
	return int(math.Ceil(f * float64(a.maxQueue())))
}

// retryAfterSeconds renders the Retry-After header value (whole seconds,
// rounded up).
func (a *Admission) retryAfterSeconds() string {
	d := a.RetryAfter
	if d <= 0 {
		d = DefaultRetryAfter
	}
	return strconv.Itoa(int(math.Ceil(d.Seconds())))
}

// QueueDepth reports the currently waiting request units.
func (a *Admission) QueueDepth() int { return int(a.queued.Load()) }

// inFlight reports the currently admitted request units.
func (a *Admission) inFlight() int {
	a.init()
	return len(a.slots)
}

// Acquire admits one request unit. The returned release func must be called
// exactly once when the outcome is admitOK or admitShed; it is nil for
// admitRejected and admitCanceled. The four outcome counters partition
// admission_offered_total: offered = admitted + shed + rejected + canceled.
func (a *Admission) Acquire(ctx context.Context) (admitOutcome, func()) {
	a.init()
	m := a.Metrics
	m.Counter("admission_offered_total").Inc()
	admitted := m.Counter("admission_admitted_total")
	var relOnce sync.Once
	release := func() { relOnce.Do(func() { <-a.slots }) }

	// Fast path: a free slot means no pressure — admit in full.
	select {
	case a.slots <- struct{}{}:
		admitted.Inc()
		return admitOK, release
	default:
	}

	// No free slot: join the bounded queue, or be refused.
	q := a.queued.Add(1)
	if int(q) > a.maxQueue() {
		a.queued.Add(-1)
		m.Counter("admission_rejected_total").Inc()
		return admitRejected, nil
	}
	// The shed decision is made at enqueue time from the backlog this
	// request joined behind: a deep queue now means full-quality service
	// later would only compound the wait.
	shed := int(q) >= a.shedAt()
	depth := m.Gauge("admission_queue_depth")
	depth.Add(1)
	start := time.Now()
	defer func() {
		a.queued.Add(-1)
		depth.Add(-1)
		m.Histogram("admission_wait_ms").Observe(sinceMs(start))
	}()
	select {
	case a.slots <- struct{}{}:
		if shed {
			m.Counter("admission_shed_total").Inc()
			return admitShed, release
		}
		admitted.Inc()
		return admitOK, release
	case <-ctx.Done():
		m.Counter("admission_canceled_total").Inc()
		return admitCanceled, nil
	}
}
