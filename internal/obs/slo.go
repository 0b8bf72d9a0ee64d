package obs

import (
	"sync"
	"time"
)

// SLO tracks a latency service-level objective over rolling windows and
// reports multi-window error-budget burn rates, the standard fast/slow-burn
// alerting shape: a request is "good" when it succeeded AND finished within
// the latency objective; the error rate over a window, divided by the
// budget (1 - target), is that window's burn rate. Burn 1.0 means the
// budget is being spent exactly as fast as the SLO allows; sustained burn
// above 1 in every window means the objective is being breached right now,
// not just by an old spike.
//
// The implementation is a per-second ring sized to the longest window. Each
// slot remembers the epoch second it was written for, so stale slots are
// lazily discarded on both record and read — there is no background ticker
// to manage. The clock is injectable for deterministic tests.

// DefaultSLOWindows are the rolling windows tracked when none are
// configured: a fast window that reacts within a load test, and two slower
// ones that smooth out bursts.
var DefaultSLOWindows = []time.Duration{time.Minute, 5 * time.Minute, 30 * time.Minute}

// sloSlot is one second of traffic.
type sloSlot struct {
	sec   int64 // epoch second this slot holds data for
	total int64
	good  int64
}

// SLO is a rolling-window latency SLO tracker. Safe for concurrent use.
type SLO struct {
	objectiveMs float64
	target      float64
	windows     []time.Duration
	now         func() time.Time

	mu    sync.Mutex
	slots []sloSlot
}

// NewSLO returns a tracker for "fraction target of requests succeed within
// objectiveMs", measured over DefaultSLOWindows. target is clamped to
// [0, 0.9999] so the burn-rate denominator stays positive.
func NewSLO(objectiveMs, target float64) *SLO {
	return NewSLOClock(objectiveMs, target, DefaultSLOWindows, time.Now)
}

// NewSLOClock is NewSLO with explicit windows and clock, for tests. Windows
// must be non-empty; the ring is sized to the longest.
func NewSLOClock(objectiveMs, target float64, windows []time.Duration, now func() time.Time) *SLO {
	if target < 0 {
		target = 0
	}
	if target > 0.9999 {
		target = 0.9999
	}
	if len(windows) == 0 {
		windows = DefaultSLOWindows
	}
	longest := windows[0]
	for _, w := range windows {
		if w > longest {
			longest = w
		}
	}
	return &SLO{
		objectiveMs: objectiveMs,
		target:      target,
		windows:     append([]time.Duration(nil), windows...),
		now:         now,
		slots:       make([]sloSlot, int(longest/time.Second)+1),
	}
}

// ObjectiveMs returns the latency objective in milliseconds.
func (s *SLO) ObjectiveMs() float64 {
	return s.objectiveMs
}

// Target returns the availability target (fraction of good requests).
func (s *SLO) Target() float64 {
	return s.target
}

// Record counts one request: good when it succeeded and met the latency
// objective.
func (s *SLO) Record(latencyMs float64, ok bool) {
	sec := s.now().Unix()
	good := ok && latencyMs <= s.objectiveMs
	s.mu.Lock()
	slot := &s.slots[sec%int64(len(s.slots))]
	if slot.sec != sec {
		slot.sec, slot.total, slot.good = sec, 0, 0
	}
	slot.total++
	if good {
		slot.good++
	}
	s.mu.Unlock()
}

// SLOWindow is one rolling window's state: traffic, error rate and burn
// rate. BurnRate is ErrorRate divided by the error budget (1 - target); a
// window with no traffic reports zero burn.
type SLOWindow struct {
	Window    string  `json:"window"`
	Seconds   float64 `json:"seconds"`
	Total     int64   `json:"total"`
	Good      int64   `json:"good"`
	ErrorRate float64 `json:"errorRate"`
	BurnRate  float64 `json:"burnRate"`
}

// SLOSnapshot is the JSON-ready state of the tracker.
type SLOSnapshot struct {
	ObjectiveMs float64     `json:"objectiveMs"`
	Target      float64     `json:"target"`
	Windows     []SLOWindow `json:"windows"`
	// Breached is true when every window that has traffic is burning budget
	// faster than the SLO allows (burn rate > 1) — the multi-window AND that
	// makes the signal robust to both stale spikes and brand-new noise.
	Breached bool `json:"breached"`
}

// Snapshot reports every window's burn rate and the combined breach verdict.
func (s *SLO) Snapshot() SLOSnapshot {
	nowSec := s.now().Unix()
	snap := SLOSnapshot{
		ObjectiveMs: s.objectiveMs,
		Target:      s.target,
		Windows:     make([]SLOWindow, 0, len(s.windows)),
	}
	budget := 1 - s.target
	s.mu.Lock()
	defer s.mu.Unlock()
	sawTraffic := false
	allBurning := true
	for _, w := range s.windows {
		span := int64(w / time.Second)
		var total, good int64
		// Sum the slots covering (nowSec-span, nowSec]; a slot counts only
		// if it was written for a second inside the window.
		for off := int64(0); off < span && off < int64(len(s.slots)); off++ {
			sec := nowSec - off
			slot := s.slots[sec%int64(len(s.slots))]
			if slot.sec == sec {
				total += slot.total
				good += slot.good
			}
		}
		win := SLOWindow{
			Window:  w.String(),
			Seconds: w.Seconds(),
			Total:   total,
			Good:    good,
		}
		if total > 0 {
			win.ErrorRate = float64(total-good) / float64(total)
			win.BurnRate = win.ErrorRate / budget
			sawTraffic = true
			if win.BurnRate <= 1 {
				allBurning = false
			}
		}
		snap.Windows = append(snap.Windows, win)
	}
	snap.Breached = sawTraffic && allBurning
	return snap
}
