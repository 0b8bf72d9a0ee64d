package service

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
)

// TestBudgetSoftDeadlineFollowsRemainingTime: the soft deadline handed to
// core is measured against what the request's context has left when the
// enumerate tier runs, so a request that spent most of its deadline_ms in
// the admission queue (or probing peers, or behind a fleet claim) still
// degrades before the hard cutoff.
func TestBudgetSoftDeadlineFollowsRemainingTime(t *testing.T) {
	// deadline_ms=600000, nine of the ten minutes gone before enumeration.
	late, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Minute))
	defer cancel()
	fresh, cancel2 := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel2()

	s := &Server{}
	if got := s.budget(late, false).SoftDeadline; got <= 0 || got > 48*time.Second {
		t.Errorf("late request: soft deadline %v, want (0, 48s] — 80%% of the minute left", got)
	}
	if got := s.budget(fresh, false).SoftDeadline; got <= 7*time.Minute || got > 8*time.Minute {
		t.Errorf("fresh request: soft deadline %v, want just under 8m", got)
	}
	if got := s.budget(context.Background(), false); got != (core.Budget{}) {
		t.Errorf("no deadline: budget %+v, want the server's", got)
	}
	if got := s.budget(context.Background(), true); !got.ForceDegraded {
		t.Error("shed request: budget does not force the degraded beam")
	}
	s.Budget.SoftDeadline = time.Second
	if got := s.budget(late, false).SoftDeadline; got != time.Second {
		t.Errorf("configured soft deadline overridden: %v", got)
	}
}
