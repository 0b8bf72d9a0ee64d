package obs

import (
	"testing"
	"time"
)

// sloClock is a settable synthetic clock for SLO tests.
type sloClock struct{ t time.Time }

func (c *sloClock) now() time.Time          { return c.t }
func (c *sloClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestSLO(objectiveMs, target float64, windows ...time.Duration) (*SLO, *sloClock) {
	clk := &sloClock{t: time.Unix(1_700_000_000, 0)}
	return NewSLOClock(objectiveMs, target, windows, clk.now), clk
}

func TestSLOAllGood(t *testing.T) {
	s, _ := newTestSLO(100, 0.99, time.Minute)
	for i := 0; i < 50; i++ {
		s.Record(10, true)
	}
	snap := s.Snapshot()
	w := snap.Windows[0]
	if w.Total != 50 || w.Good != 50 || w.BurnRate != 0 {
		t.Errorf("window = %+v", w)
	}
	if snap.Breached {
		t.Error("all-good traffic must not breach")
	}
}

func TestSLOBurnRateMath(t *testing.T) {
	// target 0.99 → budget 1%. A 5% error rate burns at 5x.
	s, _ := newTestSLO(100, 0.99, time.Minute)
	for i := 0; i < 95; i++ {
		s.Record(10, true)
	}
	for i := 0; i < 5; i++ {
		s.Record(500, true) // over latency objective → bad
	}
	w := s.Snapshot().Windows[0]
	if w.ErrorRate < 0.049 || w.ErrorRate > 0.051 {
		t.Errorf("errorRate = %v, want 0.05", w.ErrorRate)
	}
	if w.BurnRate < 4.9 || w.BurnRate > 5.1 {
		t.Errorf("burnRate = %v, want 5", w.BurnRate)
	}
}

func TestSLOErrorsCountAgainstBudget(t *testing.T) {
	s, _ := newTestSLO(100, 0.9, time.Minute)
	s.Record(10, false) // fast but failed → bad
	w := s.Snapshot().Windows[0]
	if w.Good != 0 || w.Total != 1 {
		t.Errorf("window = %+v", w)
	}
}

func TestSLOWindowExpiry(t *testing.T) {
	s, clk := newTestSLO(100, 0.99, time.Minute)
	for i := 0; i < 10; i++ {
		s.Record(500, true) // all bad
	}
	if !s.Snapshot().Breached {
		t.Fatal("immediate breach expected")
	}
	// Two minutes later the 1m window has rolled past the bad traffic.
	clk.advance(2 * time.Minute)
	snap := s.Snapshot()
	if snap.Windows[0].Total != 0 {
		t.Errorf("expired traffic still counted: %+v", snap.Windows[0])
	}
	if snap.Breached {
		t.Error("breach must clear once the window rolls")
	}
}

func TestSLOMultiWindowBreach(t *testing.T) {
	s, clk := newTestSLO(100, 0.9, time.Minute, 5*time.Minute)
	// Old bad burst: burns the 5m window but not the 1m one.
	for i := 0; i < 100; i++ {
		s.Record(500, true)
	}
	clk.advance(2 * time.Minute)
	for i := 0; i < 100; i++ {
		s.Record(10, true) // recent traffic is clean
	}
	snap := s.Snapshot()
	if snap.Windows[0].BurnRate > 1 {
		t.Errorf("1m window should be clean: %+v", snap.Windows[0])
	}
	if snap.Windows[1].BurnRate <= 1 {
		t.Errorf("5m window should still burn: %+v", snap.Windows[1])
	}
	if snap.Breached {
		t.Error("breach requires every trafficked window burning, not just the slow one")
	}
}

func TestSLOSlotReuse(t *testing.T) {
	// A 1m window has 61 slots; traffic 2 minutes apart lands in the same
	// slot, which must be reset rather than accumulated.
	s, clk := newTestSLO(100, 0.99, time.Minute)
	s.Record(10, true)
	clk.advance(61 * time.Second)
	s.Record(10, true)
	w := s.Snapshot().Windows[0]
	if w.Total != 1 {
		t.Errorf("stale slot leaked into window: %+v", w)
	}
}

func TestSLOTargetClamp(t *testing.T) {
	s := NewSLO(100, 1.5)
	if s.Target() > 0.9999 {
		t.Errorf("target not clamped: %v", s.Target())
	}
	s.Record(1, true)
	if s.Snapshot().Breached {
		t.Error("good traffic breaches under clamped target")
	}
}
