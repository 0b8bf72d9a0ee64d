package plancache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSingleflightCollapse(t *testing.T) {
	c := New(Config{})
	var fp Fingerprint
	var runs atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func() (*CachedPlan, error) {
		if runs.Add(1) == 1 {
			close(started)
		}
		<-release
		return fab(1, "v1", 4), nil
	}

	leaderDone := make(chan struct{})
	var leaderCollapsed bool
	go func() {
		defer close(leaderDone)
		_, leaderCollapsed, _ = c.DoBand(context.Background(), fp, "v1", "", fn)
	}()
	<-started

	const followers = 15
	var wg sync.WaitGroup
	var collapsed atomic.Int32
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cp, fol, err := c.DoBand(context.Background(), fp, "v1", "", fn)
			if err != nil {
				t.Errorf("follower: %v", err)
				return
			}
			if cp == nil || cp.Predicted != 1 {
				t.Error("follower got the wrong plan")
			}
			if fol {
				collapsed.Add(1)
			}
		}()
	}
	// Let the followers enqueue on the in-flight computation, then let the
	// leader finish.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	<-leaderDone

	if leaderCollapsed {
		t.Fatal("leader reported itself collapsed")
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	if got := collapsed.Load(); got != followers {
		t.Fatalf("%d of %d followers collapsed", got, followers)
	}
	if st := c.Snapshot(); st.Collapsed != followers {
		t.Fatalf("collapsed counter = %d, want %d", st.Collapsed, followers)
	}
}

// TestSingleflightLeaderCancelRearm checks the re-arm path: when the leader's
// own context is cancelled, waiting followers must not inherit the
// cancellation — they elect a new leader and still get a real result.
func TestSingleflightLeaderCancelRearm(t *testing.T) {
	c := New(Config{})
	var fp Fingerprint
	leaderCtx, cancel := context.WithCancel(context.Background())
	var runs atomic.Int32
	started := make(chan struct{})
	fn := func() (*CachedPlan, error) {
		if runs.Add(1) == 1 {
			close(started)
			<-leaderCtx.Done() // the doomed first leader
			return nil, leaderCtx.Err()
		}
		return fab(2, "v1", 4), nil
	}

	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.DoBand(leaderCtx, fp, "v1", "", fn)
		leaderErr <- err
	}()
	<-started

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cp, _, err := c.DoBand(context.Background(), fp, "v1", "", fn)
			if err != nil {
				t.Errorf("follower inherited the leader's fate: %v", err)
				return
			}
			if cp == nil || cp.Predicted != 2 {
				t.Error("follower did not get the second leader's result")
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	cancel()
	wg.Wait()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want Canceled", err)
	}
	// Both ex-followers may re-arm before either re-runs fn, so 2 or 3 total
	// runs are both correct; 1 would mean nobody re-ran.
	if got := runs.Load(); got < 2 {
		t.Fatalf("fn ran %d times, want at least 2 after re-arm", got)
	}
}

// TestSingleflightFollowerDeadline checks that a follower waits under its own
// context only: its deadline expiring returns its own error while the leader
// keeps running to completion.
func TestSingleflightFollowerDeadline(t *testing.T) {
	c := New(Config{})
	var fp Fingerprint
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func() (*CachedPlan, error) {
		close(started)
		<-release
		return fab(3, "v1", 4), nil
	}

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.DoBand(context.Background(), fp, "v1", "", fn)
		leaderDone <- err
	}()
	<-started

	fctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	cp, fol, err := c.DoBand(fctx, fp, "v1", "", fn)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower error = %v, want DeadlineExceeded", err)
	}
	if !fol || cp != nil {
		t.Fatalf("timed-out follower returned (%v, collapsed=%v)", cp, fol)
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed after a follower timed out: %v", err)
	}
	// A follower that timed out is not a successful collapse.
	if st := c.Snapshot(); st.Collapsed != 0 {
		t.Fatalf("collapsed counter = %d, want 0", st.Collapsed)
	}
}

// TestSingleflightSharedError checks that a leader's non-context failure is
// shared with followers as-is (no re-arm: the computation itself failed, not
// the leader's request).
func TestSingleflightSharedError(t *testing.T) {
	c := New(Config{})
	var fp Fingerprint
	boom := errors.New("boom")
	started := make(chan struct{})
	release := make(chan struct{})
	var runs atomic.Int32
	fn := func() (*CachedPlan, error) {
		runs.Add(1)
		close(started)
		<-release
		return nil, boom
	}

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.DoBand(context.Background(), fp, "v1", "", fn)
	}()
	<-started

	followerDone := make(chan error, 1)
	go func() {
		_, _, err := c.DoBand(context.Background(), fp, "v1", "", fn)
		followerDone <- err
	}()
	time.Sleep(30 * time.Millisecond)
	close(release)
	<-leaderDone
	if err := <-followerDone; !errors.Is(err, boom) {
		t.Fatalf("follower error = %v, want the leader's", err)
	}
	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1 (no re-arm on a shared failure)", runs.Load())
	}
}

// TestSingleflightDistinctKeys checks that different (fingerprint, version)
// pairs never collapse into each other.
func TestSingleflightDistinctKeys(t *testing.T) {
	c := New(Config{})
	var runs atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var fp Fingerprint
			fp[0] = byte(i / 2)
			version := "v1"
			if i%2 == 1 {
				version = "v2"
			}
			_, fol, err := c.DoBand(context.Background(), fp, version, "", func() (*CachedPlan, error) {
				runs.Add(1)
				time.Sleep(20 * time.Millisecond)
				return fab(byte(i), version, 4), nil
			})
			if err != nil || fol {
				t.Errorf("distinct key %d collapsed or failed: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if runs.Load() != 4 {
		t.Fatalf("fn ran %d times, want 4", runs.Load())
	}
}
