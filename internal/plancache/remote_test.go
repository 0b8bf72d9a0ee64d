package plancache

import (
	"context"
	"errors"
	"testing"
)

// fakeFiller is a scripted RemoteFiller.
type fakeFiller struct {
	cp    *CachedPlan
	err   error
	calls int
}

func (f *fakeFiller) Fill(ctx context.Context, fp Fingerprint, version, band string) (*CachedPlan, error) {
	f.calls++
	return f.cp, f.err
}

func TestFillRemoteInstallsHit(t *testing.T) {
	c := New(Config{})
	c.Activate("v1")
	cp := fab(1, "v1", 3)
	f := &fakeFiller{cp: cp}
	c.SetRemoteFiller(f)

	got, ok := c.FillRemote(context.Background(), cp.Fingerprint, "v1", "")
	if !ok || got != cp {
		t.Fatalf("FillRemote = (%v, %v), want the peer entry installed", got, ok)
	}
	if f.calls != 1 {
		t.Fatalf("filler called %d times, want 1", f.calls)
	}
	// The entry is now a plain local hit.
	if _, ok := c.GetBand(cp.Fingerprint, "v1", ""); !ok {
		t.Fatal("peer-filled entry not locally cached")
	}
	if s := c.Snapshot(); s.PeerFills != 1 {
		t.Fatalf("PeerFills = %d, want 1", s.PeerFills)
	}
}

func TestFillRemoteMissAndError(t *testing.T) {
	c := New(Config{})
	c.Activate("v1")
	var fp Fingerprint
	fp[0] = 9

	// No filler installed: ordinary miss.
	if _, ok := c.FillRemote(context.Background(), fp, "v1", ""); ok {
		t.Fatal("FillRemote hit without a filler")
	}
	// Remote miss.
	c.SetRemoteFiller(&fakeFiller{})
	if _, ok := c.FillRemote(context.Background(), fp, "v1", ""); ok {
		t.Fatal("FillRemote hit on a remote miss")
	}
	// Remote error degrades to a miss, never an installed entry.
	c.SetRemoteFiller(&fakeFiller{err: errors.New("fleet down")})
	if _, ok := c.FillRemote(context.Background(), fp, "v1", ""); ok {
		t.Fatal("FillRemote hit on a remote error")
	}
	// Removing the filler restores the no-tier behavior.
	c.SetRemoteFiller(nil)
	if c.RemoteFiller() != nil {
		t.Fatal("RemoteFiller still installed after SetRemoteFiller(nil)")
	}
	if s := c.Snapshot(); s.PeerFills != 0 {
		t.Fatalf("PeerFills = %d, want 0", s.PeerFills)
	}
}

// TestInstallRemoteGuards: a peer answer that does not match the requested
// key, or that carries a version the local cache no longer considers
// active, is dropped — never installed, never served.
func TestInstallRemoteGuards(t *testing.T) {
	c := New(Config{})
	c.Activate("v2")
	cp := fab(1, "v2", 3)
	install := func(cp *CachedPlan, fp Fingerprint, version, band string) bool {
		c.SetRemoteFiller(&fakeFiller{cp: cp})
		_, ok := c.FillRemote(context.Background(), fp, version, band)
		return ok
	}

	// Wrong fingerprint.
	var other Fingerprint
	other[0] = 99
	if install(cp, other, "v2", "") {
		t.Fatal("installed an entry under a mismatched fingerprint")
	}
	// Wrong version relative to the request.
	if install(cp, cp.Fingerprint, "v1", "") {
		t.Fatal("installed an entry under a mismatched version")
	}
	// Wrong band: fab entries have RiskLambda 0, i.e. band "".
	if install(cp, cp.Fingerprint, "v2", "b1") {
		t.Fatal("installed an entry under a mismatched band")
	}
	// Version matches the request but not the active version: the cache
	// hot-swapped while the peer lookup was in flight.
	stale := fab(2, "v1", 3)
	if install(stale, stale.Fingerprint, "v1", "") {
		t.Fatal("installed an entry from a version the cache no longer serves")
	}
	if s := c.Snapshot(); s.Dropped != 4 {
		t.Fatalf("Dropped = %d, want 4 guard drops", s.Dropped)
	}
	if s := c.Snapshot(); s.PeerFills != 0 || s.Entries != 0 {
		t.Fatalf("guard drops leaked state: %+v", s)
	}

	// The happy path still installs.
	if !install(cp, cp.Fingerprint, "v2", "") {
		t.Fatal("valid install refused")
	}
}

// TestPeekBandNoAccounting: PeekBand answers without touching the hit/miss
// counters or LRU order — peer probes must not distort local stats.
func TestPeekBandNoAccounting(t *testing.T) {
	c := New(Config{})
	c.Activate("v1")
	cp := fab(1, "v1", 3)
	if !c.Put(cp) {
		t.Fatal("Put refused")
	}

	before := c.Snapshot()
	if got, ok := c.PeekBand(cp.Fingerprint, "v1", ""); !ok || got != cp {
		t.Fatalf("PeekBand = (%v, %v), want the entry", got, ok)
	}
	var missFP Fingerprint
	missFP[0] = 42
	if _, ok := c.PeekBand(missFP, "v1", ""); ok {
		t.Fatal("PeekBand hit a missing key")
	}
	after := c.Snapshot()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("PeekBand moved the counters: before %+v after %+v", before, after)
	}

	// A stale-generation entry is still reaped on the peek path.
	c.Activate("v2")
	if _, ok := c.PeekBand(cp.Fingerprint, "v1", ""); ok {
		t.Fatal("PeekBand served a flash-invalidated entry")
	}
	if s := c.Snapshot(); s.Entries != 0 {
		t.Fatalf("stale entry survived the peek: %+v", s)
	}
}
