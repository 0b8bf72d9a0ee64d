package service_test

import (
	"bytes"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/registry"
	"repro/internal/service"
)

// follower is one replica following its store, ticked by hand: the server of
// newLifecycleServer (store v1, v2; ACTIVE v1; serving v1) with a plan cache,
// its address, and a logger the warn lines are counted from.
type follower struct {
	t    *testing.T
	s    *service.Server
	base string
	st   *registry.Store
	tick func()
	logs bytes.Buffer
}

// ticks runs n follower ticks.
func (f *follower) ticks(n int) {
	for i := 0; i < n; i++ {
		f.tick()
	}
}

// marker writes the ACTIVE marker the way a process that is not this store
// would: no check that the version exists.
func (f *follower) marker(content string) {
	f.t.Helper()
	if err := os.WriteFile(filepath.Join(f.st.Dir(), "ACTIVE"), []byte(content), 0o644); err != nil {
		f.t.Fatalf("writing ACTIVE: %v", err)
	}
}

// activate moves ACTIVE to a stored version.
func (f *follower) activate(version string) {
	f.t.Helper()
	if err := f.st.Activate(version); err != nil {
		f.t.Fatalf("Activate(%s): %v", version, err)
	}
}

// save stores a as the next version, which must be want.
func (f *follower) save(a *registry.Artifact, want string) {
	f.t.Helper()
	if v, err := f.st.Save(a); err != nil || v != want {
		f.t.Fatalf("Save = %q, %v; want %s", v, err, want)
	}
}

// expect states what a row must read at this point: the version the provider
// serves and the plan cache is active at, the two follower counters, and how
// many warn lines the follower has logged.
func (f *follower) expect(version string, swaps, errs int64, warns int) {
	f.t.Helper()
	if got := f.s.Provider.Get().Version(); got != version {
		f.t.Errorf("provider serves %q, want %q", got, version)
	}
	if got := f.s.PlanCache.ActiveVersion(); got != version {
		f.t.Errorf("plan cache is active at %q, want %q", got, version)
	}
	c := f.s.Metrics().Snapshot().Counters
	if got := c["store_watch_swaps_total"]; got != swaps {
		f.t.Errorf("store_watch_swaps_total = %d, want %d", got, swaps)
	}
	if got := c["store_watch_errors_total"]; got != errs {
		f.t.Errorf("store_watch_errors_total = %d, want %d", got, errs)
	}
	if got := strings.Count(f.logs.String(), "store follower: sync failed"); got != warns {
		f.t.Errorf("%d warn lines, want %d:\n%s", got, warns, f.logs.String())
	}
}

// TestFollowStoreFaults is the fault table for following the shared store:
// the replica ends up serving what ACTIVE names whenever it can, keeps serving
// what it has when it cannot, and tries again on the next tick — it compares
// the marker with the served version and remembers nothing about past ticks.
func TestFollowStoreFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(f *follower)
	}{
		// ACTIVE is one small file and the artifact a large one; on a shared
		// filesystem a replica can see the first before the second. The edge
		// detector this replaced recorded v3 as seen, counted one error and
		// served v1 from then on.
		{"marker visible before its artifact", func(f *follower) {
			f.marker("v3\n")
			f.ticks(3)
			f.expect("v1", 0, 3, 1)
			f.save(newArtifact(f.t, testWidth(f.t), 4), "v3")
			f.ticks(2)
			f.expect("v3", 1, 3, 1)
		}},
		{"marker removed", func(f *follower) {
			if err := os.Remove(filepath.Join(f.st.Dir(), "ACTIVE")); err != nil {
				f.t.Fatalf("Remove: %v", err)
			}
			f.ticks(2)
			f.expect("v1", 0, 0, 0)
		}},
		{"marker empty", func(f *follower) {
			f.marker("")
			f.ticks(2)
			f.expect("v1", 0, 0, 0)
			f.activate("v2")
			f.ticks(1)
			f.expect("v2", 1, 0, 0)
		}},
		// A version trained for another platform universe: every tick fails
		// the same way, so it is counted every tick and logged once; a
		// different failure is logged again; the replica serves v1 throughout
		// and converges when ACTIVE moves on.
		{"ACTIVE names an artifact this replica cannot serve", func(f *follower) {
			f.save(newArtifact(f.t, testWidth(f.t)+1, 4), "v3")
			f.activate("v3")
			f.ticks(3)
			f.expect("v1", 0, 3, 1)
			f.marker("v9\n")
			f.ticks(2)
			f.expect("v1", 0, 5, 2)
			f.activate("v2")
			f.ticks(2)
			f.expect("v2", 1, 5, 2)
		}},
		{"ACTIVE rolled back to an older version", func(f *follower) {
			f.activate("v2")
			f.ticks(2)
			f.expect("v2", 1, 0, 0)
			f.activate("v1")
			f.ticks(2)
			f.expect("v1", 2, 0, 0)
		}},
		// The replica's own promotion moved ACTIVE and the provider together:
		// the ticks after it neither swap again nor read the artifact, which
		// is unreadable by then.
		{"this replica's own promotion", func(f *follower) {
			f.save(newArtifact(f.t, testWidth(f.t), 4), "v3")
			var sw service.SwapResponse
			postJSON(f.t, f.base+"/modelz/promote?version=v3", http.StatusOK, &sw)
			if !sw.Swapped || sw.Version != "v3" {
				f.t.Fatalf("promote = %+v", sw)
			}
			if err := os.WriteFile(filepath.Join(f.st.Dir(), "v3.json"), []byte("{"), 0o644); err != nil {
				f.t.Fatalf("WriteFile: %v", err)
			}
			f.ticks(3)
			f.expect("v3", 0, 0, 0)
		}},
		// No marker is nothing to follow: the newest-version fallback is for
		// boot, not for a tick.
		{"versions but no marker", func(f *follower) {
			if err := os.Remove(filepath.Join(f.st.Dir(), "ACTIVE")); err != nil {
				f.t.Fatalf("Remove: %v", err)
			}
			f.save(newArtifact(f.t, testWidth(f.t), 4), "v3")
			f.ticks(2)
			f.expect("v1", 0, 0, 0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts, st := newLifecycleServer(t)
			defer ts.Close()
			bootPublish(t, s)
			f := &follower{t: t, s: s, base: ts.URL, st: st}
			s.Logger = slog.New(slog.NewTextHandler(&f.logs, nil))
			f.tick = s.FollowStore()
			tc.run(f)
		})
	}
}
