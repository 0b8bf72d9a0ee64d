package registry_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/registry"
)

// loadClaim reads the one claim file under st's claims/ directory: nil
// when there is none, a test failure when there are several.
func loadClaim(t *testing.T, st *registry.Store) *registry.ClaimInfo {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(st.Dir(), "claims"))
	if os.IsNotExist(err) || err == nil && len(entries) == 0 {
		return nil
	}
	if err != nil || len(entries) != 1 || entries[0].IsDir() {
		t.Fatalf("claims dir = %v, %v; want at most one flat file", entries, err)
	}
	raw, err := os.ReadFile(filepath.Join(st.Dir(), "claims", entries[0].Name()))
	if err != nil {
		t.Fatalf("reading claim: %v", err)
	}
	var c registry.ClaimInfo
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatalf("claim file %s: %v", raw, err)
	}
	return &c
}

func TestClaimLifecycle(t *testing.T) {
	st := openFleetStore(t)

	// Nothing claimed yet.
	if c := loadClaim(t, st); c != nil {
		t.Fatalf("claim on empty store = %+v", c)
	}

	acquired, holder, takeover, err := st.Claim("k", "a", "a:8080", time.Minute)
	if err != nil || !acquired || holder != nil || takeover {
		t.Fatalf("first claim = (%v, %v, %v, %v), want clean acquire", acquired, holder, takeover, err)
	}
	c := loadClaim(t, st)
	if c == nil || c.Owner != "a" || c.Addr != "a:8080" || c.Key != "k" {
		t.Fatalf("claim after acquire = %+v", c)
	}
	if !c.ExpiresAt.After(c.CreatedAt) {
		t.Fatalf("claim expiry %v not after creation %v", c.ExpiresAt, c.CreatedAt)
	}

	// A live claim repels contenders and names the holder.
	acquired, holder, _, err = st.Claim("k", "b", "b:8080", time.Minute)
	if err != nil || acquired || holder == nil || holder.Owner != "a" || holder.Addr != "a:8080" {
		t.Fatalf("contended claim = (%v, %+v, %v), want held by a", acquired, holder, err)
	}

	// Release by a non-owner is a no-op: the claim stays.
	if err := st.ReleaseClaim("k", "b"); err != nil {
		t.Fatalf("foreign release: %v", err)
	}
	if c := loadClaim(t, st); c == nil || c.Owner != "a" {
		t.Fatalf("claim after foreign release = %+v, want still held by a", c)
	}

	// Owner release frees the key for the next contender.
	if err := st.ReleaseClaim("k", "a"); err != nil {
		t.Fatalf("release: %v", err)
	}
	if c := loadClaim(t, st); c != nil {
		t.Fatalf("claim after release = %+v, want gone", c)
	}
	if acquired, _, takeover, err = st.Claim("k", "b", "b:8080", time.Minute); err != nil || !acquired || takeover {
		t.Fatalf("claim after release = (%v, %v, %v), want clean acquire", acquired, takeover, err)
	}

	// Releasing an already-absent claim is fine.
	if err := st.ReleaseClaim("gone", "b"); err != nil {
		t.Fatalf("absent release: %v", err)
	}
}

// TestClaimTakeover: a claim whose TTL lapsed reads as a crashed owner; the
// next contender reaps it and acquires with takeover reported.
func TestClaimTakeover(t *testing.T) {
	st := openFleetStore(t)
	if acquired, _, _, err := st.Claim("k", "dead", "dead:1", 10*time.Millisecond); err != nil || !acquired {
		t.Fatalf("seed claim: %v (acquired=%v)", err, acquired)
	}
	time.Sleep(20 * time.Millisecond)
	acquired, holder, takeover, err := st.Claim("k", "live", "live:1", time.Minute)
	if err != nil || !acquired || !takeover {
		t.Fatalf("takeover = (%v, %+v, %v, %v), want acquired takeover", acquired, holder, takeover, err)
	}
	if c := loadClaim(t, st); c == nil || c.Owner != "live" {
		t.Fatalf("claim after takeover = %+v, want owned by live", c)
	}
}

func TestClaimValidation(t *testing.T) {
	st := openFleetStore(t)
	if _, _, _, err := st.Claim("", "a", "a:1", 0); err == nil {
		t.Fatal("key-less claim accepted")
	}
	if _, _, _, err := st.Claim("k", "", "a:1", 0); err == nil {
		t.Fatal("owner-less claim accepted")
	}
}

// TestClaimPathSanitized: a claim key carrying path separators cannot
// escape the claims subdirectory.
func TestClaimPathSanitized(t *testing.T) {
	dir := t.TempDir()
	st, err := registry.OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	key := "abc:def/../../escape"
	if acquired, _, _, err := st.Claim(key, "a", "a:1", time.Minute); err != nil || !acquired {
		t.Fatalf("Claim: %v (acquired=%v)", err, acquired)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "claims"))
	if err != nil {
		t.Fatalf("claims dir: %v", err)
	}
	if len(entries) != 1 || entries[0].IsDir() {
		t.Fatalf("claims dir entries = %v, want one flat file", entries)
	}
	if want := "abc_def_.._.._escape.json"; entries[0].Name() != want {
		t.Fatalf("claim file %q, want %q", entries[0].Name(), want)
	}
	if c := loadClaim(t, st); c == nil || c.Key != key {
		t.Fatalf("sanitized claim = %+v, want key %q", c, key)
	}
	// The claims subdirectory is invisible to artifact listing, like
	// replicas/.
	versions, err := st.Versions()
	if err != nil {
		t.Fatalf("Versions: %v", err)
	}
	if len(versions) != 0 {
		t.Fatalf("artifact versions = %v, want none after a claim", versions)
	}
	// Release finds the sanitized file again.
	if err := st.ReleaseClaim(key, "a"); err != nil {
		t.Fatalf("ReleaseClaim: %v", err)
	}
	if c := loadClaim(t, st); c != nil {
		t.Fatalf("claim after release = %+v, want gone", c)
	}
}

// TestClaimExclusive: many concurrent contenders on one key produce exactly
// one winner.
func TestClaimExclusive(t *testing.T) {
	st := openFleetStore(t)
	const n = 16
	var wg sync.WaitGroup
	winners := make(chan string, n)
	for i := 0; i < n; i++ {
		owner := string(rune('a' + i))
		wg.Add(1)
		go func(owner string) {
			defer wg.Done()
			acquired, _, _, err := st.Claim("hot", owner, owner+":1", time.Minute)
			if err != nil {
				t.Errorf("Claim(%s): %v", owner, err)
				return
			}
			if acquired {
				winners <- owner
			}
		}(owner)
	}
	wg.Wait()
	close(winners)
	var won []string
	for w := range winners {
		won = append(won, w)
	}
	if len(won) != 1 {
		t.Fatalf("claim winners = %v, want exactly one", won)
	}
	if c := loadClaim(t, st); c == nil || c.Owner != won[0] {
		t.Fatalf("claim file = %+v, want owned by the winner %s", c, won[0])
	}
}

// TestReplicasCrossHandleVisibility: the short replica-list scan cache on
// one store handle must still observe another handle's registrations once
// the cache window lapses — and a handle always sees its own writes
// immediately.
func TestReplicasCrossHandleVisibility(t *testing.T) {
	dir := t.TempDir()
	a, err := registry.OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	b, err := registry.OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	if err := a.RegisterReplica(registry.ReplicaInfo{ID: "a", Addr: "a:1"}); err != nil {
		t.Fatalf("RegisterReplica: %v", err)
	}
	// B's first listing is always a fresh scan.
	if reps, _ := b.Replicas(0); len(reps) != 1 || reps[0].ID != "a" {
		t.Fatalf("cross-handle fleet = %+v, want [a]", reps)
	}
	if err := a.RegisterReplica(registry.ReplicaInfo{ID: "a2", Addr: "a2:1"}); err != nil {
		t.Fatalf("RegisterReplica: %v", err)
	}
	// A sees its own write immediately, cache window or not.
	if reps, _ := a.Replicas(0); len(reps) != 2 {
		t.Fatalf("own-handle fleet = %+v, want both replicas", reps)
	}
	// B's handle revalidates its scan cache against the directory mtime,
	// so the cross-handle change lands promptly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		reps, err := b.Replicas(0)
		if err != nil {
			t.Fatalf("Replicas: %v", err)
		}
		if len(reps) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cross-handle fleet never converged: %+v", reps)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
