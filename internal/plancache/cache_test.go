package plancache

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/workload"
)

// resultFor fabricates a finished optimization for l: a deterministic but
// non-trivial platform assignment plus a small feature vector.
func resultFor(t *testing.T, l *plan.Logical, plats []platform.ID) *core.Result {
	t.Helper()
	assign := make([]uint8, len(l.Ops))
	pids := make([]platform.ID, len(l.Ops))
	for i := range assign {
		assign[i] = uint8(i % len(plats))
		pids[i] = plats[assign[i]]
	}
	x, err := plan.NewExecution(l, pids)
	if err != nil {
		t.Fatalf("NewExecution: %v", err)
	}
	return &core.Result{
		Execution: x,
		Vector:    &core.Vector{F: []float64{1, 2, 3}, Assign: assign},
		Predicted: 4.2,
		Stats:     core.Stats{VectorsCreated: 7, ModelRows: 5},
	}
}

// fab builds a hand-crafted cache entry with a fabricated fingerprint and an
// ops-operator assignment, for capacity and invalidation tests that do not
// need a real plan.
func fab(b byte, version string, ops int) *CachedPlan {
	var fp Fingerprint
	fp[0] = b
	return &CachedPlan{
		Fingerprint:  fp,
		ModelVersion: version,
		Predicted:    float64(b),
		CachedAt:     time.Now(),
		AssignCanon:  make([]uint8, ops),
	}
}

func TestCacheRoundTripAcrossRelabeling(t *testing.T) {
	plats, avail := fingerprintEnv(t)
	l := chainPlan(1e6, 0.5)
	fp, canon, err := Compute(l, plats, avail, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := resultFor(t, l, plats)
	cp, err := FromResult(fp, canon, "v1", res)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Predicted != res.Predicted {
		t.Fatalf("cached plan lost data: %+v", cp)
	}
	if cp.Stats.ModelRows != 5 {
		t.Fatalf("cached stats not preserved: %+v", cp.Stats)
	}

	c := New(Config{})
	if !c.Put(cp) {
		t.Fatal("Put rejected a fresh entry")
	}
	got, ok := c.GetBand(fp, "v1", "")
	if !ok {
		t.Fatal("Get missed a just-inserted entry")
	}

	// A structurally identical but relabeled plan must fingerprint equal and
	// rematerialize with each operator keeping its platform: old op i and
	// its relabeled twin perm[i] get the same assignment.
	perm := []int{2, 0, 1}
	lp := permute(t, l, perm)
	fpB, canonB, err := Compute(lp, plats, avail, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fpB != fp {
		t.Fatal("relabeled plan changed the fingerprint")
	}
	x, err := got.Materialize(lp, canonB, plats)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	for i := range l.Ops {
		if x.Assign[perm[i]] != res.Execution.Assign[i] {
			t.Fatalf("op %d: original runs on %v but its twin on %v",
				i, res.Execution.Assign[i], x.Assign[perm[i]])
		}
	}
}

func TestCacheFromResultErrors(t *testing.T) {
	plats, avail := fingerprintEnv(t)
	l := chainPlan(1e6, 0.5)
	fp, canon, err := Compute(l, plats, avail, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromResult(fp, canon, "v1", nil); err == nil {
		t.Fatal("nil result should fail")
	}
	if _, err := FromResult(fp, canon, "v1", &core.Result{}); err == nil {
		t.Fatal("result without a vector should fail")
	}
	res := resultFor(t, l, plats)
	res.Vector.Assign = res.Vector.Assign[:1]
	if _, err := FromResult(fp, canon, "v1", res); err == nil {
		t.Fatal("assignment/canon length mismatch should fail")
	}
}

func TestCacheMaterializeErrors(t *testing.T) {
	plats, avail := fingerprintEnv(t)
	l := chainPlan(1e6, 0.5)
	fp, canon, err := Compute(l, plats, avail, 0)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := FromResult(fp, canon, "v1", resultFor(t, l, plats))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Materialize(l, nil, plats); err == nil {
		t.Fatal("nil canon should fail")
	}
	if _, err := cp.Materialize(l, &Canon{Perm: []int{0}}, plats); err == nil {
		t.Fatal("wrong-size canon should fail")
	}
	if _, err := cp.Materialize(l, canon, plats[:1]); err == nil {
		t.Fatal("a cached column outside the platform universe should fail")
	}
}

func TestCacheEntryEviction(t *testing.T) {
	c := New(Config{MaxEntries: 3, Shards: 1})
	for i := 0; i < 5; i++ {
		if !c.Put(fab(byte(i), "v1", 4)) {
			t.Fatalf("Put %d rejected", i)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3 after eviction", c.Len())
	}
	st := c.Snapshot()
	if st.Evictions != 2 || st.Inserts != 5 {
		t.Fatalf("evictions=%d inserts=%d, want 2/5", st.Evictions, st.Inserts)
	}
	// LRU order: 0 and 1 went cold first.
	if _, ok := c.GetBand(fab(0, "v1", 4).Fingerprint, "v1", ""); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := c.GetBand(fab(4, "v1", 4).Fingerprint, "v1", ""); !ok {
		t.Fatal("newest entry was evicted")
	}
}

func TestCacheLRUTouchOnGet(t *testing.T) {
	c := New(Config{MaxEntries: 2, Shards: 1})
	c.Put(fab(1, "v1", 4))
	c.Put(fab(2, "v1", 4))
	// Touch 1 so 2 becomes the cold tail, then insert 3.
	if _, ok := c.GetBand(fab(1, "v1", 4).Fingerprint, "v1", ""); !ok {
		t.Fatal("warm entry missing")
	}
	c.Put(fab(3, "v1", 4))
	if _, ok := c.GetBand(fab(1, "v1", 4).Fingerprint, "v1", ""); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := c.GetBand(fab(2, "v1", 4).Fingerprint, "v1", ""); ok {
		t.Fatal("cold entry survived")
	}
}

func TestCacheByteEviction(t *testing.T) {
	// Each entry accounts 800 + 256 = 1056 bytes; the per-shard floor is
	// 1024, so a second entry always pushes the first out.
	c := New(Config{MaxEntries: 100, MaxBytes: 1, Shards: 1})
	big := func(b byte) *CachedPlan { return fab(b, "v1", 800) }
	c.Put(big(1))
	c.Put(big(2))
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 under the byte budget", c.Len())
	}
	if c.Bytes() != big(2).size() {
		t.Fatalf("Bytes = %d, want one entry's size %d", c.Bytes(), big(2).size())
	}
	if _, ok := c.GetBand(big(2).Fingerprint, "v1", ""); !ok {
		t.Fatal("newest entry should survive the byte eviction")
	}
	// A single entry over budget still stays: the cache never evicts the
	// entry it just admitted.
	c.Purge()
	c.Put(fab(9, "v1", 2000))
	if c.Len() != 1 {
		t.Fatal("an oversized lone entry should be admitted")
	}
}

// TestEntrySizeIgnoresSchemaWidth: an entry accounts for its assignment, not
// for the plan vector of the run that produced it, so a 40-operator entry
// stays a few hundred bytes (≈ 3.5 kB when the vector was kept).
func TestEntrySizeIgnoresSchemaWidth(t *testing.T) {
	plats, avail := platform.Subset(3), platform.UniformAvailability(3)
	l := workload.Pipeline(40, 1e10)
	fp, canon, err := Compute(l, plats, avail, 0)
	if err != nil {
		t.Fatal(err)
	}
	cctx, err := core.NewContext(l, plats, avail)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]platform.ID, len(l.Ops))
	for i := range assign {
		assign[i] = plats[i%len(plats)]
	}
	x, err := plan.NewExecution(l, assign)
	if err != nil {
		t.Fatal(err)
	}
	v, err := cctx.VectorizeAssignment(assign)
	if err != nil {
		t.Fatal(err)
	}
	sizeWith := func(v *core.Vector) int64 {
		t.Helper()
		cp, err := FromResult(fp, canon, "v1", &core.Result{Execution: x, Vector: v, Predicted: 1})
		if err != nil {
			t.Fatal(err)
		}
		cp.TraceID = "0123456789abcdef0123456789abcdef"
		return cp.size()
	}
	size := sizeWith(v)
	if size >= 512 {
		t.Errorf("a 40-operator entry accounts %d bytes, ceiling 512", size)
	}
	if wide := sizeWith(&core.Vector{F: make([]float64, 10*len(v.F)), Assign: v.Assign}); wide != size {
		t.Errorf("a 10× wider schema accounts %d bytes, want %d", wide, size)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	c := New(Config{TTL: 50 * time.Millisecond, Shards: 1})
	cp := fab(1, "v1", 4)
	cp.CachedAt = time.Now().Add(-time.Second) // inserted long ago
	c.Put(cp)
	if _, ok := c.GetBand(cp.Fingerprint, "v1", ""); ok {
		t.Fatal("expired entry served")
	}
	st := c.Snapshot()
	if st.Expired != 1 {
		t.Fatalf("expired = %d, want 1", st.Expired)
	}
	if c.Len() != 0 {
		t.Fatal("expired entry not reclaimed")
	}
	// A fresh entry under the same TTL serves fine.
	c.Put(fab(2, "v1", 4))
	if _, ok := c.GetBand(fab(2, "v1", 4).Fingerprint, "v1", ""); !ok {
		t.Fatal("fresh entry missed")
	}
}

func TestCacheVersionInvalidation(t *testing.T) {
	c := New(Config{Shards: 1})
	// Before the first Activate every version is accepted — the
	// library-caller mode without a model lifecycle.
	if !c.Put(fab(1, "vX", 4)) {
		t.Fatal("pre-activation Put rejected")
	}

	if !c.Activate("v1") {
		t.Fatal("first Activate should invalidate")
	}
	// The pre-activation vX entry is swept out by the activation.
	if st := c.Snapshot(); st.Invalidated != 1 || st.Entries != 0 {
		t.Fatalf("after first Activate: invalidated=%d entries=%d, want 1/0", st.Invalidated, st.Entries)
	}
	gen := c.Generation()
	if c.Activate("v1") {
		t.Fatal("re-activating the same version should be a no-op")
	}
	if c.Generation() != gen {
		t.Fatal("no-op Activate bumped the generation")
	}

	c.Put(fab(2, "v1", 4))
	if _, ok := c.GetBand(fab(2, "v1", 4).Fingerprint, "v1", ""); !ok {
		t.Fatal("active-version entry missed")
	}
	// A plan from a version that already lost the swap race is dropped.
	if c.Put(fab(3, "v0", 4)) {
		t.Fatal("stale-version Put accepted")
	}
	if st := c.Snapshot(); st.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped)
	}

	// Hot swap: everything cached under v1 becomes invisible at once.
	if !c.Activate("v2") {
		t.Fatal("version change should invalidate")
	}
	if c.Generation() != gen+1 {
		t.Fatalf("generation = %d, want %d", c.Generation(), gen+1)
	}
	if _, ok := c.GetBand(fab(2, "v1", 4).Fingerprint, "v1", ""); ok {
		t.Fatal("stale-generation entry served after the swap")
	}
	if st := c.Snapshot(); st.Invalidated != 2 || st.Bytes != 0 {
		t.Fatalf("after swap: invalidated=%d bytes=%d, want 2/0", st.Invalidated, st.Bytes)
	}
	if c.ActiveVersion() != "v2" {
		t.Fatalf("ActiveVersion = %q", c.ActiveVersion())
	}
}

func TestCachePurgeAndSnapshot(t *testing.T) {
	c := New(Config{MaxEntries: 64, MaxBytes: 1 << 20, TTL: time.Minute, Shards: 4})
	for i := 0; i < 10; i++ {
		c.Put(fab(byte(i), "v1", 4))
	}
	c.GetBand(fab(0, "v1", 4).Fingerprint, "v1", "")
	c.GetBand(fab(200, "v1", 4).Fingerprint, "v1", "") // miss
	st := c.Snapshot()
	if st.Entries != 10 || st.Hits != 1 || st.Misses != 1 || st.Inserts != 10 {
		t.Fatalf("snapshot = %+v", st)
	}
	if st.Shards != 4 || st.MaxEntries != 64 || st.TTLMs != 60000 {
		t.Fatalf("config not reflected in snapshot: %+v", st)
	}
	if n := c.Purge(); n != 10 {
		t.Fatalf("Purge = %d, want 10", n)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("cache not empty after purge: %d entries, %d bytes", c.Len(), c.Bytes())
	}
}

func TestCacheShardRounding(t *testing.T) {
	c := New(Config{Shards: 5})
	if got := c.Snapshot().Shards; got != 8 {
		t.Fatalf("shards = %d, want next power of two 8", got)
	}
	if c.BandsPerDecade() != cardBands {
		t.Fatalf("BandsPerDecade = %d", c.BandsPerDecade())
	}
}

// TestCacheConcurrent hammers Put/Get/Activate/Purge from many goroutines;
// run under -race this is the cache's data-race certificate.
func TestCacheConcurrent(t *testing.T) {
	c := New(Config{MaxEntries: 32, Shards: 4})
	c.Activate("v1")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := byte((g*200 + i) % 64)
				switch i % 4 {
				case 0:
					c.Put(fab(b, c.ActiveVersion(), 4))
				case 1:
					c.GetBand(fab(b, "v1", 4).Fingerprint, "v1", "")
				case 2:
					if i%40 == 2 {
						c.Activate("v1") // no-op most of the time
					}
				case 3:
					if i%100 == 3 {
						c.Purge()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	c.Snapshot() // must not race with anything above
}

// doneSpy reports the first call of Done: group.do asks a follower's context
// for it only once the follower has found the leader's flight.
type doneSpy struct {
	context.Context
	once   sync.Once
	called chan struct{}
}

func (d *doneSpy) Done() <-chan struct{} {
	d.once.Do(func() { close(d.called) })
	return d.Context.Done()
}

// TestCacheStatsMatchRegistry scripts one of everything the cache counts —
// hit, miss, capacity eviction, TTL expiry on both lookup paths, dropped
// insert, collapsed request, peer install, flash invalidation — and pins every
// Snapshot field (the values the same script yields with the pre-ledger
// mirrored counters) next to the registry's plan_cache_* series, which are the
// same counters: evictions_total is the one that is not 1:1, counting
// capacity evictions and expiries together.
func TestCacheStatsMatchRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{MaxEntries: 2, Shards: 1, TTL: time.Hour, Metrics: reg})
	fpOf := func(b byte) (fp Fingerprint) { fp[0] = b; return fp }
	stale := func(b byte) *CachedPlan {
		cp := fab(b, "v1", 1)
		cp.CachedAt = time.Now().Add(-2 * time.Hour)
		return cp
	}

	c.Activate("v1")
	c.Put(fab(1, "v1", 1))
	if _, ok := c.GetBand(fpOf(1), "v1", ""); !ok {
		t.Fatal("miss on a fresh entry")
	}
	c.GetBand(fpOf(9), "v1", "")  // miss
	c.Put(fab(2, "v1", 1))        // fills the shard
	c.Put(fab(3, "v1", 1))        // evicts 1
	c.Put(stale(4))               // evicts 2
	c.GetBand(fpOf(4), "v1", "")  // expires 4, and is a miss
	c.Put(stale(5))               // fits: 4 is gone
	c.PeekBand(fpOf(5), "v1", "") // expires 5; a peek is neither hit nor miss
	c.Put(fab(6, "v0", 1))        // dropped: not the active version

	// One collapsed request: the follower is let in while the leader runs.
	follower := &doneSpy{Context: context.Background(), called: make(chan struct{})}
	followed := make(chan bool)
	fn := func() (*CachedPlan, error) {
		go func() {
			_, collapsed, _ := c.DoBand(follower, fpOf(7), "v1", "", nil)
			followed <- collapsed
		}()
		<-follower.called
		return fab(7, "v1", 1), nil
	}
	if _, collapsed, err := c.DoBand(context.Background(), fpOf(7), "v1", "", fn); collapsed || err != nil {
		t.Fatalf("leader: collapsed=%v err=%v", collapsed, err)
	}
	if !<-followed {
		t.Fatal("follower was not collapsed")
	}

	// One peer install, and one answer under the wrong key, which is dropped.
	c.SetRemoteFiller(&fakeFiller{cp: fab(8, "v1", 1)})
	if _, ok := c.FillRemote(context.Background(), fpOf(8), "v1", ""); !ok {
		t.Fatal("peer entry not installed")
	}
	if _, ok := c.FillRemote(context.Background(), fpOf(9), "v1", ""); ok {
		t.Fatal("peer entry installed under a key it does not carry")
	}
	c.Activate("v2") // invalidates 3 and 8

	want := Stats{
		MaxEntries: 2, MaxBytes: DefaultMaxBytes, TTLMs: 3.6e6, Shards: 1,
		Generation: 2, ActiveVersion: "v2",
		Hits: 1, Misses: 2, Collapsed: 1, Evictions: 2, Expired: 2,
		Invalidated: 2, Inserts: 6, Dropped: 2, PeerFills: 1,
	}
	if got := c.Snapshot(); got != want {
		t.Errorf("Snapshot =\n%+v, want\n%+v", got, want)
	}
	snap := reg.Snapshot()
	for name, v := range map[string]int64{
		"plan_cache_hits_total":          want.Hits,
		"plan_cache_misses_total":        want.Misses,
		"plan_cache_collapsed_total":     want.Collapsed,
		"plan_cache_evictions_total":     want.Evictions + want.Expired,
		"plan_cache_invalidations_total": want.Invalidated,
		"plan_cache_peer_fills_total":    want.PeerFills,
	} {
		if snap.Counters[name] != v {
			t.Errorf("%s = %d, want %d", name, snap.Counters[name], v)
		}
	}
	if n := snap.Histograms["plan_cache_age_ms"].Count; n != want.Hits {
		t.Errorf("plan_cache_age_ms count = %d, want one observation per hit (%d)", n, want.Hits)
	}
	if len(snap.Counters) != 6 {
		t.Errorf("the cache registered %d counters, want 6: expired, inserts and dropped have no /metricz row", len(snap.Counters))
	}
}
