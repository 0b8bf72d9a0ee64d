package plancache

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/platform"
)

// Defaults for Config's zero values.
const (
	DefaultMaxEntries = 4096
	DefaultMaxBytes   = 64 << 20
	DefaultShards     = 8
)

// Config configures a Cache. The zero value gets sensible defaults.
type Config struct {
	// MaxEntries bounds the total number of cached plans (0 means
	// DefaultMaxEntries). Capacity is split evenly across shards.
	MaxEntries int
	// MaxBytes bounds the cache's accounted memory (0 means
	// DefaultMaxBytes).
	MaxBytes int64
	// TTL expires entries this long after insertion (0 means no expiry).
	TTL time.Duration
	// Shards is the number of independently locked shards, keyed by
	// fingerprint prefix (0 means DefaultShards; rounded up to a power of
	// two).
	Shards int
	// Metrics, when set, holds the plan_cache_* counters and the
	// plan_cache_age_ms histogram. They are the cache's only ledger: New
	// resolves each handle once and Snapshot reads the same counters back, so
	// two caches sharing one registry share its counters (and each reports the
	// sum). Nil keeps the counters private to the cache.
	Metrics *obs.Registry
}

// CachedPlan is one cached optimization result: everything needed to serve
// an equal-fingerprint request without re-running the enumeration. Platform
// assignments are stored in canonical operator order (see Canon), so they
// remap onto any requester's operator IDs. No plan vector is kept: it is a
// function of the requesting plan and the assignment, so whoever needs one
// (execution feedback) vectorizes the plan it served.
type CachedPlan struct {
	Fingerprint Fingerprint
	// ModelVersion is the model artifact version that produced the plan;
	// the cache key is (Fingerprint, ModelVersion, RiskBand(RiskLambda)).
	ModelVersion string
	// Predicted is the model's runtime estimate for the chosen plan (the
	// λ-adjusted selection score on risk-aware runs).
	Predicted float64
	// RiskLambda is the risk-aversion weight the plan was optimized under;
	// hits serve requests whose λ falls in the same band, and the response
	// echoes this effective λ. Zero for point-estimate plans.
	RiskLambda float64
	// PredictedDist is the model's predictive distribution for the plan
	// (degenerate Lo = Hi = Mean on models without uncertainty).
	PredictedDist core.CostDist
	// CachedAt is the insertion timestamp.
	CachedAt time.Time
	// AssignCanon maps canonical operator index to the chosen platform
	// column (the schema's platform order).
	AssignCanon []uint8
	// Stats are the enumeration counters of the run that produced the
	// plan (for inspection; hits report zero work of their own).
	Stats core.Stats
	// TraceID names the trace of the enumeration that produced this plan,
	// when that run was traced. Requests served from the entry link it
	// ("cache-origin"), so a cache hit's trace points back at the retained
	// trace holding the real enumeration spans. Empty on untraced runs.
	TraceID string
}

// size is the entry's byte accounting: the slices plus a fixed overhead for
// the struct, key and list bookkeeping.
func (cp *CachedPlan) size() int64 {
	return int64(len(cp.AssignCanon)) + int64(len(cp.TraceID)) + 256
}

// FromResult converts a finished optimization into a cacheable plan, storing
// the platform assignment in canonical order.
func FromResult(fp Fingerprint, canon *Canon, modelVersion string, res *core.Result) (*CachedPlan, error) {
	if res == nil || res.Vector == nil || res.Execution == nil {
		return nil, fmt.Errorf("plancache: result carries no plan vector")
	}
	if len(res.Vector.Assign) != canon.NumOps() {
		return nil, fmt.Errorf("plancache: assignment covers %d ops, canon %d", len(res.Vector.Assign), canon.NumOps())
	}
	cp := &CachedPlan{
		Fingerprint:   fp,
		ModelVersion:  modelVersion,
		Predicted:     res.Predicted,
		RiskLambda:    res.Risk.Lambda,
		PredictedDist: res.PredictedDist,
		CachedAt:      time.Now(),
		AssignCanon:   make([]uint8, canon.NumOps()),
		Stats:         res.Stats.Counters(),
	}
	for id, ci := range canon.Perm {
		cp.AssignCanon[ci] = res.Vector.Assign[id]
	}
	return cp, nil
}

// Materialize rebuilds the execution plan for l, an equal-fingerprint plan,
// by remapping the canonical assignment through l's own canonical
// permutation. Conversions and their cardinalities are derived from l
// itself, exactly as the uncached unvectorize path does.
func (cp *CachedPlan) Materialize(l *plan.Logical, canon *Canon, platforms []platform.ID) (*plan.Execution, error) {
	if canon == nil || canon.NumOps() != len(cp.AssignCanon) {
		return nil, fmt.Errorf("plancache: canonical permutation does not match the cached assignment")
	}
	assign := make([]platform.ID, len(cp.AssignCanon))
	for id, ci := range canon.Perm {
		col := cp.AssignCanon[ci]
		if int(col) >= len(platforms) {
			return nil, fmt.Errorf("plancache: cached platform column %d outside the %d-platform universe", col, len(platforms))
		}
		assign[id] = platforms[col]
	}
	return plan.NewExecution(l, assign)
}

type entry struct {
	key        string
	cp         *CachedPlan
	gen        uint64
	expires    time.Time // zero means no expiry
	size       int64
	prev, next *entry // LRU list; head is most recent
}

type shard struct {
	mu      sync.Mutex
	entries map[string]*entry
	head    *entry
	tail    *entry
	bytes   int64
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard) pushFront(e *entry) {
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// remove drops e from the shard entirely.
func (sh *shard) remove(e *entry) {
	sh.unlink(e)
	delete(sh.entries, e.key)
	sh.bytes -= e.size
}

// Cache is a sharded, bounded, model-version-aware LRU of optimization
// results. All methods are safe for concurrent use.
type Cache struct {
	cfg        Config
	shards     []*shard
	shardMask  uint32
	entriesPer int
	bytesPer   int64
	gen        atomic.Uint64
	active     atomic.Pointer[string]
	flight     group
	remote     atomic.Pointer[remoteHolder]

	// One counter per number Snapshot reports, each incremented at the event
	// and nowhere else. The first six are the registry's plan_cache_*_total;
	// removed counts capacity evictions and TTL expiries together, as
	// plan_cache_evictions_total always has, and expired keeps the TTL share
	// apart so Snapshot can report the two separately. expired, inserts and
	// dropped have no /metricz row and are registered nowhere.
	hits, misses, collapsed, invalidated, peerFills, removed *obs.Counter
	expired, inserts, dropped                                *obs.Counter
	age                                                      *obs.Histogram
}

// expire counts one TTL expiry: into removed first, so that a Snapshot, which
// reads expired first, never sees more expiries than removals.
func (c *Cache) expire() {
	c.removed.Inc()
	c.expired.Inc()
}

// New returns a cache with the given configuration.
func New(cfg Config) *Cache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	ns := 1
	for ns < cfg.Shards {
		ns <<= 1
	}
	cfg.Shards = ns
	m := cfg.Metrics
	c := &Cache{
		cfg: cfg, shardMask: uint32(ns - 1),
		hits:        m.Counter("plan_cache_hits_total"),
		misses:      m.Counter("plan_cache_misses_total"),
		removed:     m.Counter("plan_cache_evictions_total"),
		collapsed:   m.Counter("plan_cache_collapsed_total"),
		invalidated: m.Counter("plan_cache_invalidations_total"),
		peerFills:   m.Counter("plan_cache_peer_fills_total"),
		age:         m.Histogram("plan_cache_age_ms"),
		expired:     new(obs.Counter), inserts: new(obs.Counter), dropped: new(obs.Counter),
	}
	c.shards = make([]*shard, ns)
	for i := range c.shards {
		c.shards[i] = &shard{entries: map[string]*entry{}}
	}
	c.entriesPer = cfg.MaxEntries / ns
	if c.entriesPer < 1 {
		c.entriesPer = 1
	}
	c.bytesPer = cfg.MaxBytes / int64(ns)
	if c.bytesPer < 1024 {
		c.bytesPer = 1024
	}
	return c
}

// BandsPerDecade returns the cardinality banding resolution callers must
// fingerprint plans with to hit this cache.
func (c *Cache) BandsPerDecade() int { return cardBands }

// TTL returns the configured entry time-to-live.
func (c *Cache) TTL() time.Duration { return c.cfg.TTL }

func key(fp Fingerprint, version, band string) string {
	if band == "" {
		return string(fp[:]) + "\x00" + version
	}
	return string(fp[:]) + "\x00" + version + "\x00" + band
}

// RiskBand quantizes a risk-aversion λ to the cache's keying band: plans
// optimized under close-enough λ values share cache entries instead of
// fragmenting the cache per float. Bands are 1/8-wide (λ rounds to the
// nearest 0.125); λ=0 maps to the empty band, so point-estimate requests
// key exactly as before the risk dimension existed.
func RiskBand(lambda float64) string {
	if lambda == 0 {
		return ""
	}
	q := math.Round(lambda*8) / 8
	if q == 0 {
		// Tiny but nonzero λ still asks for risk-adjusted scoring; keep it
		// out of the point-estimate band.
		q = 0.125
	}
	return strconv.FormatFloat(q, 'g', -1, 64)
}

func (c *Cache) shardFor(fp Fingerprint) *shard {
	// Shard by fingerprint prefix: SHA-256 output is uniform, so the first
	// bytes spread load evenly while keeping all versions of one
	// fingerprint on the same shard.
	idx := (uint32(fp[0]) | uint32(fp[1])<<8) & c.shardMask
	return c.shards[idx]
}

// Activate declares the model version new entries must carry and, when the
// version actually changed, bumps the generation counter: every entry
// stamped with an older generation becomes invisible at once (flash
// invalidation). Stale entries are then swept out to reclaim their bytes
// promptly; the generation check in Get stays as a backstop for entries
// racing in mid-sweep. Returns whether a flash invalidation happened.
func (c *Cache) Activate(version string) bool {
	old := c.active.Swap(&version)
	if old != nil && *old == version {
		return false
	}
	gen := c.gen.Add(1)
	var n int64
	for _, sh := range c.shards {
		sh.mu.Lock()
		for _, e := range sh.entries {
			if e.gen != gen {
				sh.remove(e)
				n++
			}
		}
		sh.mu.Unlock()
	}
	c.invalidated.Add(n)
	return true
}

// ActiveVersion returns the version last passed to Activate ("" before the
// first activation).
func (c *Cache) ActiveVersion() string {
	if v := c.active.Load(); v != nil {
		return *v
	}
	return ""
}

// Generation returns the current invalidation generation.
func (c *Cache) Generation() uint64 { return c.gen.Load() }

// GetBand returns the cached plan for (fp, version) in the given risk band
// (see RiskBand; "" is the point-estimate λ=0 band), if present, current and
// unexpired, and marks it most recently used.
func (c *Cache) GetBand(fp Fingerprint, version, band string) (*CachedPlan, bool) {
	sh := c.shardFor(fp)
	k := key(fp, version, band)
	now := time.Now()
	sh.mu.Lock()
	e, ok := sh.entries[k]
	if ok && e.gen != c.gen.Load() {
		sh.remove(e)
		c.invalidated.Inc()
		ok = false
	}
	if ok && !e.expires.IsZero() && now.After(e.expires) {
		sh.remove(e)
		c.expire()
		ok = false
	}
	if !ok {
		sh.mu.Unlock()
		c.misses.Inc()
		return nil, false
	}
	sh.unlink(e)
	sh.pushFront(e)
	cp := e.cp
	sh.mu.Unlock()
	c.hits.Inc()
	c.age.Observe(float64(now.Sub(cp.CachedAt).Microseconds()) / 1000)
	return cp, true
}

// Put inserts cp under (cp.Fingerprint, cp.ModelVersion). A plan produced
// by a version other than the active one is dropped (it could only serve
// requests that already lost the hot-swap race); before the first Activate
// every version is accepted, which is what embedded and library callers
// without a model lifecycle use. Returns whether the plan was stored.
func (c *Cache) Put(cp *CachedPlan) bool {
	if cp == nil {
		return false
	}
	if v := c.active.Load(); v != nil && *v != cp.ModelVersion {
		c.dropped.Inc()
		return false
	}
	gen := c.gen.Load()
	sh := c.shardFor(cp.Fingerprint)
	e := &entry{key: key(cp.Fingerprint, cp.ModelVersion, RiskBand(cp.RiskLambda)), cp: cp, gen: gen, size: cp.size()}
	if c.cfg.TTL > 0 {
		e.expires = cp.CachedAt.Add(c.cfg.TTL)
	}
	sh.mu.Lock()
	if old, ok := sh.entries[e.key]; ok {
		sh.remove(old)
	}
	sh.entries[e.key] = e
	sh.pushFront(e)
	sh.bytes += e.size
	// Evict from the cold end until this shard fits its share of the
	// entry and byte budgets.
	for (len(sh.entries) > c.entriesPer || sh.bytes > c.bytesPer) && sh.tail != nil && sh.tail != e {
		sh.remove(sh.tail)
		c.removed.Inc()
	}
	sh.mu.Unlock()
	c.inserts.Inc()
	return true
}

// Purge drops every entry and returns how many were removed.
func (c *Cache) Purge() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.entries = map[string]*entry{}
		sh.head, sh.tail, sh.bytes = nil, nil, 0
		sh.mu.Unlock()
	}
	return n
}

// Len returns the number of live entries (including not-yet-reclaimed stale
// ones).
func (c *Cache) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns the accounted size of all live entries.
func (c *Cache) Bytes() int64 {
	var n int64
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time view of the cache, the body of GET /cachez.
type Stats struct {
	Entries       int     `json:"entries"`
	Bytes         int64   `json:"bytes"`
	MaxEntries    int     `json:"maxEntries"`
	MaxBytes      int64   `json:"maxBytes"`
	TTLMs         float64 `json:"ttlMs"`
	Shards        int     `json:"shards"`
	Generation    uint64  `json:"generation"`
	ActiveVersion string  `json:"activeVersion"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Collapsed     int64   `json:"collapsed"`
	Evictions     int64   `json:"evictions"`
	Expired       int64   `json:"expired"`
	Invalidated   int64   `json:"invalidated"`
	Inserts       int64   `json:"inserts"`
	Dropped       int64   `json:"dropped"`
	PeerFills     int64   `json:"peerFills"`
}

// Snapshot returns the cache's current statistics.
func (c *Cache) Snapshot() Stats {
	expired := c.expired.Load() // before removed: see expire
	return Stats{
		Entries:       c.Len(),
		Bytes:         c.Bytes(),
		MaxEntries:    c.cfg.MaxEntries,
		MaxBytes:      c.cfg.MaxBytes,
		TTLMs:         float64(c.cfg.TTL.Microseconds()) / 1000,
		Shards:        c.cfg.Shards,
		Generation:    c.gen.Load(),
		ActiveVersion: c.ActiveVersion(),
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Collapsed:     c.collapsed.Load(),
		Evictions:     c.removed.Load() - expired,
		Expired:       expired,
		Invalidated:   c.invalidated.Load(),
		Inserts:       c.inserts.Load(),
		Dropped:       c.dropped.Load(),
		PeerFills:     c.peerFills.Load(),
	}
}
