package peercache

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/plancache"
	"repro/internal/registry"
)

// testPlan fabricates a servable cached plan.
func testPlan(b byte, version string) *plancache.CachedPlan {
	var fp plancache.Fingerprint
	fp[0] = b
	return &plancache.CachedPlan{
		Fingerprint:  fp,
		ModelVersion: version,
		Predicted:    float64(b),
		PredictedDist: core.CostDist{
			Mean: float64(b), Spread: 0.5, Lo: float64(b) - 1, Hi: float64(b) + 1,
		},
		CachedAt:    time.Now(),
		AssignCanon: []uint8{0, 1, 2},
		VectorF:     []float64{1, 2, 3},
		TraceID:     "trace-origin",
	}
}

// TestWireValidation: what is well-formed but not an installable entry is
// refused by the decoder.
func TestWireValidation(t *testing.T) {
	good := testPlan(1, "v1").Fingerprint.String()
	bad := []Entry{
		{Fingerprint: "zz", ModelVersion: "v1", AssignCanon: []int{0}},
		{Fingerprint: good[:62], ModelVersion: "v1", AssignCanon: []int{0}},
		{Fingerprint: good, AssignCanon: []int{0}},
		{Fingerprint: good, ModelVersion: "v1"},
		{Fingerprint: good, ModelVersion: "v1", AssignCanon: []int{300}},
		{Fingerprint: good, ModelVersion: "v1", AssignCanon: []int{-1}},
	}
	for i, e := range bad {
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeEntry(data); err == nil {
			t.Errorf("bad entry %d accepted: %s", i, data)
		}
	}
	data, _ := json.Marshal(Entry{Fingerprint: good, ModelVersion: "v1", AssignCanon: []int{255}})
	if _, err := DecodeEntry(data); err != nil {
		t.Errorf("the control entry is refused: %v", err)
	}
}

// peerServer runs a scripted /peercache peer and returns its host:port.
func peerServer(t *testing.T, handler http.HandlerFunc) string {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

// serveEntry answers every lookup with cp under the requested key.
func serveEntry(cp *plancache.CachedPlan, replica string, hits *atomic.Int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		body, err := AppendEntry(nil, cp, replica)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}
}

func serve404(w http.ResponseWriter, r *http.Request) {
	http.Error(w, `{"error":"miss"}`, http.StatusNotFound)
}

func newFiller(t *testing.T, cfg Config) *Filler {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

func staticPeers(addrs ...string) func() ([]registry.ReplicaInfo, error) {
	infos := make([]registry.ReplicaInfo, len(addrs))
	for i, a := range addrs {
		infos[i] = registry.ReplicaInfo{ID: "peer" + a, Addr: a}
	}
	return func() ([]registry.ReplicaInfo, error) { return infos, nil }
}

func TestFillHit(t *testing.T) {
	cp := testPlan(3, "v1")
	addr := peerServer(t, serveEntry(cp, "peer-a", nil))
	f := newFiller(t, Config{Peers: staticPeers(addr)})

	got, err := f.Fill(context.Background(), cp.Fingerprint, "v1", "")
	if err != nil || got == nil {
		t.Fatalf("Fill = (%v, %v), want a hit", got, err)
	}
	if got.Fingerprint != cp.Fingerprint || got.ModelVersion != "v1" {
		t.Fatalf("Fill returned the wrong entry: %+v", got)
	}
	if s := f.Snapshot(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("stats = %+v, want one hit", s)
	}
}

// TestFillNoPeers: a fleet of one is a clean miss without memoization —
// peers may register at any moment.
func TestFillNoPeers(t *testing.T) {
	f := newFiller(t, Config{
		SelfID:   "me",
		SelfAddr: "me:1",
		Peers:    staticPeers(), // empty fleet
	})
	var fp plancache.Fingerprint
	if cp, err := f.Fill(context.Background(), fp, "v1", ""); err != nil || cp != nil {
		t.Fatalf("Fill = (%v, %v), want clean miss", cp, err)
	}
	if s := f.Snapshot(); s.Misses != 1 || s.NegCached != 0 {
		t.Fatalf("stats = %+v, want one unmemoized miss", s)
	}
}

// TestFillSkipsSelf: a replica never probes its own registration, matched
// by ID or by address.
func TestFillSkipsSelf(t *testing.T) {
	var self atomic.Int64
	selfAddr := peerServer(t, serveEntry(testPlan(1, "v1"), "self", &self))
	f := newFiller(t, Config{
		SelfID:   "self",
		SelfAddr: selfAddr,
		Peers:    staticPeers(selfAddr),
	})
	var fp plancache.Fingerprint
	if cp, err := f.Fill(context.Background(), fp, "v1", ""); err != nil || cp != nil {
		t.Fatalf("Fill = (%v, %v), want a miss (only peer is self)", cp, err)
	}
	if self.Load() != 0 {
		t.Fatalf("replica probed itself %d times", self.Load())
	}
}

// TestFillHedgesToSecondPeer: when the first-choice peer stalls past the
// hedge delay, the lookup consults a second peer and wins from it.
func TestFillHedgesToSecondPeer(t *testing.T) {
	cp := testPlan(5, "v1")
	block := make(chan struct{})
	defer close(block)
	slow := peerServer(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
		serve404(w, r)
	})
	fast := peerServer(t, serveEntry(cp, "fast", nil))

	f := newFiller(t, Config{
		Peers:      staticPeers(slow, fast),
		Timeout:    2 * time.Second,
		HedgeDelay: 5 * time.Millisecond,
	})
	// Round-robin starts at the first peer on the first call.
	start := time.Now()
	got, err := f.Fill(context.Background(), cp.Fingerprint, "v1", "")
	if err != nil || got == nil {
		t.Fatalf("Fill = (%v, %v), want the hedged hit", got, err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedged lookup took %v — it waited out the slow peer", elapsed)
	}
}

// TestFillMissMemoized: a clean fleet-wide miss is remembered, so the next
// equal-key lookup answers without touching the network.
func TestFillMissMemoized(t *testing.T) {
	var probes atomic.Int64
	addr := peerServer(t, func(w http.ResponseWriter, r *http.Request) {
		probes.Add(1)
		serve404(w, r)
	})
	f := newFiller(t, Config{Peers: staticPeers(addr), Hedge: 1, NegTTL: time.Minute})
	var fp plancache.Fingerprint
	fp[0] = 8

	for i := 0; i < 3; i++ {
		if cp, err := f.Fill(context.Background(), fp, "v1", ""); err != nil || cp != nil {
			t.Fatalf("Fill %d = (%v, %v), want miss", i, cp, err)
		}
	}
	if probes.Load() != 1 {
		t.Fatalf("peer probed %d times, want 1 (miss memoized)", probes.Load())
	}
	if s := f.Snapshot(); s.Misses != 3 || s.NegCached != 1 {
		t.Fatalf("stats = %+v, want 3 misses, 1 memo", s)
	}
	// A different band is a different key: it probes.
	if _, err := f.Fill(context.Background(), fp, "v1", "b1"); err != nil {
		t.Fatalf("banded Fill: %v", err)
	}
	if probes.Load() != 2 {
		t.Fatalf("banded lookup reused the memo: %d probes", probes.Load())
	}
	// Forget drops the memo.
	f.Forget(fp, "v1", "")
	if _, err := f.Fill(context.Background(), fp, "v1", ""); err != nil {
		t.Fatalf("post-Forget Fill: %v", err)
	}
	if probes.Load() != 3 {
		t.Fatalf("Forget did not drop the memo: %d probes", probes.Load())
	}
}

// TestBreakerOpensAndCloses: consecutive failures take a peer out of
// rotation for the cooldown; it rejoins afterwards.
func TestBreakerOpensAndCloses(t *testing.T) {
	var probes atomic.Int64
	bad := peerServer(t, func(w http.ResponseWriter, r *http.Request) {
		probes.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	f := newFiller(t, Config{
		Peers:            staticPeers(bad),
		Hedge:            1,
		NegTTL:           -1, // misses must not mask the breaker behavior
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
	})
	var fp plancache.Fingerprint

	// Two failing lookups open the breaker.
	for i := 0; i < 2; i++ {
		if _, err := f.Fill(context.Background(), fp, "v1", ""); err == nil {
			t.Fatalf("Fill %d succeeded against a broken peer", i)
		}
	}
	if s := f.Snapshot(); s.OpenBreakers != 1 || s.Errors != 2 {
		t.Fatalf("stats = %+v, want open breaker after 2 errors", s)
	}
	// While open, the peer is skipped entirely: a lookup is a clean miss
	// with no new probe.
	before := probes.Load()
	if cp, err := f.Fill(context.Background(), fp, "v1", ""); err != nil || cp != nil {
		t.Fatalf("Fill with open breaker = (%v, %v), want miss", cp, err)
	}
	if probes.Load() != before {
		t.Fatal("open breaker did not keep the peer out of rotation")
	}
	// After the cooldown the peer rejoins rotation.
	time.Sleep(60 * time.Millisecond)
	f.Fill(context.Background(), fp, "v1", "")
	if probes.Load() != before+1 {
		t.Fatalf("peer not retried after cooldown: %d probes, want %d", probes.Load(), before+1)
	}
}

// TestFillTimeoutClassified: a peer that answers slower than the probe
// timeout counts as a timeout, not a generic error.
func TestFillTimeoutClassified(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	hang := peerServer(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	})
	f := newFiller(t, Config{
		Peers:   staticPeers(hang),
		Hedge:   1,
		Timeout: 20 * time.Millisecond,
	})
	var fp plancache.Fingerprint
	if _, err := f.Fill(context.Background(), fp, "v1", ""); err == nil {
		t.Fatal("Fill succeeded against a hung peer")
	}
	if s := f.Snapshot(); s.Timeouts != 1 || s.Errors != 0 {
		t.Fatalf("stats = %+v, want the failure classified as a timeout", s)
	}
}

func TestFetchFrom(t *testing.T) {
	cp := testPlan(9, "v1")
	addr := peerServer(t, serveEntry(cp, "holder", nil))
	missAddr := peerServer(t, http.HandlerFunc(serve404))
	f := newFiller(t, Config{Peers: staticPeers()})

	got, err := f.FetchFrom(context.Background(), addr, cp.Fingerprint, "v1", "")
	if err != nil || got == nil || got.Fingerprint != cp.Fingerprint {
		t.Fatalf("FetchFrom = (%v, %v), want the entry", got, err)
	}
	// A 404 from the explicit holder is (nil, nil): not done yet.
	if got, err := f.FetchFrom(context.Background(), missAddr, cp.Fingerprint, "v1", ""); err != nil || got != nil {
		t.Fatalf("FetchFrom miss = (%v, %v), want (nil, nil)", got, err)
	}
	// An unreachable holder is an error.
	if _, err := f.FetchFrom(context.Background(), "127.0.0.1:1", cp.Fingerprint, "v1", ""); err == nil {
		t.Fatal("FetchFrom against a dead address succeeded")
	}
}

func TestNewRequiresPeers(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a config without Peers")
	}
}

// TestDefaultClientIsDirect: the default client takes no proxy from the
// environment and asks for no compression — peers are in-cluster addresses,
// and an entry is a kilobyte or two.
func TestDefaultClientIsDirect(t *testing.T) {
	t.Setenv("HTTP_PROXY", "http://127.0.0.1:1")
	t.Setenv("http_proxy", "http://127.0.0.1:1")
	cp := testPlan(4, "v1")
	var acceptEncoding atomic.Value
	addr := peerServer(t, func(w http.ResponseWriter, r *http.Request) {
		acceptEncoding.Store(r.Header.Get("Accept-Encoding"))
		serveEntry(cp, "peer-a", nil)(w, r)
	})
	f := newFiller(t, Config{Peers: staticPeers(addr)})
	if got, err := f.Fill(context.Background(), cp.Fingerprint, "v1", ""); err != nil || got == nil {
		t.Fatalf("Fill = (%v, %v), want a hit with a dead proxy in the environment", got, err)
	}
	if ae := acceptEncoding.Load(); ae != "" {
		t.Errorf("probe sent Accept-Encoding %q, want none", ae)
	}
	// Go never proxies a loopback address, so the fill above cannot tell:
	// look at the transport itself.
	tr, ok := f.cfg.Client.Transport.(*http.Transport)
	if !ok || tr.Proxy != nil {
		t.Errorf("default client transport = %#v, want an http.Transport without a proxy", f.cfg.Client.Transport)
	}
}

// TestDefaultClientReusesConnections: a burst of n concurrent lookups opens
// at most n connections to a peer, and the next burst opens none — the
// transport keeps as many idle connections per peer as lookups run at once.
func TestDefaultClientReusesConnections(t *testing.T) {
	const n = 8
	cp := testPlan(6, "v1")
	var (
		arrived atomic.Int64
		opened  atomic.Int64
		waves   = [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	)
	// Every request of a wave waits for the whole wave, so that none can
	// reuse the connection of another.
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		k := arrived.Add(1)
		if k%n == 0 {
			close(waves[(k-1)/n])
		}
		select {
		case <-waves[(k-1)/n]:
		case <-r.Context().Done():
		}
		serveEntry(cp, "peer-a", nil)(w, r)
	}))
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	f := newFiller(t, Config{Peers: staticPeers(strings.TrimPrefix(ts.URL, "http://")), Hedge: 1, Timeout: 10 * time.Second})

	// The transport parks a connection after the probe has seen the end of
	// its body, on a goroutine of its own: wait for that, not for Fill.
	parked := make(chan struct{}, 2*n)
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		PutIdleConn: func(err error) {
			if err != nil {
				t.Errorf("connection not kept: %v", err)
			}
			parked <- struct{}{}
		},
	})
	for wave := 1; wave <= 2; wave++ {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got, err := f.Fill(ctx, cp.Fingerprint, "v1", ""); err != nil || got == nil {
					t.Errorf("Fill = (%v, %v), want a hit", got, err)
				}
			}()
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			select {
			case <-parked:
			case <-time.After(10 * time.Second):
				t.Fatalf("wave %d: %d of %d connections parked", wave, i, n)
			}
		}
		if got := opened.Load(); got != n {
			t.Fatalf("after wave %d the peer has seen %d connections, want %d", wave, got, n)
		}
	}
}

// TestOversizedBody: a body past maxEntryBytes is named for what it is, with
// or without an announced length, and counts against the peer.
func TestOversizedBody(t *testing.T) {
	huge := bytes.Repeat([]byte(" "), maxEntryBytes+1)
	for name, announce := range map[string]bool{"announced": true, "chunked": false} {
		addr := peerServer(t, func(w http.ResponseWriter, r *http.Request) {
			if announce {
				w.Header().Set("Content-Length", strconv.Itoa(len(huge)))
			}
			w.Write(huge)
		})
		f := newFiller(t, Config{Peers: staticPeers(addr), Hedge: 1, BreakerThreshold: 1, Timeout: 10 * time.Second})
		var fp plancache.Fingerprint
		_, err := f.Fill(context.Background(), fp, "v1", "")
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("entry exceeds %d bytes", maxEntryBytes)) {
			t.Errorf("%s: Fill error %v, want the size named", name, err)
		}
		if s := f.Snapshot(); s.Errors != 1 || s.Timeouts != 0 || s.OpenBreakers != 1 {
			t.Errorf("%s: stats = %+v, want one error and an open breaker", name, s)
		}
	}
	// A body of exactly the limit is read whole (and is then no entry).
	addr := peerServer(t, func(w http.ResponseWriter, r *http.Request) { w.Write(huge[1:]) })
	f := newFiller(t, Config{Peers: staticPeers(addr), Hedge: 1, Timeout: 10 * time.Second})
	var fp plancache.Fingerprint
	if _, err := f.Fill(context.Background(), fp, "v1", ""); err == nil || strings.Contains(err.Error(), "exceeds") {
		t.Errorf("Fill error %v on a body at the limit, want a decoding error", err)
	}
}
