package peercache

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
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
func peerServer(t testing.TB, handler http.HandlerFunc) string {
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

	f := newFiller(t, Config{Peers: staticPeers(slow, fast)})
	f.timeout, f.hedgeDelay = 2*time.Second, 5*time.Millisecond
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
	f := newFiller(t, Config{Peers: staticPeers(addr)})
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
}

// TestBreakerOpensAndCloses: consecutive failures take a peer out of
// rotation for the cooldown; it rejoins afterwards.
func TestBreakerOpensAndCloses(t *testing.T) {
	var probes atomic.Int64
	bad := peerServer(t, func(w http.ResponseWriter, r *http.Request) {
		probes.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	f := newFiller(t, Config{Peers: staticPeers(bad)})
	f.negTTL = 0 // misses must not mask the breaker behavior
	f.breakerCooldown = 50 * time.Millisecond
	var fp plancache.Fingerprint

	// breakerThreshold failing lookups open the breaker.
	for i := 0; i < breakerThreshold; i++ {
		if _, err := f.Fill(context.Background(), fp, "v1", ""); err == nil {
			t.Fatalf("Fill %d succeeded against a broken peer", i)
		}
	}
	if s := f.Snapshot(); s.OpenBreakers != 1 || s.Errors != breakerThreshold {
		t.Fatalf("stats = %+v, want open breaker after %d errors", s, breakerThreshold)
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
	f := newFiller(t, Config{Peers: staticPeers(hang)})
	f.timeout = 20 * time.Millisecond
	var fp plancache.Fingerprint
	if _, err := f.Fill(context.Background(), fp, "v1", ""); err == nil {
		t.Fatal("Fill succeeded against a hung peer")
	}
	if s := f.Snapshot(); s.Timeouts != 1 || s.Errors != 0 {
		t.Fatalf("stats = %+v, want the failure classified as a timeout", s)
	}
}

func TestNewRequiresPeers(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a config without Peers")
	}
}

// TestDefaultClientIsDirect: the probe client takes no proxy from the
// environment and asks for no compression — peers are in-cluster addresses,
// and an entry is a kilobyte or two.
func TestDefaultClientIsDirect(t *testing.T) {
	t.Setenv("HTTP_PROXY", "http://127.0.0.1:1")
	t.Setenv("http_proxy", "http://127.0.0.1:1")
	cp := testPlan(4, "v1")
	var acceptEncoding, requestURI atomic.Value
	addr := peerServer(t, func(w http.ResponseWriter, r *http.Request) {
		acceptEncoding.Store(r.Header.Get("Accept-Encoding"))
		requestURI.Store(r.RequestURI)
		serveEntry(cp, "peer-a", nil)(w, r)
	})
	f := newFiller(t, Config{Peers: staticPeers(addr)})
	if got, err := f.Fill(context.Background(), cp.Fingerprint, "v1", "b 1&x"); err != nil || got == nil {
		t.Fatalf("Fill = (%v, %v), want a hit with a dead proxy in the environment", got, err)
	}
	if ae := acceptEncoding.Load(); ae != "" {
		t.Errorf("probe sent Accept-Encoding %q, want none", ae)
	}
	// A proxied request names its target in absolute form (http://host/...);
	// a direct one in origin form, with every value query-escaped.
	want := "/peercache?fp=" + cp.Fingerprint.String() + "&version=v1&band=b+1%26x"
	if uri := requestURI.Load(); uri != want {
		t.Errorf("request target %q, want %q", uri, want)
	}
}

// countingPeer is a peer that counts the connections it accepts and sees
// closed.
type countingPeer struct {
	*httptest.Server
	addr           string
	opened, closed atomic.Int64
}

func countConns(t *testing.T, h http.HandlerFunc) *countingPeer {
	t.Helper()
	p := &countingPeer{Server: httptest.NewUnstartedServer(h)}
	p.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		switch state {
		case http.StateNew:
			p.opened.Add(1)
		case http.StateClosed, http.StateHijacked:
			p.closed.Add(1)
		}
	}
	p.Start()
	t.Cleanup(p.Close)
	p.addr = strings.TrimPrefix(p.URL, "http://")
	return p
}

// TestDefaultClientReusesConnections: a burst of n concurrent lookups opens
// exactly n connections to a peer, and the next burst opens none — the
// client keeps as many idle connections per peer as lookups run at once, and
// parks each before Fill returns.
func TestDefaultClientReusesConnections(t *testing.T) {
	const n = 8
	cp := testPlan(6, "v1")
	var (
		arrived atomic.Int64
		waves   = [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	)
	// Every request of a wave waits for the whole wave, so that none can
	// reuse the connection of another.
	p := countConns(t, func(w http.ResponseWriter, r *http.Request) {
		k := arrived.Add(1)
		if k%n == 0 {
			close(waves[(k-1)/n])
		}
		select {
		case <-waves[(k-1)/n]:
		case <-r.Context().Done():
		}
		serveEntry(cp, "peer-a", nil)(w, r)
	})
	f := newFiller(t, Config{Peers: staticPeers(p.addr)})
	f.timeout = 10 * time.Second
	for wave := 1; wave <= 2; wave++ {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got, err := f.Fill(context.Background(), cp.Fingerprint, "v1", ""); err != nil || got == nil {
					t.Errorf("Fill = (%v, %v), want a hit", got, err)
				}
			}()
		}
		wg.Wait()
		if got := p.opened.Load(); got != n {
			t.Fatalf("after wave %d the peer has seen %d connections, want %d", wave, got, n)
		}
		if idle := len(f.conns.idle[p.addr]); idle != n {
			t.Fatalf("after wave %d the client keeps %d idle connections, want %d", wave, idle, n)
		}
	}
}

// TestStaleConnectionRetried: a kept-alive connection the peer has closed
// while it sat idle fails before the reply's first byte, so the probe is
// sent once more on a new connection, and hits.
func TestStaleConnectionRetried(t *testing.T) {
	cp := testPlan(7, "v1")
	var served atomic.Int64
	p := countConns(t, serveEntry(cp, "peer-a", &served))
	f := newFiller(t, Config{Peers: staticPeers(p.addr)})
	f.timeout = 10 * time.Second
	if got, err := f.Fill(context.Background(), cp.Fingerprint, "v1", ""); err != nil || got == nil {
		t.Fatalf("first Fill = (%v, %v), want a hit", got, err)
	}
	// The peer drops the parked connection, as its idle timeout does.
	p.CloseClientConnections()
	waitFor(t, func() bool { return p.closed.Load() == 1 })
	if got, err := f.Fill(context.Background(), cp.Fingerprint, "v1", "b1"); err != nil || got == nil {
		t.Fatalf("Fill on a stale connection = (%v, %v), want a hit after one retry", got, err)
	}
	if p.opened.Load() != 2 || served.Load() != 2 {
		t.Fatalf("peer saw %d connections and served %d probes, want 2 and 2", p.opened.Load(), served.Load())
	}
	if s := f.Snapshot(); s.Hits != 2 || s.Errors != 0 {
		t.Fatalf("stats = %+v, want two hits and no error", s)
	}
}

// TestFailureAfterFirstByteNotRetried: a reused connection that breaks
// once the reply has begun is not retried: the peer has seen the probe.
func TestFailureAfterFirstByteNotRetried(t *testing.T) {
	cp := testPlan(8, "v1")
	var served atomic.Int64
	p := countConns(t, func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			serveEntry(cp, "peer-a", nil)(w, r)
			return
		}
		// Half a reply head, then hang up.
		conn, bw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		bw.WriteString("HTTP/1.1 200 OK\r\nContent-")
		bw.Flush()
		conn.Close()
	})
	f := newFiller(t, Config{Peers: staticPeers(p.addr)})
	f.timeout = 10 * time.Second
	if got, err := f.Fill(context.Background(), cp.Fingerprint, "v1", ""); err != nil || got == nil {
		t.Fatalf("first Fill = (%v, %v), want a hit", got, err)
	}
	if _, err := f.Fill(context.Background(), cp.Fingerprint, "v1", "b1"); err == nil {
		t.Fatal("Fill succeeded on a reply cut off mid-head")
	}
	if served.Load() != 2 || p.opened.Load() != 1 {
		t.Fatalf("peer served %d probes on %d connections, want 2 on 1 (no retry)", served.Load(), p.opened.Load())
	}
	if s := f.Snapshot(); s.Errors != 1 {
		t.Fatalf("stats = %+v, want one error", s)
	}
}

// TestReplyHeadBounded: a reply whose head runs past maxReplyHead is refused
// once that much is read, not buffered whole.
func TestReplyHeadBounded(t *testing.T) {
	addr := peerServer(t, func(w http.ResponseWriter, r *http.Request) {
		conn, bw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		bw.WriteString("HTTP/1.1 200 OK\r\nX-Pad: ")
		bw.Write(bytes.Repeat([]byte("a"), 4*maxReplyHead))
		bw.WriteString("\r\nContent-Length: 0\r\n\r\n")
		bw.Flush()
	})
	f := newFiller(t, Config{Peers: staticPeers(addr)})
	f.timeout = 10 * time.Second
	var fp plancache.Fingerprint
	if _, err := f.Fill(context.Background(), fp, "v1", ""); !errors.Is(err, errReplyHeadTooBig) {
		t.Fatalf("Fill error %v, want %v", err, errReplyHeadTooBig)
	}
}

// TestLongMissBodyClosesConnection: a 404 whose body is longer than the
// drain limit closes its connection rather than parking it, so the next
// probe does not read the leftover bytes as its reply.
func TestLongMissBodyClosesConnection(t *testing.T) {
	cp := testPlan(9, "v1")
	var served atomic.Int64
	p := countConns(t, func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			w.WriteHeader(http.StatusNotFound)
			// A body that reads like a reply of its own past the drain limit.
			w.Write(bytes.Repeat([]byte("x"), drainLimit))
			w.Write([]byte("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"))
			return
		}
		serveEntry(cp, "peer-a", nil)(w, r)
	})
	f := newFiller(t, Config{Peers: staticPeers(p.addr)})
	f.timeout = 10 * time.Second
	if got, err := f.Fill(context.Background(), cp.Fingerprint, "v1", ""); err != nil || got != nil {
		t.Fatalf("first Fill = (%v, %v), want a miss", got, err)
	}
	if idle := len(f.conns.idle[p.addr]); idle != 0 {
		t.Fatalf("%d connections parked after an undrained body, want 0", idle)
	}
	if got, err := f.Fill(context.Background(), cp.Fingerprint, "v1", "b1"); err != nil || got == nil {
		t.Fatalf("second Fill = (%v, %v), want a hit", got, err)
	}
	if p.opened.Load() != 2 {
		t.Fatalf("peer saw %d connections, want 2", p.opened.Load())
	}
}

// TestCancelledCallerReturnsPromptly: cancelling the caller interrupts a
// probe in flight well inside the probe timeout, and counts as a timeout.
func TestCancelledCallerReturnsPromptly(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	hang := peerServer(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	})
	f := newFiller(t, Config{Peers: staticPeers(hang)})
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	start := time.Now()
	var fp plancache.Fingerprint
	if _, err := f.Fill(ctx, fp, "v1", ""); err == nil {
		t.Fatal("Fill succeeded against a hung peer")
	}
	if elapsed := time.Since(start); elapsed > probeTimeout/2 {
		t.Fatalf("cancelled Fill took %v, want well inside the %v probe timeout", elapsed, probeTimeout)
	}
	if s := f.Snapshot(); s.Timeouts != 1 || s.Errors != 0 {
		t.Fatalf("stats = %+v, want the cancellation counted as a timeout", s)
	}
	if idle := len(f.conns.idle[hang]); idle != 0 {
		t.Fatalf("%d interrupted connections parked, want 0", idle)
	}
}

// TestSilentPeerBoundedByProbeTimeout: a peer that accepts the connection
// and never answers costs one probe timeout.
func TestSilentPeerBoundedByProbeTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { c.Close() })
		}
	}()
	f := newFiller(t, Config{Peers: staticPeers(ln.Addr().String())})
	f.timeout = 30 * time.Millisecond
	start := time.Now()
	var fp plancache.Fingerprint
	if _, err := f.Fill(context.Background(), fp, "v1", ""); err == nil {
		t.Fatal("Fill succeeded against a silent peer")
	}
	if elapsed := time.Since(start); elapsed < f.timeout || elapsed > 2*time.Second {
		t.Fatalf("Fill against a silent peer took %v, want about the %v probe timeout", elapsed, f.timeout)
	}
	if s := f.Snapshot(); s.Timeouts != 1 {
		t.Fatalf("stats = %+v, want one timeout", s)
	}
}

// TestIdleConnectionExpires: a connection idle past its expiry is closed, not
// reused, and a lookup to another peer closes it too once it expires, as
// when its peer has left the fleet.
func TestIdleConnectionExpires(t *testing.T) {
	cp := testPlan(10, "v1")
	p := countConns(t, serveEntry(cp, "peer-a", nil))
	f := newFiller(t, Config{Peers: staticPeers(p.addr)})
	f.timeout, f.idleTimeout = 10*time.Second, 20*time.Millisecond
	for i, band := range []string{"", "b1"} {
		if got, err := f.Fill(context.Background(), cp.Fingerprint, "v1", band); err != nil || got == nil {
			t.Fatalf("Fill %d = (%v, %v), want a hit", i, got, err)
		}
		time.Sleep(3 * f.idleTimeout)
	}
	if p.opened.Load() != 2 {
		t.Fatalf("peer saw %d connections, want 2 (an expired connection was reused)", p.opened.Load())
	}
	waitFor(t, func() bool { return p.closed.Load() == 1 })
	if c := f.conns.take("elsewhere.invalid:1", f.idleTimeout); c != nil {
		t.Fatalf("take found a connection to a peer never asked: %v", c)
	}
	waitFor(t, func() bool { return p.closed.Load() == 2 })
	if len(f.conns.idle) != 0 {
		t.Fatalf("idle pool %v after the sweep, want it empty", f.conns.idle)
	}
}

// BenchmarkPeerProbe: one Fill hit after another against a loopback peer,
// each one probe on the client's kept-alive connection.
func BenchmarkPeerProbe(b *testing.B) {
	cp := testPlan(11, "v1")
	f, err := New(Config{Peers: staticPeers(peerServer(b, serveEntry(cp, "peer-a", nil)))})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got, err := f.Fill(context.Background(), cp.Fingerprint, "v1", ""); err != nil || got == nil {
			b.Fatalf("Fill = (%v, %v), want a hit", got, err)
		}
	}
}

// waitFor polls cond for up to 10 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10 s")
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
		f := newFiller(t, Config{Peers: staticPeers(addr)})
		f.timeout = 10 * time.Second
		var fp plancache.Fingerprint
		_, err := f.Fill(context.Background(), fp, "v1", "")
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("entry exceeds %d bytes", maxEntryBytes)) {
			t.Errorf("%s: Fill error %v, want the size named", name, err)
		}
		if s := f.Snapshot(); s.Errors != 1 || s.Timeouts != 0 {
			t.Errorf("%s: stats = %+v, want one error", name, s)
		}
		if b := f.breakers[addr]; b == nil || b.fails != 1 {
			t.Errorf("%s: breaker %+v, want the failure counted against the peer", name, b)
		}
	}
	// A body of exactly the limit is read whole (and is then no entry).
	addr := peerServer(t, func(w http.ResponseWriter, r *http.Request) { w.Write(huge[1:]) })
	f := newFiller(t, Config{Peers: staticPeers(addr)})
	f.timeout = 10 * time.Second
	var fp plancache.Fingerprint
	if _, err := f.Fill(context.Background(), fp, "v1", ""); err == nil || strings.Contains(err.Error(), "exceeds") {
		t.Errorf("Fill error %v on a body at the limit, want a decoding error", err)
	}
}
