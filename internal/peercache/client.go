package peercache

import (
	"bufio"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/jsonlex"
	"repro/internal/plancache"
)

// The probe's HTTP/1.1 client: one GET per kept-alive connection, written in
// one Write, its reply read by net/http's ReadResponse, bounded by the
// connection's deadline. It takes no proxy and asks for no gzip: peers are
// the fleet's own addresses, and an entry is a kilobyte or two.

const (
	idleTimeout  = 90 * time.Second // idle longer, a connection is closed, not reused; roboptd's server idles out at 2 min
	maxReplyHead = 64 << 10         // bytes a reply may use before its body
	drainLimit   = 4096             // a longer 404 or error body closes its connection
)

var errReplyHeadTooBig = fmt.Errorf("reply head exceeds %d bytes", maxReplyHead)

// peerConn is one connection to a peer, idle or carrying one probe.
type peerConn struct {
	net.Conn
	lr     io.LimitedReader // the connection, limited to maxReplyHead bytes until the reply's head is in
	br     *bufio.Reader    // reads lr
	req    []byte           // the request last written
	reused bool             // it carried an earlier probe
	clean  bool             // the last reply ended where its body did: it may carry the next
	parked time.Time        // when it last went idle
}

// probe asks the peer at addr for (fp, version, band) on its most recently
// parked connection or a new one, bounded by the earlier of the probe timeout
// and ctx's deadline and interrupted by ctx's cancellation. A reused
// connection that fails before the reply's first byte, not by a deadline, was
// most likely closed by the peer while idle: as net/http does for an
// idempotent request, the probe goes once more on a new connection.
func (f *Filler) probe(ctx context.Context, addr string, fp plancache.Fingerprint, version, band string) probeResult {
	deadline := time.Now().Add(f.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	r := probeResult{addr: addr}
	for c := f.conns.take(addr, f.idleTimeout); ; c = nil {
		if c == nil {
			if c, r.err = f.connect(ctx, addr, deadline); r.err != nil {
				return r
			}
		}
		c.SetDeadline(deadline) // on a broken connection, the round trip fails
		stop := func() bool { return true }
		if ctx.Done() != nil {
			cc := c
			stop = context.AfterFunc(ctx, func() { cc.SetDeadline(time.Unix(1, 0)) })
		}
		r.cp, r.miss, r.err = c.roundTrip(addr, fp, version, band)
		if stop() && c.clean {
			f.conns.park(addr, c)
		} else {
			c.Close()
		}
		if r.err == nil || !c.reused || c.lr.N != maxReplyHead || isTimeout(r.err) || ctx.Err() != nil {
			return r
		}
	}
}

// connect dials addr, refusing one that could break the request's head.
func (f *Filler) connect(ctx context.Context, addr string, deadline time.Time) (*peerConn, error) {
	if strings.IndexFunc(addr, func(r rune) bool { return r <= ' ' || r == 0x7f }) >= 0 {
		return nil, fmt.Errorf("peer %q: address holds a space or control byte", addr)
	}
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	nc, err := f.dial(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &peerConn{Conn: nc, lr: io.LimitedReader{R: nc}}
	c.br = bufio.NewReader(&c.lr)
	return c, nil
}

// roundTrip writes the probe and reads the reply. A 404 is a miss.
func (c *peerConn) roundTrip(addr string, fp plancache.Fingerprint, version, band string) (*plancache.CachedPlan, bool, error) {
	c.clean, c.lr.N = false, maxReplyHead
	c.req = hex.AppendEncode(append(c.req[:0], "GET /peercache?fp="...), fp[:])
	c.req = append(append(c.req, "&version="...), url.QueryEscape(version)...)
	c.req = append(append(c.req, "&band="...), url.QueryEscape(band)...)
	c.req = append(append(append(c.req, " HTTP/1.1\r\nHost: "...), addr...), "\r\n\r\n"...)
	if _, err := c.Conn.Write(c.req); err != nil {
		return nil, false, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil && c.lr.N == 0 {
		err = errReplyHeadTooBig
	}
	if err != nil {
		return nil, false, err
	}
	c.lr.N = math.MaxInt64
	var cp *plancache.CachedPlan
	var n int64
	if resp.StatusCode == http.StatusOK {
		// A decoded entry keeps no reference to its bytes.
		buf := jsonlex.TakeBuffer()
		defer jsonlex.PutBuffer(buf)
		if buf.B, err = readBody(buf.B, resp.Body, resp.ContentLength); err == nil {
			cp, err = DecodeEntry(buf.B)
		}
	} else {
		n, err = io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit+1))
	}
	// The connection carries the next probe only if this reply ended where
	// its body did (resp.Body.Close would drain a long one whole); an
	// interim 1xx reply has the real one behind it.
	c.clean = err == nil && n <= drainLimit && resp.StatusCode >= 200 && !resp.Close && c.br.Buffered() == 0
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return nil, true, nil
	case resp.StatusCode != http.StatusOK:
		return nil, false, fmt.Errorf("peer %s: status %d", addr, resp.StatusCode)
	case err != nil:
		return nil, false, fmt.Errorf("peer %s: %w", addr, err)
	}
	return cp, false, nil
}

// isTimeout reports whether err is a deadline's: the probe's budget, or the
// caller's cancellation, which interrupts a probe by the same means.
func isTimeout(err error) bool {
	var ne interface{ Timeout() bool }
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) ||
		errors.As(err, &ne) && ne.Timeout()
}

// connPool is a Filler's idle connections: a stack per peer address, the
// longest idle at the bottom.
type connPool struct {
	mu    sync.Mutex
	idle  map[string][]*peerConn
	swept time.Time // when every stack was last expired
}

// take pops addr's most recently parked connection. It first closes addr's
// connections idle longer than timeout, and once per timeout every peer's, so
// that a peer no lookup asks any more, one that left the fleet, keeps none.
func (p *connPool) take(addr string, timeout time.Duration) *peerConn {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if now.Sub(p.swept) > timeout {
		p.swept = now
		for a := range p.idle {
			if len(p.expire(a, now, timeout)) == 0 {
				delete(p.idle, a)
			}
		}
	}
	s := p.expire(addr, now, timeout)
	if len(s) == 0 {
		return nil
	}
	c := s[len(s)-1]
	s[len(s)-1] = nil
	p.idle[addr] = s[:len(s)-1]
	c.reused = true
	return c
}

// expire closes addr's connections idle longer than timeout and returns the
// rest. The caller holds p.mu.
func (p *connPool) expire(addr string, now time.Time, timeout time.Duration) []*peerConn {
	s := p.idle[addr]
	i := 0
	for ; i < len(s) && now.Sub(s[i].parked) > timeout; i++ {
		s[i].Close()
	}
	if i > 0 {
		s = slices.Delete(s, 0, i)
		p.idle[addr] = s
	}
	return s
}

// park puts c on addr's stack, or closes it when the stack is full.
func (p *connPool) park(addr string, c *peerConn) {
	c.parked = time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle[addr]) >= idleConnsPerPeer {
		c.Close()
		return
	}
	p.idle[addr] = append(p.idle[addr], c)
}
