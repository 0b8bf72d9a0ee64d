package obs

import (
	"fmt"
	"strings"
)

// W3C trace-context support: the `traceparent` header carries a trace ID
// across process boundaries so a load generator (or an upstream service) can
// start a trace and later fetch the server-side span tree via /tracez?id=.
// Only version 00 of the header is parsed:
//
//	traceparent: 00-<32 lowercase hex trace-id>-<16 lowercase hex parent-id>-<2 hex flags>
//
// Flag bit 0 is "sampled"; the serving layer treats it as a request for the
// trace's full detail and forced retention, which is the useful reading when
// the caller is a debugging client rather than a probabilistic sampler.

// TraceParent is a parsed W3C traceparent header.
type TraceParent struct {
	TraceID  string // 32 lowercase hex chars, not all zero
	ParentID string // 16 lowercase hex chars, not all zero
	Sampled  bool
}

// ParseTraceParent parses a version-00 traceparent header value. Returns
// ok=false on anything malformed (wrong field count, wrong lengths, non-hex,
// all-zero IDs, unknown version) — callers fall back to local trace IDs
// rather than erroring the request.
func ParseTraceParent(v string) (TraceParent, bool) {
	parts := strings.Split(strings.TrimSpace(v), "-")
	if len(parts) != 4 {
		return TraceParent{}, false
	}
	ver, tid, pid, flags := parts[0], parts[1], parts[2], parts[3]
	if ver != "00" || len(tid) != 32 || len(pid) != 16 || len(flags) != 2 {
		return TraceParent{}, false
	}
	if !isLowerHex(tid) || !isLowerHex(pid) || !isLowerHex(flags) {
		return TraceParent{}, false
	}
	if tid == strings.Repeat("0", 32) || pid == strings.Repeat("0", 16) {
		return TraceParent{}, false
	}
	return TraceParent{
		TraceID:  tid,
		ParentID: pid,
		Sampled:  hexByte(flags)&0x01 != 0,
	}, true
}

// String renders the traceparent back into header form.
func (tp TraceParent) String() string {
	flags := "00"
	if tp.Sampled {
		flags = "01"
	}
	return fmt.Sprintf("00-%s-%s-%s", tp.TraceID, tp.ParentID, flags)
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return len(s) > 0
}

// hexByte decodes a 2-char lowercase-hex string (pre-validated) to a byte.
func hexByte(s string) byte {
	nib := func(c byte) byte {
		if c >= 'a' {
			return c - 'a' + 10
		}
		return c - '0'
	}
	return nib(s[0])<<4 | nib(s[1])
}
