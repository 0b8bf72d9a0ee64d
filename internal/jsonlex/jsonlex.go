// Package jsonlex is the lexical layer of the repository's hand-written JSON
// codecs: the plan grammar (internal/plan), the /peercache entry codec
// (internal/peercache), the /optimize reply (internal/service) and the model
// artifact (internal/mlmodel). It knows tokens — brackets, separators,
// strings, numbers, the three literals — and nothing of any grammar: which
// keys an object takes, whether an unknown one is an error or skipped, and
// what null means are the caller's rules.
//
// What it accepts as a token is what encoding/json accepts, and what its
// appenders write is what encoding/json writes; the differential fuzz tests
// of the callers hold it to both.
package jsonlex

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// MaxDepth is how many objects and arrays may be open at once, as in
// encoding/json. Skip holds a value to it, and so does a grammar whose
// nesting is not fixed, such as the model artifact's envelopes.
const MaxDepth = 10000

// Scanner is a cursor over one JSON text. It does not recurse and does not
// allocate on a plain-ASCII text without string escapes.
type Scanner struct {
	Data []byte
	Pos  int
	// What prefixes every error, e.g. "plan: decoding JSON plan".
	What string
}

// Errorf returns an error that carries What and the cursor's offset.
func (s *Scanner) Errorf(format string, args ...any) error {
	return fmt.Errorf(s.What+": "+format+" at offset %d", append(args, s.Pos)...)
}

// space marks the bytes JSON counts as whitespace, and strStop the bytes a
// string scan must stop at and look: the closing quote, a backslash, a
// control byte or the start of a multi-byte sequence. One load classifies a
// byte where a chain of comparisons did.
var space, strStop = func() (space, stop [256]bool) {
	for _, c := range " \t\n\r" {
		space[c] = true
	}
	for c := range stop {
		stop[c] = c == '"' || c == '\\' || c < ' ' || c >= utf8.RuneSelf
	}
	return space, stop
}()

// SkipSpace moves the cursor past JSON whitespace.
func (s *Scanner) SkipSpace() {
	i := s.Pos
	for i < len(s.Data) && space[s.Data[i]] {
		i++
	}
	s.Pos = i
}

// Peek returns the byte at the cursor, or 0 at the end of the input.
func (s *Scanner) Peek() byte {
	if s.Pos < len(s.Data) {
		return s.Data[s.Pos]
	}
	return 0
}

// Open consumes c, the opening bracket of an object or array.
func (s *Scanner) Open(c byte) error {
	if s.SkipSpace(); s.Peek() != c {
		return s.Errorf("expected %q", c)
	}
	s.Pos++
	return nil
}

// More reports whether another member follows in the object or array that
// ends with end, consuming the separating comma or the closing bracket.
func (s *Scanner) More(first bool, end byte) (bool, error) {
	if s.SkipSpace(); s.Pos == len(s.Data) {
		return false, s.Errorf("unexpected end of input")
	}
	switch c := s.Data[s.Pos]; {
	case c == end:
		s.Pos++
		return false, nil
	case first:
		return true, nil
	case c == ',':
		s.Pos++
		return true, nil
	}
	return false, s.Errorf("expected ',' or %q", end)
}

// Array parses a list, calling elem at the start of each element with the
// element's position.
func (s *Scanner) Array(elem func(i int) error) error {
	if err := s.Open('['); err != nil {
		return err
	}
	for i := 0; ; i++ {
		ok, err := s.More(i == 0, ']')
		if err != nil || !ok {
			return err
		}
		if err := elem(i); err != nil {
			return err
		}
	}
}

// Key parses an object key and the colon after it.
func (s *Scanner) Key() ([]byte, error) {
	key, err := s.Str()
	if err != nil {
		return nil, err
	}
	if s.SkipSpace(); s.Peek() != ':' {
		return nil, s.Errorf("expected ':' after %q", key)
	}
	s.Pos++
	return key, nil
}

// Str parses a string literal and returns its contents: a sub-slice of Data
// when the literal is plain ASCII without escapes, the common case, and
// encoding/json's reading of it otherwise.
func (s *Scanner) Str() ([]byte, error) {
	if s.SkipSpace(); s.Peek() != '"' {
		return nil, s.Errorf("expected a string")
	}
	start, i := s.Pos+1, s.Pos+1
	for i < len(s.Data) && !strStop[s.Data[i]] {
		i++
	}
	if i < len(s.Data) && s.Data[i] == '"' {
		s.Pos = i + 1
		return s.Data[start:i], nil
	}
	return s.escapedStr(i)
}

// escapedStr finishes Str from i, the first byte of the literal that is not
// plain ASCII.
func (s *Scanner) escapedStr(i int) ([]byte, error) {
	for ; i < len(s.Data); i++ {
		switch c := s.Data[i]; {
		case c == '"':
			lit := s.Data[s.Pos : i+1]
			s.Pos = i + 1
			var str string
			if err := json.Unmarshal(lit, &str); err != nil {
				return nil, fmt.Errorf("%s: %w", s.What, err)
			}
			return []byte(str), nil
		case c == '\\':
			i++ // whatever is escaped, it does not end the literal
		case c < ' ':
			s.Pos = i
			return nil, s.Errorf("control character in string")
		}
	}
	s.Pos = len(s.Data)
	return nil, s.Errorf("unterminated string")
}

// digits consumes a run of decimal digits and reports whether there was one.
func (s *Scanner) digits() bool {
	start, i := s.Pos, s.Pos
	for i < len(s.Data) && '0' <= s.Data[i] && s.Data[i] <= '9' {
		i++
	}
	s.Pos = i
	return i > start
}

// number scans a JSON number literal:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *Scanner) number() ([]byte, error) {
	s.SkipSpace()
	start := s.Pos
	if s.Peek() == '-' {
		s.Pos++
	}
	if s.Peek() == '0' {
		s.Pos++
	} else if !s.digits() {
		return nil, s.Errorf("expected a number")
	}
	if s.Peek() == '.' {
		if s.Pos++; !s.digits() {
			return nil, s.Errorf("malformed number")
		}
	}
	if c := s.Peek(); c == 'e' || c == 'E' {
		if s.Pos++; s.Peek() == '+' || s.Peek() == '-' {
			s.Pos++
		}
		if !s.digits() {
			return nil, s.Errorf("malformed number")
		}
	}
	return s.Data[start:s.Pos], nil
}

// integer reads lit, a number literal, when it is an integer of at most
// maxDigits digits, which an int64 holds without an overflow check.
func integer(lit []byte, maxDigits int) (int64, bool) {
	digits := lit
	if lit[0] == '-' {
		digits = lit[1:]
	}
	if len(digits) > maxDigits {
		return 0, false
	}
	var v int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if lit[0] == '-' {
		v = -v
	}
	return v, true
}

// Float parses a number that fits a float64.
func (s *Scanner) Float() (float64, error) {
	lit, err := s.number()
	if err != nil {
		return 0, err
	}
	// Up to 15 digits an integer is exactly a float64; -0 is not an integer.
	if v, ok := integer(lit, 15); ok && (v != 0 || lit[0] != '-') {
		return float64(v), nil
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, s.Errorf("number %s does not fit a float64", lit)
	}
	return v, nil
}

// Int parses a number that is an integer and fits an int.
func (s *Scanner) Int() (int, error) {
	lit, err := s.number()
	if err != nil {
		return 0, err
	}
	if v, ok := integer(lit, 18); ok && int64(int(v)) == v {
		return int(v), nil
	}
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return 0, s.Errorf("number %s is not an integer that fits an int", lit)
	}
	return int(v), nil
}

// Null consumes the literal null if the next value is one. A grammar that
// gives null a meaning asks before it parses the value.
func (s *Scanner) Null() bool {
	s.SkipSpace()
	return s.literal("null")
}

// literal consumes lit if the input continues with it.
func (s *Scanner) literal(lit string) bool {
	if string(s.Data[s.Pos:min(s.Pos+len(lit), len(s.Data))]) != lit {
		return false
	}
	s.Pos += len(lit)
	return true
}

// Skip consumes one value of any shape, checking that it is well-formed.
// depth is how many objects and arrays are open around it.
func (s *Scanner) Skip(depth int) error {
	var owed []byte // the closing bracket of every composite still open
	for {
		s.SkipSpace()
		c := s.Peek()
		opened := c == '{' || c == '['
		switch {
		case opened:
			if owed = append(owed, c+2); depth+len(owed) > MaxDepth { // '{'+2 == '}', '['+2 == ']'
				return s.Errorf("exceeded max depth")
			}
			s.Pos++
		case c == '"':
			if _, err := s.Str(); err != nil {
				return err
			}
		case c == 't' || c == 'f' || c == 'n':
			if !s.literal("true") && !s.literal("false") && !s.literal("null") {
				return s.Errorf("invalid literal")
			}
		default:
			if _, err := s.number(); err != nil {
				return err
			}
		}
		// Close every composite this value ends, then step to the next value.
		for first := opened; ; first = false {
			if len(owed) == 0 {
				return nil
			}
			end := owed[len(owed)-1]
			ok, err := s.More(first, end)
			if err != nil {
				return err
			}
			if ok {
				if end == '}' {
					if _, err := s.Key(); err != nil {
						return err
					}
				}
				break
			}
			owed = owed[:len(owed)-1]
		}
	}
}

// AppendFloat appends a finite f the way encoding/json writes a float64: the
// shortest digits that read back as f, in ES6's choice between plain and
// exponent form, the exponent without a leading zero. A NaN or an infinity
// has no JSON form; the caller refuses it first.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst
}

// htmlUnsafe marks the printable ASCII bytes encoding/json escapes by
// default, beside the quote and the backslash, so that a reply is safe to
// embed in HTML.
var htmlUnsafe = [256]bool{'<': true, '>': true, '&': true}

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string, escaped as encoding/json escapes
// it by default: the quote, the backslash and control bytes (\b, \f, \n, \r
// and \t short, the rest as \u00XX), '<', '>' and '&' as \u003c, \u003e and
// \u0026, U+2028 and U+2029 as \u2028 and \u2029, and each byte of an
// invalid UTF-8 sequence as \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if !strStop[c] && !htmlUnsafe[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Buffer holds one JSON text on its way in or out: a plan body or a peer's
// cache entry being read and parsed, or a reply being appended and written.
// Buffers come off a stack under a lock rather than a sync.Pool, whose items
// die with every other collection, so that a steady stream of requests
// allocates none and what a request allocates does not depend on when the
// collector last ran.
type Buffer struct {
	B []byte
}

const (
	// newBufferBytes is a new buffer's size: a typical plan body or reply.
	newBufferBytes = 4 << 10
	// maxKeptBufferBytes is the largest buffer PutBuffer keeps; one an
	// outsized body or reply grew past it is left to the collector.
	maxKeptBufferBytes = 64 << 10
	// maxSpareBuffers is how many buffers the stack keeps. Bodies are read
	// before admission, so a burst of connections can hold any number at
	// once; past this many the rest are left to the collector, and the
	// stack never pins more than 16 MiB.
	maxSpareBuffers = 256
)

var buffers struct {
	sync.Mutex
	free []*Buffer
}

// TakeBuffer returns an empty spare buffer, or a new one.
func TakeBuffer() *Buffer {
	var b *Buffer
	buffers.Lock()
	if k := len(buffers.free); k > 0 {
		b = buffers.free[k-1]
		buffers.free = buffers.free[:k-1]
	}
	buffers.Unlock()
	if b == nil {
		b = &Buffer{B: make([]byte, 0, newBufferBytes)}
	}
	b.B = b.B[:0]
	return b
}

// PutBuffer gives b back for the next TakeBuffer. Nothing may refer into b.B
// afterwards: the next taker overwrites it.
func PutBuffer(b *Buffer) {
	if cap(b.B) > maxKeptBufferBytes {
		return
	}
	buffers.Lock()
	if len(buffers.free) < maxSpareBuffers {
		buffers.free = append(buffers.free, b)
	}
	buffers.Unlock()
}

// ReadAll replaces b's contents with r read to its end, growing b as the
// text does.
func (b *Buffer) ReadAll(r io.Reader) error {
	b.B = b.B[:0]
	for {
		if len(b.B) == cap(b.B) {
			b.B = append(b.B, 0)[:len(b.B)]
		}
		n, err := r.Read(b.B[len(b.B):cap(b.B)])
		b.B = b.B[:len(b.B)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
