// Package jsonlex is the lexical layer of the repository's hand-written JSON
// decoders: the plan grammar (internal/plan) and the /peercache entry codec
// (internal/peercache). It knows tokens — brackets, separators, strings,
// numbers, the three literals — and nothing of any grammar: which keys an
// object takes, whether an unknown one is an error or skipped, and what null
// means are the caller's rules.
//
// What it accepts as a token is what encoding/json accepts; the differential
// fuzz tests of both callers hold it to that.
package jsonlex

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// maxDepth is how many objects and arrays may be open at once, as in
// encoding/json. Only Skip can reach it: every other nesting is fixed by the
// caller's grammar.
const maxDepth = 10000

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

// SkipSpace moves the cursor past JSON whitespace.
func (s *Scanner) SkipSpace() {
	i := s.Pos
	for ; i < len(s.Data); i++ {
		if c := s.Data[i]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			break
		}
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
	plain := true
	for i := s.Pos + 1; i < len(s.Data); i++ {
		switch c := s.Data[i]; {
		case c == '"':
			lit := s.Data[s.Pos : i+1]
			s.Pos = i + 1
			if plain {
				return lit[1 : len(lit)-1], nil
			}
			var str string
			if err := json.Unmarshal(lit, &str); err != nil {
				return nil, fmt.Errorf("%s: %w", s.What, err)
			}
			return []byte(str), nil
		case c == '\\':
			plain = false
			i++ // whatever is escaped, it does not end the literal
		case c < ' ':
			s.Pos = i
			return nil, s.Errorf("control character in string")
		case c >= 0x80:
			plain = false
		}
	}
	s.Pos = len(s.Data)
	return nil, s.Errorf("unterminated string")
}

// digits consumes a run of decimal digits and reports whether there was one.
func (s *Scanner) digits() bool {
	start := s.Pos
	for c := s.Peek(); '0' <= c && c <= '9'; c = s.Peek() {
		s.Pos++
	}
	return s.Pos > start
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

// Float parses a number that fits a float64.
func (s *Scanner) Float() (float64, error) {
	lit, err := s.number()
	if err != nil {
		return 0, err
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
			if owed = append(owed, c+2); depth+len(owed) > maxDepth { // '{'+2 == '}', '['+2 == ']'
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
