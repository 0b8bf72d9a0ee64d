package jsonlex

import (
	"encoding/json"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// skipsWhole reports whether Skip reads data as one value with only
// whitespace after it — which is what json.Valid says of a text.
func skipsWhole(data []byte) bool {
	s := Scanner{Data: data, What: "test"}
	if err := s.Skip(0); err != nil {
		return false
	}
	s.SkipSpace()
	return s.Pos == len(data)
}

// FuzzSkip holds the lexer to encoding/json's notion of a well-formed value,
// nesting limit included. Its seeds run as a test.
func FuzzSkip(f *testing.F) {
	for _, seed := range []string{
		``, ` `, `null`, `nul`, `nullx`, `true`, `false`, `tru`, `0`, `-0`, `01`, `-`, `1.`, `.5`, `1e`, `1e+`, `1E-2`, `-1.5e+10`,
		`""`, `"a\"b"`, `"é\ud83d"`, `"\x"`, "\"a\nb\"", `"abc`, `"abc\`, "\"\xff\"",
		`[]`, `[ ]`, `[1]`, `[1,]`, `[,1]`, `[1 2]`, `[1,2`, `]`, `[[],[[]],{}]`,
		`{}`, `{ }`, `{"a":1}`, `{"a":1,}`, `{"a"}`, `{"a":}`, `{a:1}`, `{"a":1 "b":2}`, `{"a":{"b":[{"c":null}]},"d":"e"}`, `{"a":1}}`,
		` {"a" : [ 1 , "x" , true ] } `, `1 2`, `{} x`,
		strings.Repeat("[", MaxDepth) + strings.Repeat("]", MaxDepth),
		strings.Repeat("[", MaxDepth+1) + strings.Repeat("]", MaxDepth+1),
		strings.Repeat(`{"a":`, MaxDepth) + `1` + strings.Repeat("}", MaxDepth),
		strings.Repeat(`{"a":`, MaxDepth+1) + `1` + strings.Repeat("}", MaxDepth+1),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := skipsWhole(data), json.Valid(data); got != want {
			t.Fatalf("Skip takes %q whole: %v; json.Valid: %v", data, got, want)
		}
	})
}

// TestNumbersMatchStrconv: the integer shortcut of Int and Float reads what
// strconv reads, at the digit counts either side of where it hands over, and
// keeps -0 a negative zero.
func TestNumbersMatchStrconv(t *testing.T) {
	for _, lit := range []string{
		"0", "-0", "7", "-7", "123456789", "999999999999999", "-999999999999999", "1000000000000000",
		"9007199254740993", "123456789012345678", "999999999999999999", "1000000000000000000",
		"9223372036854775807", "-9223372036854775808", "9223372036854775808", "1.5", "1e3", "-0.0", "1E-2",
	} {
		s := Scanner{Data: []byte(lit), What: "test"}
		f, err := s.Float()
		want, wantErr := strconv.ParseFloat(lit, 64)
		if (err != nil) != (wantErr != nil) || err == nil && math.Float64bits(f) != math.Float64bits(want) {
			t.Errorf("Float(%s) = %v, %v; strconv: %v, %v", lit, f, err, want, wantErr)
		}
		s = Scanner{Data: []byte(lit), What: "test"}
		n, err := s.Int()
		wantN, wantErr := strconv.ParseInt(lit, 10, strconv.IntSize)
		if (err != nil) != (wantErr != nil) || err == nil && int64(n) != wantN {
			t.Errorf("Int(%s) = %v, %v; strconv: %v, %v", lit, n, err, wantN, wantErr)
		}
	}
}

// TestAppendMatchesEncodingJSON: the appenders write what encoding/json
// writes for a string and a finite float64.
func TestAppendMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", `<a href="x">&amp;</a>`, `back\slash`, "\x00\x01\b\f\n\r\t\x1f\x7f",
		"é€😀", "line\u2028sep\u2029para", "\xff", "ok\xc3", "\xed\xa0\x80", "tail\xe2\x82",
	} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, encoding/json %s", s, got, want)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999999999999e-7, 1e-7, 1e20, 1e21, 999999999999999900000,
		5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, 123456.789, 1.5e-10,
	} {
		want, _ := json.Marshal(f)
		if got := AppendFloat(nil, f); string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, encoding/json %s", f, got, want)
		}
	}
}

// TestBufferStack: a buffer comes back empty whatever it held, and one that
// grew past the kept size is not handed out again.
func TestBufferStack(t *testing.T) {
	b := TakeBuffer()
	if err := b.ReadAll(strings.NewReader(strings.Repeat("x", maxKeptBufferBytes+1))); err != nil {
		t.Fatal(err)
	}
	big := &b.B[0]
	PutBuffer(b)
	small := TakeBuffer()
	if err := small.ReadAll(strings.NewReader("abc")); err != nil || string(small.B) != "abc" {
		t.Fatalf("ReadAll = %q, %v", small.B, err)
	}
	PutBuffer(small)
	again := TakeBuffer()
	if again != small || len(again.B) != 0 {
		t.Errorf("TakeBuffer = %p holding %q, want the spare %p, empty", again, again.B, small)
	}
	if cap(again.B) > 0 && &again.B[:1][0] == big {
		t.Error("a buffer past the kept size came back")
	}
	PutBuffer(again)

	// A burst leaves at most maxSpareBuffers behind.
	var burst []*Buffer
	for i := 0; i < maxSpareBuffers+10; i++ {
		burst = append(burst, TakeBuffer())
	}
	for _, b := range burst {
		PutBuffer(b)
	}
	buffers.Lock()
	spare := len(buffers.free)
	buffers.Unlock()
	if spare != maxSpareBuffers {
		t.Errorf("%d spare buffers after a burst of %d, want %d", spare, len(burst), maxSpareBuffers)
	}
}

// TestBufferStackConcurrent: buffers taken at once are distinct, so what one
// holder writes no other sees.
func TestBufferStackConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g byte) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := TakeBuffer()
				want := strings.Repeat(string('a'+g), 100+i)
				if err := b.ReadAll(strings.NewReader(want)); err != nil {
					t.Error(err)
				}
				runtime.Gosched()
				if string(b.B) != want {
					t.Errorf("goroutine %d: buffer changed under its holder", g)
				}
				PutBuffer(b)
			}
		}(byte(g))
	}
	wg.Wait()
}
