package jsonlex

import (
	"encoding/json"
	"strings"
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
		strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth),
		strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1),
		strings.Repeat(`{"a":`, maxDepth) + `1` + strings.Repeat("}", maxDepth),
		strings.Repeat(`{"a":`, maxDepth+1) + `1` + strings.Repeat("}", maxDepth+1),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := skipsWhole(data), json.Valid(data); got != want {
			t.Fatalf("Skip takes %q whole: %v; json.Valid: %v", data, got, want)
		}
	})
}
