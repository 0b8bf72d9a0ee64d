package service

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestReadBodyWrapsMaxBytesError: the body read keeps net/http's
// *MaxBytesError in the chain, which is what statusOf turns into a 413, and
// an oversized body never reaches the decoder.
func TestReadBodyWrapsMaxBytesError(t *testing.T) {
	for _, size := range []int{5, 10, 5 << 10, 100 << 10} {
		body := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(strings.NewReader(strings.Repeat("x", size))), 4)
		err := readBody(body, func([]byte) error {
			t.Fatalf("%d-byte body: an oversized body was decoded", size)
			return nil
		})
		var tooLarge *http.MaxBytesError
		if !errors.As(err, &tooLarge) || tooLarge.Limit != 4 {
			t.Errorf("%d-byte body: err = %v, want a wrapped *http.MaxBytesError", size, err)
		}
		if got := statusOf(err, http.StatusBadRequest); got != http.StatusRequestEntityTooLarge {
			t.Errorf("%d-byte body: status %d, want 413", size, got)
		}
	}
	// Bodies larger than a new buffer grow it; each decode sees its own body
	// whole, whatever the buffer held before.
	for _, want := range []string{strings.Repeat("a", 10<<10), "0123456789", "", strings.Repeat("b", 70<<10), "xyz"} {
		var got string
		err := readBody(strings.NewReader(want), func(b []byte) error {
			got = string(b)
			return nil
		})
		if err != nil || got != want {
			t.Errorf("readBody of %d bytes = %d bytes, %v", len(want), len(got), err)
		}
	}
}
