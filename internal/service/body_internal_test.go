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
// *MaxBytesError in the chain, which is what statusOf turns into a 413,
// whether or not the request declared its length.
func TestReadBodyWrapsMaxBytesError(t *testing.T) {
	for _, declared := range []int64{-1, 0, 10, 1 << 40} {
		body := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(strings.NewReader("0123456789")), 4)
		_, err := readBody(body, declared)
		var tooLarge *http.MaxBytesError
		if !errors.As(err, &tooLarge) || tooLarge.Limit != 4 {
			t.Errorf("Content-Length %d: err = %v, want a wrapped *http.MaxBytesError", declared, err)
		}
		if got := statusOf(err, http.StatusBadRequest); got != http.StatusRequestEntityTooLarge {
			t.Errorf("Content-Length %d: status %d, want 413", declared, got)
		}
	}
	got, err := readBody(strings.NewReader("0123456789"), 3) // an understated length only costs a regrowth
	if err != nil || string(got) != "0123456789" {
		t.Errorf("readBody = %q, %v", got, err)
	}
}
