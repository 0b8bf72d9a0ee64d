package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/tdgen"
)

// TestQuickDrawPinned: tdgen draws through the recipe, so -size quick
// -platforms 2 -seed 0 writes the dataset TestQuickDrawGolden pins, member 0
// of the benchmark fixture's model. The six size flags the recipe's -size
// replaced are refused with the usage, and no doc names them.
func TestQuickDrawPinned(t *testing.T) {
	const (
		wantRows = 11747
		wantSHA  = "88460ad764a87729489107eebafa30392d5b66a54a749b4d044383e024ae77be"
	)
	path := filepath.Join(t.TempDir(), "quick.csv")
	var stderr bytes.Buffer
	if rc := run([]string{"-size", "quick", "-platforms", "2", "-seed", "0", "-o", path}, io.Discard, &stderr); rc != 0 {
		t.Fatalf("tdgen exited %d: %s", rc, stderr.Bytes())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := tdgen.ReadCSV(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); ds.Len() != wantRows || got != wantSHA {
		t.Errorf("quick draw: %d rows, sha256 %s; want %d rows, %s", ds.Len(), got, wantRows, wantSHA)
	}

	removed := []string{"-shapes", "-max-ops", "-templates", "-plans", "-profiles", "-beta"}
	for _, f := range removed {
		refused(t, f, "2")
	}
	named := regexp.MustCompile("(^|[\\s`])(-shapes|-max-ops|-templates|-plans|-profiles|-beta)\\b")
	for _, doc := range []string{"../../README.md", "../../EXPERIMENTS.md", "../../.claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range bytes.Split(text, []byte("\n")) {
			if m := named.FindSubmatch(line); m != nil {
				t.Errorf("%s:%d names the removed tdgen flag %s", doc, i+1, m[2])
			}
		}
	}
}

// TestRefusedCommandLines: what tdgen cannot do exits 2 with the usage before
// drawing anything — -append has no file to append to on stdout.
func TestRefusedCommandLines(t *testing.T) {
	refused(t, "-append")
	refused(t, "-append", "-o", "-")
	refused(t, "-size", "huge")
	refused(t, "-platforms", "9")
}

func refused(t *testing.T, args ...string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if rc := run(args, &stdout, &stderr); rc != 2 || !bytes.Contains(stderr.Bytes(), []byte("Usage of tdgen")) || stdout.Len() != 0 {
		t.Errorf("tdgen %q: exit %d, %d bytes on stdout, stderr %q; want exit 2 with the usage and no CSV", args, rc, stdout.Len(), stderr.Bytes())
	}
}
