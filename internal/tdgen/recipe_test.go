package tdgen_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/simulator"
	"repro/internal/tdgen"
)

// TestQuickDrawGolden pins the quick row: the 2-platform member-0 draw is,
// byte for byte, the one Harness.GenerateTrainingData made before the recipe
// moved here (recorded at d064a10). The benchmark fixture is trained on it, so
// a mismatch means the recipe moved a number, not that the digest is stale.
func TestQuickDrawGolden(t *testing.T) {
	const (
		wantRows = 11691
		wantSHA  = "d6dacc8c38bbd3fa2cddebf0bbfb4c2b8819f44fd35fe4213585de1213df1176"
	)
	plats := platform.Subset(2)
	avail := platform.DefaultAvailability().Restrict(plats)
	ds, err := tdgen.Recipe{Size: tdgen.SizeQuick, Platforms: plats, Avail: avail, Cluster: simulator.Default()}.Dataset(0)
	if err != nil {
		t.Fatalf("Dataset: %v", err)
	}
	var direct bytes.Buffer
	if err := tdgen.WriteCSV(&direct, ds); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	sum := sha256.Sum256(direct.Bytes())
	if got := hex.EncodeToString(sum[:]); ds.Len() != wantRows || got != wantSHA {
		t.Errorf("quick draw: %d rows, sha256 %s; want %d rows, %s", ds.Len(), got, wantRows, wantSHA)
	}

	h := experiments.NewHarness()
	h.Quick = true
	hds, err := h.GenerateTrainingData(plats, avail, 0)
	if err != nil {
		t.Fatalf("GenerateTrainingData: %v", err)
	}
	var viaHarness bytes.Buffer
	if err := tdgen.WriteCSV(&viaHarness, hds); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if !bytes.Equal(direct.Bytes(), viaHarness.Bytes()) {
		t.Error("Harness.GenerateTrainingData and Recipe.Dataset disagree on the quick draw")
	}
}
