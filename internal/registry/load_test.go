package registry_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mlmodel"
	"repro/internal/registry"
)

// servedShape returns the file of an artifact shaped like the served model:
// an Ensemble of two LogTarget(GBM) members of 150 trees each, up to 6 levels
// deep, splitting on the columns of a 399-wide plan vector. The trees are
// drawn at random and written as JSON directly, which takes milliseconds
// where fitting as many would take seconds.
func servedShape(tb testing.TB) []byte {
	tb.Helper()
	const width = 399
	rng := rand.New(rand.NewSource(7))
	num := func(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }
	gbm := func(b []byte) []byte {
		b = append(b, `{"type":"logtarget","payload":{"type":"gbm","payload":{"base":`...)
		b = num(b, rng.Float64()*3)
		b = append(b, `,"lr":0.1,"trees":[`...)
		for t := 0; t < 150; t++ {
			var feature, left, right []int
			var threshold, value []float64
			var grow func(depth int) int
			grow = func(depth int) int {
				i := len(feature)
				feature, left, right = append(feature, -1), append(left, 0), append(right, 0)
				threshold, value = append(threshold, 0), append(value, rng.NormFloat64()/10)
				if depth < 6 && (depth == 0 || rng.Float64() < 0.8) {
					feature[i], threshold[i] = rng.Intn(width), rng.Float64()*1e6
					l := grow(depth + 1)
					r := grow(depth + 1)
					left[i], right[i] = l, r
				}
				return i
			}
			grow(0)
			if t > 0 {
				b = append(b, ',')
			}
			list := func(b []byte, key string, n int, at func(b []byte, i int) []byte) []byte {
				b = append(b, `"`+key+`":[`...)
				for i := 0; i < n; i++ {
					if i > 0 {
						b = append(b, ',')
					}
					b = at(b, i)
				}
				return append(b, ']')
			}
			n := len(feature)
			b = append(b, '{')
			b = list(b, "feature", n, func(b []byte, i int) []byte { return strconv.AppendInt(b, int64(feature[i]), 10) })
			b = append(b, ',')
			b = list(b, "threshold", n, func(b []byte, i int) []byte { return num(b, threshold[i]) })
			b = append(b, ',')
			b = list(b, "left", n, func(b []byte, i int) []byte { return strconv.AppendInt(b, int64(left[i]), 10) })
			b = append(b, ',')
			b = list(b, "right", n, func(b []byte, i int) []byte { return strconv.AppendInt(b, int64(right[i]), 10) })
			b = append(b, ',')
			b = list(b, "value", n, func(b []byte, i int) []byte { return num(b, value[i]) })
			b = append(b, ',')
			b = list(b, "spread", n, func(b []byte, i int) []byte { return append(b, '0') })
			b = append(b, '}')
		}
		return append(b, `]}}}`...)
	}
	raw := gbm([]byte(`{"type":"ensemble","payload":[`))
	raw = gbm(append(raw, ','))
	raw = append(raw, `]}`...)
	m, err := mlmodel.LoadModel(bytes.NewReader(raw))
	if err != nil {
		tb.Fatalf("LoadModel: %v", err)
	}
	art, err := registry.New(m, width, []string{"java", "spark", "flink", "postgres", "giraph"}, 1000, mlmodel.Metrics{})
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	var buf bytes.Buffer
	if err := art.Write(&buf); err != nil {
		tb.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// BenchmarkLoadArtifact reads an artifact of the served shape: what a
// replica does at boot and on every promote or store follow.
func BenchmarkLoadArtifact(b *testing.B) {
	file := servedShape(b)
	b.SetBytes(int64(len(file)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := registry.Read(bytes.NewReader(file)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLoadAllocCeiling: a Read of the served shape allocates at most three
// times the file's size: the file once, the flat forests at their final
// size, and little besides. It makes at most allocCeiling allocations (127
// measured): a fixed number per forest, none per tree.
func TestLoadAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	const allocCeiling = 160
	file := servedShape(t)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := registry.Read(bytes.NewReader(file)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRead := float64(after.TotalAlloc-before.TotalAlloc) / runs
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("%d-byte file: %.0f bytes allocated per Read (%.2f×) in %.1f allocations", len(file), perRead, perRead/float64(len(file)), allocs)
	if perRead > 3*float64(len(file)) {
		t.Errorf("Read allocates %.0f bytes for a %d-byte file, more than 3×", perRead, len(file))
	}
	if allocs > allocCeiling {
		t.Errorf("Read makes %.1f allocations, ceiling %d", allocs, allocCeiling)
	}
}

// TestAdoptReadsOnlyTheHash: adopting an artifact whose version is already
// stored reads that file's recorded hash, not its model, so it makes the
// same few allocations whatever the model's size.
func TestAdoptReadsOnlyTheHash(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	const ceiling = 40
	for name, file := range map[string][]byte{"linear": writeArtifact(t, splitArtifact(t, 1)), "served shape": servedShape(t)} {
		st, err := registry.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(st.Dir(), "v1.json"), file, 0o644); err != nil {
			t.Fatal(err)
		}
		a, err := st.Load("v1")
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(10, func() {
			if v, err := st.Adopt(a); err != nil || v != "v1" {
				t.Fatalf("Adopt = %q, %v; want v1", v, err)
			}
		})
		t.Logf("%s: %v allocations per Adopt", name, n)
		if n > ceiling {
			t.Errorf("%s: Adopt of a stored version makes %v allocations, ceiling %d", name, n, ceiling)
		}
	}
}

func writeArtifact(t *testing.T, a *registry.Artifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// TestReadIntegrity holds Read's hash check to what it verified when the
// whole file went through encoding/json: a reformatted file still verifies,
// and one changed digit does not.
func TestReadIntegrity(t *testing.T) {
	ds := synth(200, 6, 4, func(x []float64) float64 { return x[0] + 3*x[5] }, 0.1)
	gbm, err := mlmodel.FitGBM(ds, mlmodel.GBMConfig{Trees: 20, Seed: 1})
	if err != nil {
		t.Fatalf("FitGBM: %v", err)
	}
	art, err := registry.New(gbm, 6, nil, ds.Len(), mlmodel.Metrics{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	file := writeArtifact(t, art)

	var indented bytes.Buffer
	if err := json.Indent(&indented, file, "", "  "); err != nil {
		t.Fatal(err)
	}
	back, err := registry.Read(&indented)
	if err != nil {
		t.Fatalf("Read of the indented file: %v", err)
	}
	if back.Hash != art.Hash {
		t.Errorf("indented file read back hash %.8s, want %.8s", back.Hash, art.Hash)
	}
	for i := 0; i < 10; i++ {
		if got, want := back.Model.Predict(ds.X[i]), gbm.Predict(ds.X[i]); got != want {
			t.Fatalf("indented file predicts %v at row %d, want %v", got, i, want)
		}
	}

	// One digit of one split threshold: the first threshold list's first
	// entry is the root's, a split in every fitted tree.
	at := bytes.Index(file, []byte(`"threshold":[`)) + len(`"threshold":[`)
	tampered := bytes.Clone(file)
	for ; tampered[at] < '0' || tampered[at] > '9'; at++ {
	}
	tampered[at] = '0' + (tampered[at]-'0'+1)%10
	if _, err := registry.Read(bytes.NewReader(tampered)); err == nil || !strings.Contains(err.Error(), "artifact hash mismatch") {
		t.Errorf("Read of a changed threshold = %v, want an artifact hash mismatch", err)
	}
}

// TestReadFileNarrowings: the file's top-level keys are read as the model's
// are, where encoding/json folded case, let a repeated key's last value win
// and ignored what followed the object.
func TestReadFileNarrowings(t *testing.T) {
	file := strings.TrimSpace(string(writeArtifact(t, splitArtifact(t, 1))))
	if _, err := registry.Read(strings.NewReader(file + "\n\t ")); err != nil {
		t.Fatalf("Read of the file with trailing whitespace: %v", err)
	}
	model := file[strings.Index(file, `"model":`):strings.LastIndex(file, "}")]
	for name, raw := range map[string]string{
		"case-folded key": strings.Replace(file, `"model":`, `"Model":`, 1),
		"repeated key":    file[:len(file)-1] + "," + model + "}",
		"trailing data":   file + "x",
	} {
		if _, err := registry.Read(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: Read accepted %.80s…", name, raw)
		}
	}
}
