package core_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/workload"
)

// scorePruneGolden holds, per corpus DAG and model family, a SHA-256 over
// everything one optimization decides — plan bytes, Predicted, PredictedDist,
// the deterministic counters, the JSON pruning audit and the final selection
// — across Risk ∈ {zero, {0.5, KeepOverlap}} × {BoundaryPruner,
// PropertyPruner{SwitchCountProperty}} × Workers ∈ {1, 8} (on dag47 and
// dag60 without KeepOverlap × PropertyPruner, see below). The digests were
// recorded at commit 1bf30d6, when λ=0 and λ>0 still ran separate scoring and
// pruning code; they pin that the one routine which replaced both reproduces
// the old observation order exactly (tree families produce many exactly-equal
// costs, so the audit's "cheapest discard, first observed wins" and the
// near-tie order both depend on it). Every run has the vector store's poison
// hook armed (newCtx), so a vector read after its row was recycled is a
// digest mismatch too. Re-record only for a change that means to alter a
// decision, and say which in the commit.
var scorePruneGolden = map[string]string{
	"dag20/tree":     "f941b934d752aacbedd76fd2c1f48aa5fa1910260eff31645e9d5445937a23bc",
	"dag20/forest":   "853a35b0139c0f9f9fa551120bfefc6f12d5fdfb2d94401468f3bd6933995bc5",
	"dag20/gbm":      "d0ddd0c1f73b4f4ba1a9c5869acff6a668f34f657692afa3a45c44e8ef41f82c",
	"dag20/linear":   "559e7f4e33197a7af29ee576204a6ef13ff7305bf731f1473118a20d832781a8",
	"dag20/mlp":      "9825804bfdb192d6c0dbb29c0372ddb151bcdcb59cd5a4135a9fea0f450a96c2",
	"dag20/ensemble": "99f355a91c25d02331bce3bb29e2ad0585bea89c47b45b9cb28cdae43efc52a8",
	"dag33/tree":     "58e29a077c9784fc9d9025d3fa5f4377b430f7e19d39abecc01a6c8e66110e6d",
	"dag33/forest":   "1657d657da9465dc813edc42ff9567332869c1bbb8375171f96337014e80bbd5",
	"dag33/gbm":      "67f579aa62c78d66e9bf80577055090efb08d2bfa029a63809e186b16de4fea8",
	"dag33/linear":   "9d5733e76cea77ad2fc6b2da2822e171b255b52135c8705a37ac38a0c6e4e1a3",
	"dag33/mlp":      "c3faa8d1902576acc0ffe05d09da41cc8a770b9db6512e9b965f54b29e6cc175",
	"dag33/ensemble": "4d72919595f7b693dff4ec635550d974ebbf6d1398c170fc684a526e1b33eeef",
	"dag47/tree":     "1770a064a7194a2f75088c297a983e46eac49450731f7bb76ac52e81a2fdf4e2",
	"dag47/forest":   "fd7f4b430cd1069d37d5c2b212e28d2439db77f771d96b609bce1faf14a7a000",
	"dag47/gbm":      "081e1ad8c653dc59be2de8f7a8fec5be141c5daf91031453a305114f48eab9d4",
	"dag47/linear":   "b8a8ff60243b82624154777595cf29970f1749bfe674f34709587bee8731ce33",
	"dag47/mlp":      "b3b3c60e8fb836b0750c7c9305b55bd75560967e452e7f2fc02ed165ccb01f8c",
	"dag47/ensemble": "a1745c798e9bb411bd341b70e82bbcaf1e7cd9add31f740ee1c9eee747c7b626",
	"dag60/tree":     "73cc1dc0e67b6bfbbb3191a5d58fffe48718e591b04ab97ebd892f4e560b3a4b",
	"dag60/forest":   "ae2c9f07062b72afd00f1072d602667db91e9d1cbec15a6b6e32f767ccf29f3d",
	"dag60/gbm":      "8320bf5a25637b5da496b3096ce2f68f2adc343c96f297784f9ecd0f0b05a86a",
	"dag60/linear":   "94699e3bb8b6276d6f53ad70a139b0094a495eb2b909ac54fec8ed117266c071",
	"dag60/mlp":      "3f281d78d25497b293312d99cc060b717e7a2c69f8f37494ecfb10e920eb7dfc",
	"dag60/ensemble": "66b971244c754a9eb735d3f96305adf188c81a20eccd76e3c40b4738eeee145a",
}

// goldenRun hashes one traced optimization into h.
func goldenRun(t *testing.T, h io.Writer, l *plan.Logical, m core.CostModel, risk core.Risk, property bool, workers int) {
	t.Helper()
	ctx := newCtx(t, l, 3)
	ctx.Workers = workers
	ctx.Risk = risk
	ctx.Trace = obs.NewTrace("golden")
	var pr core.Pruner = core.BoundaryPruner{Model: m}
	if property {
		pr = core.PropertyPruner{Model: m, Properties: []core.Property{core.SwitchCountProperty{}}}
	}
	res, err := ctx.OptimizeOpts(context.Background(), m, pr, core.OrderPriority)
	if err != nil {
		t.Fatalf("Optimize (risk=%+v property=%v workers=%d): %v", risk, property, workers, err)
	}
	for _, p := range res.Execution.Assign {
		h.Write([]byte{byte(p)})
	}
	d := res.PredictedDist
	for _, f := range []float64{res.Predicted, d.Mean, d.Spread, d.Lo, d.Hi} {
		binary.Write(h, binary.LittleEndian, math.Float64bits(f))
	}
	st := res.Stats.Counters()
	fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %v %q %d %d\n", st.VectorsCreated, st.Merges, st.ModelBatches,
		st.ModelRows, st.MemoHits, st.Pruned, st.IntervalKept, st.PeakEnumSize, st.Degraded, st.DegradeReason,
		st.Par.Rounds, st.Par.Tasks)
	for _, part := range []any{res.Trace.Prunes, res.Trace.Final} {
		raw, err := json.Marshal(part)
		if err != nil {
			t.Fatalf("marshal audit: %v", err)
		}
		h.Write(raw)
		h.Write([]byte{'\n'})
	}
}

// TestScorePruneGolden replays the TestRiskLambdaZeroParity corpus through
// every scoring and pruning configuration and compares against the digests
// recorded before the score-and-prune paths were unified.
func TestScorePruneGolden(t *testing.T) {
	cases := []struct {
		name string
		nOps int
		seed int64
	}{
		{"dag20", 20, 101},
		{"dag33", 33, 211},
		{"dag47", 47, 307},
		{"dag60", 60, 401},
	}
	if testing.Short() {
		cases = cases[:2]
	}
	risks := []core.Risk{{}, {Lambda: 0.5, KeepOverlap: true}}
	for _, cs := range cases {
		cs := cs
		t.Run(cs.name, func(t *testing.T) {
			l := workload.RandomDAG(cs.nOps, 1e8, cs.seed)
			probe := newCtx(t, l, 3)
			families := fitFamilies(t, probe.Schema.Len(), cs.seed+7)
			for _, fam := range []string{"tree", "forest", "gbm", "linear", "mlp", "ensemble"} {
				fam := fam
				m := families[fam]
				t.Run(fam, func(t *testing.T) {
					t.Parallel()
					all := sha256.New()
					for _, risk := range risks {
						for _, property := range []bool{false, true} {
							// Near-ties in switch-count groups compound: on the
							// two large DAGs that corner peaks at 300k-vector
							// enumerations (6 GB resident, more than a 16 GB
							// host has under -race). It was compared once, when
							// the paths were unified, and stays on the small two.
							if risk.KeepOverlap && property && cs.nOps > 33 {
								continue
							}
							var serial []byte
							for _, workers := range []int{1, 2, 8} {
								// Workers=2 joined after the digests were
								// recorded: it must match Workers=1 and stays
								// out of them, on the small two DAGs only and
								// off the near-tie corner, a quarter of this
								// test's time that Workers=8 already covers.
								if workers == 2 && (cs.nOps > 33 || (risk.KeepOverlap && property)) {
									continue
								}
								one := sha256.New()
								goldenRun(t, one, l, m, risk, property, workers)
								sum := one.Sum(nil)
								// Per-configuration digests localize a mismatch
								// when diffed (-v) against a known-good build.
								t.Logf("risk=%+v property=%v workers=%d: %x", risk, property, workers, sum[:8])
								if workers == 2 {
									if !bytes.Equal(sum, serial) {
										t.Errorf("risk=%+v property=%v: workers=2 digest %x, workers=1 %x", risk, property, sum[:8], serial[:8])
									}
									continue
								}
								if workers == 1 {
									serial = sum
								}
								all.Write(sum)
							}
						}
					}
					key := cs.name + "/" + fam
					if got := hex.EncodeToString(all.Sum(nil)); got != scorePruneGolden[key] {
						t.Errorf("%s: digest %s, recorded %s", key, got, scorePruneGolden[key])
					}
				})
			}
		})
	}
}
