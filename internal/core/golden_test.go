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
// — across Risk ∈ {zero, {0.5, KeepOverlap}} × Workers ∈ {1, 8} under
// BoundaryPruner. The digests were first recorded at commit 1bf30d6, when
// λ=0 and λ>0 still ran separate scoring and pruning code; they pin that the
// one routine which replaced both reproduces
// the old observation order exactly (tree families produce many exactly-equal
// costs, so the audit's "cheapest discard, first observed wins" and the
// near-tie order both depend on it). They were re-recorded once when pruning
// stopped scoring vectors alone in their group: that moved ModelRows,
// ModelBatches, MemoHits and the audit's bestCost/worstCost, and no decision
// (decisionGolden, recorded before, still passes). Both tables were
// re-recorded at commit eb48ae0 when the PropertyPruner configurations left
// them, with no code change: what remains hashes the BoundaryPruner runs
// alone. Every run has the vector store's poison hook armed (newCtx), so a
// vector read after its row was recycled is a digest mismatch too. Re-record only for a change that means
// to alter a decision or the model work, and say which in the commit.
var scorePruneGolden = map[string]string{
	"dag20/tree":     "b150e917483d5b19f3874bf48c22dd68f271b69fc5b7d8e65189aca965bf9ed2",
	"dag20/forest":   "ae3aa6c0164f3bec701d20a36b812c9fa1d35aef5efd2846af16b780e5dc0565",
	"dag20/gbm":      "8af845665f727e68abf3e7a9b17122d7dd1669fd2759cd59e74c0e00d1918249",
	"dag20/linear":   "104534e4855e191fbe1ffe5bf8d04ca5fc4af54066d32c433d42393fad5b2ef5",
	"dag20/mlp":      "e6afdd3cce016be73c9ff4f4a0dbeb498e46d89a3881473761f5070f94f01ad5",
	"dag20/ensemble": "f05442f62e9133ed4ed662173e43bcbc27e36cfd343e31993d8d4aee96cb93fe",
	"dag33/tree":     "69601b5e722ebd23d2b39647f4048cc643623f13d6c24434897832bdaa0ad13b",
	"dag33/forest":   "24e544c0b179c9417f7c9955f255d644c74c764e0a02f0bf66ff0148deec5b0e",
	"dag33/gbm":      "8a1031b0adefc0c9515ffc281580f800a5954209b4c67bda95bc97bd22f98cf6",
	"dag33/linear":   "c07ad228e519e811d22643d26f35789e89479da9e723d14961f7e072713a3d0a",
	"dag33/mlp":      "1a4f359c56a2d17f3462360b5026d1e1c0b6ade73ba83dd4d1cf968679a15242",
	"dag33/ensemble": "4504dbbed15aef78312464d48d8cb27bf7031aea313dd0ecc7394d4bc8d7d93d",
	"dag47/tree":     "428860a9e7e1393180ab071545b7f4c748acaa7120b8b5d148cfc97cf0bfe697",
	"dag47/forest":   "15ebd8b6e82a38e13e15343d3fbb9d6d20216185dae63f8557be654b1d3ea990",
	"dag47/gbm":      "e6fd2d275e0f682bd8ec9f1ace2bcbe1e0263dc0ab98da2bd0b34834fae088bf",
	"dag47/linear":   "1bc649f41bd8cdbb0f131262f04240abf00e41d8993755ae4b9647774b5522ed",
	"dag47/mlp":      "aa883af3fe90c7d5286ccbba239880d06b11accc4305cc7073b7a94fee88a878",
	"dag47/ensemble": "c29a484d799c08ac509abafc143b662176a4230517ea2b2a9aaa5f6b7d7a908c",
	"dag60/tree":     "c4868d266f7f2037fe01cb368bda4bc7005bc296349ad43b15ea52fe54a0e900",
	"dag60/forest":   "203226391b888ddb9447c946ecbf236f94a4f469a94f18e012a9da67f9f684da",
	"dag60/gbm":      "d47a84edb1059579758203d377b71da8ab23bb73708e28b4fa806c2515ff833c",
	"dag60/linear":   "6f3f8b9fa05afbe2bbcf3270f9ce4551aa67ab94093ea1c6539ac26c0cd67107",
	"dag60/mlp":      "dddc86fccb1e863beb484f8beb41caa3b81a08138ea2220f4d7fd2d3adc171cc",
	"dag60/ensemble": "b66889382d7fd0f1dc0bfc41b96ab62929811c3faa44fc03d5d384c4e4493b6f",
}

// decisionGolden holds, per corpus DAG and model family, a SHA-256 over what
// the optimizations decide and nothing about how much model work deciding
// took: plan bytes, Predicted, PredictedDist, VectorsCreated, Merges, Pruned,
// IntervalKept, PeakEnumSize, Degraded, and each audit step's VectorsIn,
// VectorsOut and BestPruned. It covers scorePruneGolden's configurations plus
// two degraded budgets (ForceDegraded, and a MaxVectors cap that trips
// mid-run) under both Risks at Workers ∈ {1, 8}. First recorded at commit
// 43e5275, while pruning still scored every vector it saw, and re-recorded
// with scorePruneGolden at eb48ae0 without the PropertyPruner runs: a change
// that only moves model work (which vectors are scored, when, in how many
// batches) must pass it unedited.
var decisionGolden = map[string]string{
	"dag20/tree":     "c729950d32d998e308256a114f9b9dc43ddc6d4ac4b616fe4378b9efde10da1c",
	"dag20/forest":   "063ad9bd9615319e9d45f3dfdd42a38ae094bef9a82b0b03c626f1cc4069cbf5",
	"dag20/gbm":      "a2561e09885b80f5cdfc8cee8e54ed5ff1b2345f55730b8759c4408aa7ee2c46",
	"dag20/linear":   "da45e0cf127a5d7a7b7ffb5f2fe3111fa715e76a4456b4e5ad9a9ecf2196c5b5",
	"dag20/mlp":      "558112f8f6f35a2a799dcebee3533716d511d508175e6a09d6d50b27cc788402",
	"dag20/ensemble": "99d2362f6bb347bf49294b3edd408f88960913752ed5914bbc91d2e5f04b99b7",
	"dag33/tree":     "fe2b7c66d0fdf071291675b11186552d63189b0b678e9805a1012d62774d86b5",
	"dag33/forest":   "732a9b5ffcdd53c8e9e950aefca4a463b7ccd507fef7d1462d24d13b5003d418",
	"dag33/gbm":      "046097b9e2608a9dbda89b6cdef12abd6515dd2cbde53b9bff1e616837e09fab",
	"dag33/linear":   "7677b2533fe640885f2ebc1cf52fd3bda2b3940d57b0517bf7b9f59218dfb309",
	"dag33/mlp":      "0a1f1a3f779b1ae455421c1f15607857add7fbcae28237319183a3b921e6df3b",
	"dag33/ensemble": "44d2ed776162cc69d6fedea9cf3dc0520163b20529da2ff1a073dac5595c4eef",
	"dag47/tree":     "a7e8955bd411ebe6bf017f04fb84f4a407c544eaf73206ffd214e9e133be4e77",
	"dag47/forest":   "076bb8f647ee886ef2ec8c8df53e6627f7e24184493a4321a77765d722cf8ca3",
	"dag47/gbm":      "e231fe31a79efbb1001793d3029d8ff82be5bd3e83fb9a91005a30333ad914ba",
	"dag47/linear":   "80255bac10d42de6d82a9ed8ce8ebdd43faf46f766f7286232b45d73d88b1a20",
	"dag47/mlp":      "05685fb79fd64aa697df727f6f949cb31965d9755e64786f2f96d4973967d3af",
	"dag47/ensemble": "2bc099c19aa6cb6422be415c60d2a78fb8cd0fe9df839c390fc765284439f795",
	"dag60/tree":     "c81b6f20a0e21a47dcb1a271f278feb44d918c41d45bed0538ea7e614d921df1",
	"dag60/forest":   "63be27337fafcf2c6801908db785de193fd9927db677097ecf95d3e0b9902c25",
	"dag60/gbm":      "7dfa3a1e73f0c73bcd1eb53ef981e6d29eb55bd829a8e8351f10ed9d3c179ab7",
	"dag60/linear":   "90e8e0df48ec8deea245794e139f9dfdd81e77e80310a5708d067e21fee496e9",
	"dag60/mlp":      "baf982aa67f4f34ea3b7a379ae5683847c812de31d1049ab9fed6c7619a12ce8",
	"dag60/ensemble": "889fc8691126dde18ee4205c88328143ce8154eff9157d27ae3b3066c0ff2d85",
}

// goldenBudgets are the degraded configurations of decisionGolden. The
// MaxVectors cap trips after the first few concatenations of each corpus DAG
// (checked in goldenRun).
var goldenBudgets = []core.Budget{{ForceDegraded: true}, {MaxVectors: 400}}

// goldenRun hashes one traced optimization into h (scorePruneGolden) and its
// decisions into d (decisionGolden).
func goldenRun(t *testing.T, h, d io.Writer, l *plan.Logical, m core.CostModel, risk core.Risk, workers int, budget core.Budget) {
	t.Helper()
	ctx := newCtx(t, l, 3)
	ctx.Workers = workers
	ctx.Risk = risk
	ctx.Budget = budget
	ctx.Trace = obs.NewTrace("golden")
	res, err := ctx.OptimizeOpts(context.Background(), m, core.BoundaryPruner{}, core.OrderPriority)
	if err != nil {
		t.Fatalf("Optimize (risk=%+v workers=%d budget=%+v): %v", risk, workers, budget, err)
	}
	if budget != (core.Budget{}) && (!res.Degraded || res.Trace.Prunes[0].Degraded != budget.ForceDegraded) {
		t.Fatalf("budget %+v: degraded %v, first step degraded %v", budget, res.Degraded, res.Trace.Prunes[0].Degraded)
	}
	both := io.MultiWriter(h, d)
	for _, p := range res.Execution.Assign {
		both.Write([]byte{byte(p)})
	}
	pd := res.PredictedDist
	for _, f := range []float64{res.Predicted, pd.Mean, pd.Spread, pd.Lo, pd.Hi} {
		binary.Write(both, binary.LittleEndian, math.Float64bits(f))
	}
	st := res.Stats.Counters()
	fmt.Fprintf(d, "%d %d %d %d %d %v\n", st.VectorsCreated, st.Merges, st.Pruned, st.IntervalKept, st.PeakEnumSize, st.Degraded)
	for _, rec := range res.Trace.Prunes {
		bp, err := json.Marshal(rec.BestPruned)
		if err != nil {
			t.Fatalf("marshal best pruned: %v", err)
		}
		fmt.Fprintf(d, "%d %d %s\n", rec.VectorsIn, rec.VectorsOut, bp)
	}
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
					all, decided := sha256.New(), sha256.New()
					for _, risk := range risks {
						var serial []byte
						for _, workers := range []int{1, 2, 8} {
							// Workers=2 joined after the digests were first
							// recorded: it must match Workers=1 and stays out of
							// them, on the small two DAGs only (Workers=8
							// already covers the large two).
							if workers == 2 && cs.nOps > 33 {
								continue
							}
							one, dec := sha256.New(), io.Discard
							if workers != 2 {
								dec = decided
							}
							goldenRun(t, one, dec, l, m, risk, workers, core.Budget{})
							sum := one.Sum(nil)
							// Per-configuration digests localize a mismatch when
							// diffed (-v) against a known-good build.
							t.Logf("risk=%+v workers=%d: %x", risk, workers, sum[:8])
							if workers == 2 {
								if !bytes.Equal(sum, serial) {
									t.Errorf("risk=%+v: workers=2 digest %x, workers=1 %x", risk, sum[:8], serial[:8])
								}
								continue
							}
							if workers == 1 {
								serial = sum
							}
							all.Write(sum)
						}
						for _, b := range goldenBudgets {
							for _, workers := range []int{1, 8} {
								goldenRun(t, io.Discard, decided, l, m, risk, workers, b)
							}
						}
					}
					key := cs.name + "/" + fam
					if got := hex.EncodeToString(all.Sum(nil)); got != scorePruneGolden[key] {
						t.Errorf("%s: digest %s, recorded %s", key, got, scorePruneGolden[key])
					}
					if got := hex.EncodeToString(decided.Sum(nil)); got != decisionGolden[key] {
						t.Errorf("%s: decision digest %s, recorded %s", key, got, decisionGolden[key])
					}
				})
			}
		})
	}
}
