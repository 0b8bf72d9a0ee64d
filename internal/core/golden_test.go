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
// near-tie order both depend on it). They were re-recorded once when pruning
// stopped scoring vectors alone in their group: that moved ModelRows,
// ModelBatches, MemoHits and the audit's bestCost/worstCost, and no decision
// (decisionGolden, recorded before, still passes). Every run has the vector
// store's poison hook armed (newCtx), so a vector read after its row was
// recycled is a digest mismatch too. Re-record only for a change that means
// to alter a decision or the model work, and say which in the commit.
var scorePruneGolden = map[string]string{
	"dag20/tree":     "aa654b51424f42a2979b4f63115007ae1af179cc1e4eb0d2f5e268ae0cb95dc3",
	"dag20/forest":   "c0cf002178eea33219c173a81b0846d546a296d4a23e0a3ea206bbca7090b204",
	"dag20/gbm":      "96cb772c7c068685942197a69c87a1d787852b3462ca23046a097000e7a1dbfc",
	"dag20/linear":   "0fbf388846a7843319c8e4d9d6bba3794fa79415f632dbb4a8824e653fb978cb",
	"dag20/mlp":      "89e01407a7f3ab6d35288121afef30360077f9d4376b823dc2a43a865b2fa25b",
	"dag20/ensemble": "0129fbcb365075e2ccfbe15b8445ce359656ff6107e62b71fbcb4007681c0c68",
	"dag33/tree":     "9d5a39b3486343259a2549b3bf56954b93ee4ecc36ce888e303ffd52dd44de17",
	"dag33/forest":   "40a39dac5e418d7abb8a73ab88b7084d4bb9ab1d6710e1004ee717815a390252",
	"dag33/gbm":      "a1e335df6cc86e6e29792fa7366f69c861742301277725bc3c7463330f80c5d7",
	"dag33/linear":   "2dc141656636e87549149fa9d4377035cf00a06abe973a9f09b0c5319b94ce2e",
	"dag33/mlp":      "15b6325ff3e34114e96aa0c0d634b923d02f387ced68542d5fc6d3de2f42a7da",
	"dag33/ensemble": "cbce2b4359c99f5e8a648f2fbe6ab425c578e32f99683fa461ae1ce7a5358a9a",
	"dag47/tree":     "abd52daa1d342c43b4a6a8b5d27cd6a45a192f627d25bf41bce06a25a4f8075c",
	"dag47/forest":   "7deb9b036937b734cfd0d2ea05ed8c77d11733adae9e97471c39b224a4603756",
	"dag47/gbm":      "b1859e2247b0590e30fbe4174ab55fb2db51aaa142d8b1a330c0cc23a564073c",
	"dag47/linear":   "284018420be8b7e72448e8a841262b740a77fa7e2b97b7794e771d814696c512",
	"dag47/mlp":      "4293f22feed327dd1909f03c650f4212c444417e2956d1d57457297c0d189699",
	"dag47/ensemble": "550824c2c47704354d466013daa3dff462227ba1d4c23b846919f03fe472d623",
	"dag60/tree":     "880405a5663217acafd54cf7ec213417ccf4efed66e8e41d637d6c07378c09ca",
	"dag60/forest":   "2e852186176a4a41de797b0e7b8c6bfc14287c4993085f48a79ea7130c429d2f",
	"dag60/gbm":      "c666fd3944f6da6ca2370242216688b439269cb8ea5307f96bd23a62223c6702",
	"dag60/linear":   "330bfd02992153381e9a506f278f365e0292a9a17891377739b2dd1ed26ac369",
	"dag60/mlp":      "d3b92d27153ccbbd220dbb98917a1a0a4920869a90c479303ea507fb9b1aa750",
	"dag60/ensemble": "38a0aea9878d2c66f3718f37d1910d325753e1025a860840abf37573acc0d378",
}

// decisionGolden holds, per corpus DAG and model family, a SHA-256 over what
// the optimizations decide and nothing about how much model work deciding
// took: plan bytes, Predicted, PredictedDist, VectorsCreated, Merges, Pruned,
// IntervalKept, PeakEnumSize, Degraded, and each audit step's VectorsIn,
// VectorsOut and BestPruned. It covers scorePruneGolden's configurations plus
// two degraded budgets (ForceDegraded, and a MaxVectors cap that trips
// mid-run) under both Risks and both pruners at Workers ∈ {1, 8}. Recorded at
// commit 43e5275, while pruning still scored every vector it saw: a change
// that only moves model work (which vectors are scored, when, in how many
// batches) must pass it unedited.
var decisionGolden = map[string]string{
	"dag20/tree":     "8bb93e55414e498e7f5f3f5b4070a7d339755b957e37948e06490f2927fba8c6",
	"dag20/forest":   "8936f402c87aa3b98a57a61ff5aa33696ff4fa89993e3208660b97eadbecec01",
	"dag20/gbm":      "4cc2cd298b44f1101575a5e10c6b53c712b622a4607d21381b84e6b2b4c103c7",
	"dag20/linear":   "7c0d9542d7256c7ba28ee8682023912b6bc75211664325c65d44cc5a316beb4b",
	"dag20/mlp":      "93b45b384696491561707b1c6389ed475fc7f2783936a965eb5f027410e70bf7",
	"dag20/ensemble": "65d4be450e7ab12fa386eca405233ccfec4e0678cf452f9ed582c979e79cbbaf",
	"dag33/tree":     "8b9c88e7a7e8b620bf12e8cd39ce4ce9e4ee7f993a45f250eaa1a756776becd5",
	"dag33/forest":   "d88e2def8bcc0a9a4dc5cd27f6730e530e863d953dfd9e7b6949dd191e56501c",
	"dag33/gbm":      "3afc1b2f1569932a46372716118fb4716e41ddbaca4959d4da4c6d5e64510566",
	"dag33/linear":   "114bfc3fed56c0fb5fc6ecc8433933519f005ddefc2dceea9082ce3f92bcd8a5",
	"dag33/mlp":      "11e6397bc69bb77e7bb8cd89da5ba6499447f668c66b8278d4a8f0ffd297de74",
	"dag33/ensemble": "b12c8956d93be43a34029d74a717689a5bda9f9a92cd6678da3d69e823a9ffbb",
	"dag47/tree":     "f81d5d4c82b620dbf3b83ebb08da005af59c3e9c7ea81ae396e76213a81521a2",
	"dag47/forest":   "fbf6cca68a89f2c27bdb940ac48b27c3dcf9da17b3f23af9b924737c9580f5a0",
	"dag47/gbm":      "f786faf5e988f6e2580955be941deca8d6547f5aed2527c75e8d63938d5ccb10",
	"dag47/linear":   "1d9bc093f3fd5051a7ff388c1f3c5b083009b468fab686b392372a456dbda95c",
	"dag47/mlp":      "fc2bb382feb84e853754641e1b94ef0646f012b7120da433fccee13c03e879d4",
	"dag47/ensemble": "41044e87f5087ec8618241c9397480372a6cf76c97af5b9106923006570ef72a",
	"dag60/tree":     "77431aacadd81943d1fe46d60a56f32cccbe3df119aefd2a940e02027e50d561",
	"dag60/forest":   "a57d3c3dd10f5edf61af55649b30838e334379b0fa3e0e84bcc7f158c44db6d5",
	"dag60/gbm":      "fd395f22f7922a133aedeca1401f3e2ced9ff1d76bbaec53baa2ffa363da9649",
	"dag60/linear":   "1469f922ba2006f04acbff2289cbd2c5eb0c933e754e75245506ee9c5446edb2",
	"dag60/mlp":      "aadb86111a93779c02c6b873137f110d4843e62daa05590e619127deadc5c19e",
	"dag60/ensemble": "1e4da48f3bde81bbdbd2501e2486cf777bc5eb5a42c2a7d9e2b1b677c1c5e4e0",
}

// goldenBudgets are the degraded configurations of decisionGolden. The
// MaxVectors cap trips after the first few concatenations of each corpus DAG
// (checked in goldenRun).
var goldenBudgets = []core.Budget{{ForceDegraded: true}, {MaxVectors: 400}}

// goldenRun hashes one traced optimization into h (scorePruneGolden) and its
// decisions into d (decisionGolden).
func goldenRun(t *testing.T, h, d io.Writer, l *plan.Logical, m core.CostModel, risk core.Risk, property bool, workers int, budget core.Budget) {
	t.Helper()
	ctx := newCtx(t, l, 3)
	ctx.Workers = workers
	ctx.Risk = risk
	ctx.Budget = budget
	ctx.Trace = obs.NewTrace("golden")
	var pr core.Pruner = core.BoundaryPruner{Model: m}
	if property {
		pr = core.PropertyPruner{Model: m, Properties: []core.Property{core.SwitchCountProperty{}}}
	}
	res, err := ctx.OptimizeOpts(context.Background(), m, pr, core.OrderPriority)
	if err != nil {
		t.Fatalf("Optimize (risk=%+v property=%v workers=%d budget=%+v): %v", risk, property, workers, budget, err)
	}
	if budget.Active() && (!res.Degraded || res.Trace.Prunes[0].Degraded != budget.ForceDegraded) {
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
								one, dec := sha256.New(), io.Discard
								if workers != 2 {
									dec = decided
								}
								goldenRun(t, one, dec, l, m, risk, property, workers, core.Budget{})
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
							for _, b := range goldenBudgets {
								for _, workers := range []int{1, 8} {
									goldenRun(t, io.Discard, decided, l, m, risk, property, workers, b)
								}
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
