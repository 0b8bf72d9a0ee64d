#!/usr/bin/env bash
# End-to-end model lifecycle smoke test:
#
#   tdgen → robopt -train/-save-model → roboptd -model/-model-dir →
#   POST /optimize → promote a copied-in artifact → POST /modelz/reload
#
# Asserts that the served plan is non-degraded, that every response is
# labeled with the model version that scored it, and that promoting a new
# artifact bumps the served version. Run from the repository root:
#
#   ./scripts/e2e_smoke.sh
set -euo pipefail

PORT="${SMOKE_PORT:-18099}"
PORT_B="${SMOKE_PORT_B:-18100}"
BASE="http://127.0.0.1:$PORT"
BASE_B="http://127.0.0.1:$PORT_B"
LOADGEN_DURATION="${SMOKE_LOADGEN_DURATION:-30s}"
WORK="$(mktemp -d)"
DAEMON_PID=""
REPLICA_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  [ -n "$REPLICA_PID" ] && kill "$REPLICA_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

say()  { echo "--- $*"; }
die()  { echo "FAIL: $*" >&2; exit 1; }

# jget FILE EXPR — evaluate a python expression over the parsed JSON as d.
jget() { python3 -c "import json,sys; d=json.load(open('$1')); print($2)"; }

say "building binaries"
go build -o "$WORK" ./cmd/tdgen ./cmd/robopt ./cmd/roboptd ./cmd/loadgen ./cmd/obsctl

say "checking -version output"
# Substitution (not a pipe): grep -q exiting early would SIGPIPE the binary
# mid-output and trip pipefail.
grep -q '^robopt ' <<<"$("$WORK/robopt" -version)" || die "robopt -version"
grep -q '^roboptd ' <<<"$("$WORK/roboptd" -version)" || die "roboptd -version"

say "generating training data (two draws, second appended)"
"$WORK/tdgen" -templates 2 -plans 4 -profiles 4 -max-ops 12 -platforms 3 \
  -o "$WORK/train.csv" 2>/dev/null
"$WORK/tdgen" -templates 2 -plans 4 -profiles 4 -max-ops 12 -platforms 3 \
  -seed 2021 -o "$WORK/train.csv" -append 2>/dev/null
"$WORK/tdgen" -templates 2 -plans 4 -profiles 4 -max-ops 12 -platforms 3 \
  -seed 2030 -o "$WORK/train2.csv" 2>/dev/null

say "training two model artifacts"
"$WORK/robopt" -print-example-plan > "$WORK/query.json"
"$WORK/robopt" -plan "$WORK/query.json" -train "$WORK/train.csv" \
  -save-model "$WORK/artifact.json" -platforms 3 -simulate=false >/dev/null
"$WORK/robopt" -plan "$WORK/query.json" -train "$WORK/train2.csv" \
  -save-model "$WORK/artifact2.json" -platforms 3 -simulate=false >/dev/null

say "starting roboptd with the artifact store"
"$WORK/roboptd" -addr "127.0.0.1:$PORT" -model "$WORK/artifact.json" \
  -model-dir "$WORK/store" -platforms 3 -feedback-cap 128 \
  -replica-id smoke-a -fleet-heartbeat 1s -peer-fill \
  > "$WORK/roboptd.log" 2>&1 &
DAEMON_PID=$!
for i in $(seq 1 50); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  [ "$i" = 50 ] && { cat "$WORK/roboptd.log" >&2; die "daemon did not come up"; }
  sleep 0.2
done

say "optimizing under the boot model (v1)"
curl -sf -D "$WORK/resp1.h" -XPOST --data-binary @"$WORK/query.json" \
  "$BASE/optimize?simulate=1" > "$WORK/resp1.json"
[ "$(jget "$WORK/resp1.json" "d['modelVersion']")" = "v1" ] \
  || die "first response not scored by v1: $(cat "$WORK/resp1.json")"
[ "$(jget "$WORK/resp1.json" "d.get('degraded', False)")" = "False" ] \
  || die "plan was degraded"
[ "$(jget "$WORK/resp1.json" "len(d['assignments']) > 0")" = "True" ] \
  || die "no assignments in response"
[ "$(jget "$WORK/resp1.json" "d['simulatedRuntimeSec'] > 0")" = "True" ] \
  || die "simulate=1 produced no runtime"
grep -qi '^x-cache: miss' "$WORK/resp1.h" \
  || die "first optimize was not a cache miss"

say "repeating the identical request (cache hit)"
curl -sf -D "$WORK/hit.h" -XPOST --data-binary @"$WORK/query.json" \
  "$BASE/optimize" > "$WORK/hit.json"
grep -qi '^x-cache: hit' "$WORK/hit.h" \
  || die "identical request was not served from the cache"
[ "$(jget "$WORK/hit.json" "d['servedModelVersion']")" = "v1" ] \
  || die "cache hit not labeled with the producing model version"
[ "$(jget "$WORK/hit.json" "d['stats']['modelRows']")" = "0" ] \
  || die "cache hit ran the model"
[ "$(jget "$WORK/hit.json" "bool(d['cachedAt'])")" = "True" ] \
  || die "cache hit carries no cachedAt"
python3 - "$WORK/resp1.json" "$WORK/hit.json" <<'PY' || die "cached plan differs from the uncached one"
import json, sys
a, b = (json.load(open(f)) for f in sys.argv[1:3])
assert a["assignments"] == b["assignments"], "assignments differ"
assert a.get("conversions") == b.get("conversions"), "conversions differ"
assert a["predictedRuntimeSec"] == b["predictedRuntimeSec"], "prediction differs"
PY

say "inspecting /cachez"
curl -sf "$BASE/cachez" > "$WORK/cachez.json"
[ "$(jget "$WORK/cachez.json" "d['enabled']")" = "True" ] \
  || die "/cachez reports the cache disabled"
[ "$(jget "$WORK/cachez.json" "d['stats']['hits'] >= 1")" = "True" ] \
  || die "/cachez shows no hits"
[ "$(jget "$WORK/cachez.json" "d['stats']['activeVersion']")" = "v1" ] \
  || die "/cachez active version is not v1"

say "promoting a copied-in artifact as v2"
cp "$WORK/artifact2.json" "$WORK/store/v2.json"
curl -sf -XPOST "$BASE/modelz/promote?version=v2" > "$WORK/promote.json"
[ "$(jget "$WORK/promote.json" "d['swapped']")" = "True" ] \
  || die "promote did not swap: $(cat "$WORK/promote.json")"

say "verifying the version bump (and cache invalidation) on the next request"
curl -sf -D "$WORK/resp2.h" -XPOST --data-binary @"$WORK/query.json" \
  "$BASE/optimize" > "$WORK/resp2.json"
[ "$(jget "$WORK/resp2.json" "d['modelVersion']")" = "v2" ] \
  || die "response after promote not scored by v2: $(cat "$WORK/resp2.json")"
[ "$(jget "$WORK/resp2.json" "d.get('degraded', False)")" = "False" ] \
  || die "plan degraded after promote"
grep -qi '^x-cache: miss' "$WORK/resp2.h" \
  || die "promote did not invalidate the cached v1 plan (stale hit)"

say "reload is idempotent once v2 is active"
curl -sf -XPOST "$BASE/modelz/reload" > "$WORK/reload.json"
[ "$(jget "$WORK/reload.json" "d['swapped']")" = "False" ] \
  || die "reload re-swapped the active version: $(cat "$WORK/reload.json")"

say "checking lifecycle metrics"
curl -sf "$BASE/metricz" > "$WORK/metricz.json"
[ "$(jget "$WORK/metricz.json" "d['counters']['model_swaps_total'] >= 1")" = "True" ] \
  || die "model_swaps_total not incremented"
[ "$(jget "$WORK/metricz.json" "d['counters']['feedback_samples_total'] >= 1")" = "True" ] \
  || die "feedback_samples_total not incremented"
[ "$(jget "$WORK/metricz.json" "all(d['counters'].get('serving_model_requests_total{version=\"%s\"}' % v, 0) >= 1 for v in ('v1', 'v2'))")" = "True" ] \
  || die "per-version request counters missing"
[ "$(jget "$WORK/metricz.json" "d['counters']['plan_cache_hits_total'] >= 1")" = "True" ] \
  || die "plan_cache_hits_total not incremented"
[ "$(jget "$WORK/metricz.json" "d['counters']['plan_cache_misses_total'] >= 2")" = "True" ] \
  || die "plan_cache_misses_total not incremented"
[ "$(jget "$WORK/metricz.json" "d['counters']['plan_cache_invalidations_total'] >= 1")" = "True" ] \
  || die "plan_cache_invalidations_total not incremented by the promote"

say "checking /modelz store state"
curl -sf "$BASE/modelz" > "$WORK/modelz.json"
[ "$(jget "$WORK/modelz.json" "d['active']['version']")" = "v2" ] \
  || die "/modelz does not report v2 active"
[ "$(jget "$WORK/modelz.json" "d['store']['active']")" = "v2" ] \
  || die "store ACTIVE marker not moved to v2"

say "optimizing risk-aware (?risk_lambda=0.5) and checking the interval"
curl -sf -D "$WORK/risk.h" -XPOST --data-binary @"$WORK/query.json" \
  "$BASE/optimize?risk_lambda=0.5" > "$WORK/risk.json"
[ "$(jget "$WORK/risk.json" "d['riskLambda']")" = "0.5" ] \
  || die "risk-aware response does not echo riskLambda: $(cat "$WORK/risk.json")"
[ "$(jget "$WORK/risk.json" "d['predictedSpreadSec'] > 0")" = "True" ] \
  || die "risk-aware response carries no predictive spread"
[ "$(jget "$WORK/risk.json" "d['predictedLoSec'] <= d['predictedRuntimeSec'] <= d['predictedHiSec']")" = "True" ] \
  || die "prediction interval does not bracket the point estimate"
grep -qi '^x-cache: miss' "$WORK/risk.h" \
  || die "risk-aware request hit the point-estimate cache band"
[ "$(curl -s -o /dev/null -w '%{http_code}' -XPOST --data-binary @"$WORK/query.json" \
  "$BASE/optimize?risk_lambda=bogus")" = "400" ] \
  || die "malformed risk_lambda not rejected with 400"

say "checking risk metrics on /metricz"
curl -sf "$BASE/metricz" > "$WORK/metricz2.json"
[ "$(jget "$WORK/metricz2.json" "d['histograms']['plan_spread']['count'] >= 1")" = "True" ] \
  || die "plan_spread histogram not observed"
[ "$(jget "$WORK/metricz2.json" "d['histograms']['plan_interval_width']['count'] >= 1")" = "True" ] \
  || die "plan_interval_width histogram not observed"

say "tracing an optimization and reading it back from /tracez"
# nocache=1: a cache hit is a one-span trace with no pruning audit.
curl -sf -XPOST --data-binary @"$WORK/query.json" \
  "$BASE/optimize?trace=1&nocache=1" > "$WORK/traced.json"
TRACE_ID="$(jget "$WORK/traced.json" "d['requestId']")"
[ "$(jget "$WORK/traced.json" "len(d['trace']['prunes']) > 0")" = "True" ] \
  || die "?trace=1 response carries no pruning audit"
curl -sf "$BASE/tracez?id=$TRACE_ID" > "$WORK/trace.json"
[ "$(jget "$WORK/trace.json" "d['id']")" = "$TRACE_ID" ] \
  || die "/tracez?id= did not return the forced trace"
# Every prune span must shrink (or keep) the enumeration: vectors_out <= in.
python3 - "$WORK/trace.json" <<'PY' || die "prune span vector accounting inconsistent"
import json, sys
spans = json.load(open(sys.argv[1]))["spans"]
prunes = [s for s in spans if s["name"] == "prune"]
assert prunes, "no prune spans in the retained trace"
for s in prunes:
    a = s.get("attrs", {})
    assert a["vectors_out"] <= a["vectors_in"], f"prune grew: {a}"
names = {s["name"] for s in spans}
missing = {"optimize", "vectorize", "enumerate", "split",
           "merge", "prune", "infer", "unvectorize"} - names
assert not missing, f"missing spans: {missing}"
PY

say "scraping /metricz in prometheus format"
curl -sf "$BASE/metricz?format=prometheus" > "$WORK/metricz.prom"
grep -q '^# TYPE requests_total counter$' "$WORK/metricz.prom" \
  || die "prometheus exposition lacks requests_total TYPE line"
grep -Eq '^requests_total [0-9]+$' "$WORK/metricz.prom" \
  || die "prometheus exposition lacks a requests_total sample"
grep -q '^optimize_ms_bucket{le="+Inf"}' "$WORK/metricz.prom" \
  || die "prometheus exposition lacks the optimize_ms +Inf bucket"
grep -Eq '^plan_cache_hits_total [0-9]+$' "$WORK/metricz.prom" \
  || die "prometheus exposition lacks plan_cache_hits_total"
grep -Eq '^plan_cache_misses_total [0-9]+$' "$WORK/metricz.prom" \
  || die "prometheus exposition lacks plan_cache_misses_total"

say "pprof stays off by default"
[ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/debug/pprof/")" = "404" ] \
  || die "/debug/pprof/ reachable without -pprof"

say "starting replica B over the same model store"
"$WORK/roboptd" -addr "127.0.0.1:$PORT_B" -model-dir "$WORK/store" \
  -platforms 3 -store-watch-interval 200ms \
  -replica-id smoke-b -fleet-heartbeat 1s -peer-fill \
  > "$WORK/replica-b.log" 2>&1 &
REPLICA_PID=$!
for i in $(seq 1 50); do
  curl -sf "$BASE_B/healthz" >/dev/null 2>&1 && break
  [ "$i" = 50 ] && { cat "$WORK/replica-b.log" >&2; die "replica B did not come up"; }
  sleep 0.2
done

say "replica B is ready and boots on the store's active version (v2)"
curl -s "$BASE_B/readyz" > "$WORK/readyz-b.json"
[ "$(jget "$WORK/readyz-b.json" "d['ready']")" = "True" ] \
  || die "replica B not ready: $(cat "$WORK/readyz-b.json")"
[ "$(jget "$WORK/readyz-b.json" "d['modelVersion']")" = "v2" ] \
  || die "replica B did not boot on v2: $(cat "$WORK/readyz-b.json")"

say "promoting v1 on replica A; replica B must converge without a restart"
curl -sf -XPOST "$BASE/modelz/promote?version=v1" >/dev/null
CONVERGED=""
for i in $(seq 1 50); do
  curl -s "$BASE_B/readyz" > "$WORK/readyz-b2.json"
  if [ "$(jget "$WORK/readyz-b2.json" "d['modelVersion']")" = "v1" ]; then
    CONVERGED=1; break
  fi
  sleep 0.2
done
[ -n "$CONVERGED" ] \
  || die "replica B never converged on v1: $(cat "$WORK/readyz-b2.json")"
[ "$(jget "$WORK/readyz-b2.json" "d['storeActive']")" = "v1" ] \
  || die "replica B disagrees with the store marker: $(cat "$WORK/readyz-b2.json")"
curl -sf -XPOST --data-binary @"$WORK/query.json" "$BASE_B/optimize" > "$WORK/conv.json"
[ "$(jget "$WORK/conv.json" "d['modelVersion']")" = "v1" ] \
  || die "replica B serves a stale model after convergence"
curl -sf "$BASE_B/metricz" > "$WORK/metricz-b.json"
[ "$(jget "$WORK/metricz-b.json" "d['counters']['store_watch_swaps_total'] >= 1")" = "True" ] \
  || die "store_watch_swaps_total not incremented on replica B"

say "shared cache tier: B peer-fills a plan only A enumerated"
# A fresh cardinality decade means a fresh fingerprint — cold fleet-wide.
python3 - "$WORK/query.json" > "$WORK/query2.json" <<'PY'
import json, sys
q = json.load(open(sys.argv[1]))
for op in q["operators"]:
    if "card" in op:
        op["card"] *= 100
print(json.dumps(q))
PY
curl -sf -D "$WORK/peer-a.h" -XPOST --data-binary @"$WORK/query2.json" \
  "$BASE/optimize?trace=1" > "$WORK/peer-a.json"
grep -qi '^x-cache: miss' "$WORK/peer-a.h" \
  || die "cold plan was not a miss on replica A"
curl -sf -D "$WORK/peer-b.h" -XPOST --data-binary @"$WORK/query2.json" \
  "$BASE_B/optimize?trace=1" > "$WORK/peer-b.json"
grep -qi '^x-cache: peer' "$WORK/peer-b.h" \
  || die "replica B did not peer-fill the plan A enumerated: $(cat "$WORK/peer-b.h")"
[ "$(jget "$WORK/peer-b.json" "d['stats']['modelRows']")" = "0" ] \
  || die "peer-served response ran the model locally"
python3 - "$WORK/peer-a.json" "$WORK/peer-b.json" <<'PY' || die "peer-served plan differs from the origin enumeration"
import json, sys
a, b = (json.load(open(f)) for f in sys.argv[1:3])
assert a["assignments"] == b["assignments"], "assignments differ"
assert a["predictedRuntimeSec"] == b["predictedRuntimeSec"], "prediction differs"
assert a["modelVersion"] == b["servedModelVersion"], "peer fill crossed model versions"
PY

say "the peer-served trace links back to the origin enumeration"
A_TRACE="$(jget "$WORK/peer-a.json" "d['requestId']")"
B_TRACE="$(jget "$WORK/peer-b.json" "d['requestId']")"
curl -sf "$BASE_B/tracez?id=$B_TRACE" > "$WORK/peer-trace.json"
[ "$(jget "$WORK/peer-trace.json" "any(l['reason'] == 'peer-fill' and l['traceId'] == '$A_TRACE' for l in d.get('links', []))")" = "True" ] \
  || die "peer-fill trace link missing or not pointing at A's trace: $(cat "$WORK/peer-trace.json")"

say "the peer-filled entry is now a plain local hit on B"
curl -sf -D "$WORK/peer-b2.h" -o /dev/null -XPOST --data-binary @"$WORK/query2.json" \
  "$BASE_B/optimize"
grep -qi '^x-cache: hit' "$WORK/peer-b2.h" \
  || die "peer-filled entry was not installed in B's local cache"

say "checking shared-tier metrics and /cachez on both replicas"
curl -sf "$BASE_B/metricz" > "$WORK/peer-metricz-b.json"
[ "$(jget "$WORK/peer-metricz-b.json" "d['counters']['peer_fill_hits_total'] >= 1")" = "True" ] \
  || die "peer_fill_hits_total not incremented on B"
[ "$(jget "$WORK/peer-metricz-b.json" "d['counters']['plan_cache_peer_fills_total'] >= 1")" = "True" ] \
  || die "plan_cache_peer_fills_total not incremented on B"
curl -sf "$BASE/metricz" > "$WORK/peer-metricz-a.json"
[ "$(jget "$WORK/peer-metricz-a.json" "d['counters']['peer_serve_total'] >= 1")" = "True" ] \
  || die "peer_serve_total not incremented on A"
[ "$(jget "$WORK/peer-metricz-a.json" "d['counters']['fleet_singleflight_claims_total'] >= 1")" = "True" ] \
  || die "fleet_singleflight_claims_total never moved: cold misses ran unclaimed"
curl -sf "$BASE_B/cachez" > "$WORK/peer-cachez.json"
[ "$(jget "$WORK/peer-cachez.json" "d['stats']['peerFills'] >= 1")" = "True" ] \
  || die "/cachez on B reports no peer fills"
[ "$(jget "$WORK/peer-cachez.json" "d['peerFill']['hits'] >= 1")" = "True" ] \
  || die "/cachez on B carries no peerFill block"

say "claim files were created and reaped"
[ -d "$WORK/store/claims" ] \
  || die "no claims/ directory in the store: fleet singleflight never claimed"
[ -z "$(find "$WORK/store/claims" -name '*.json' -print -quit)" ] \
  || die "stale claim files left behind: $(ls "$WORK/store/claims")"

say "?nopeer=1 bypasses the tier"
python3 - "$WORK/query.json" > "$WORK/query3.json" <<'PY'
import json, sys
q = json.load(open(sys.argv[1]))
for op in q["operators"]:
    if "card" in op:
        op["card"] *= 10000
print(json.dumps(q))
PY
curl -sf -o /dev/null -XPOST --data-binary @"$WORK/query3.json" "$BASE/optimize"
curl -sf -D "$WORK/nopeer.h" -o /dev/null -XPOST --data-binary @"$WORK/query3.json" \
  "$BASE_B/optimize?nopeer=1"
grep -qi '^x-cache: miss' "$WORK/nopeer.h" \
  || die "?nopeer=1 still consulted the fleet tier"

say "batch endpoint dedups members by fingerprint"
python3 -c "import json; q=json.load(open('$WORK/query.json')); print(json.dumps({'plans':[q,q]}))" \
  > "$WORK/batch.json"
curl -sf -XPOST --data-binary @"$WORK/batch.json" "$BASE_B/optimize/batch" > "$WORK/batchresp.json"
[ "$(jget "$WORK/batchresp.json" "d['members']")" = "2" ] \
  || die "batch response members != 2: $(cat "$WORK/batchresp.json")"
[ "$(jget "$WORK/batchresp.json" "d['distinct']")" = "1" ] \
  || die "identical batch members not fingerprint-deduped"
[ "$(jget "$WORK/batchresp.json" "d['errors']")" = "0" ] \
  || die "batch members failed: $(cat "$WORK/batchresp.json")"

say "traceparent propagates through /optimize into /tracez"
TP_ID="0af7651916cd43dd8448eb211c80319c"
curl -sf -D "$WORK/tp.h" -H "traceparent: 00-$TP_ID-00f067aa0ba902b7-01" \
  -XPOST --data-binary @"$WORK/query.json" "$BASE/optimize?nocache=1" > "$WORK/tp.json"
grep -qi "^traceparent: 00-$TP_ID-" "$WORK/tp.h" \
  || die "response did not echo the traceparent header"
[ "$(jget "$WORK/tp.json" "d['traceId']")" = "$TP_ID" ] \
  || die "response traceId is not the propagated trace ID: $(cat "$WORK/tp.json")"
curl -sf "$BASE/tracez?id=$TP_ID" > "$WORK/tp-trace.json"
[ "$(jget "$WORK/tp-trace.json" "d['id']")" = "$TP_ID" ] \
  || die "/tracez?id= did not resolve the remote trace ID"
[ "$(jget "$WORK/tp-trace.json" "d['retained']")" = "forced" ] \
  || die "sampled traceparent did not force retention"
[ "$(jget "$WORK/tp-trace.json" "d['requestId'] != ''")" = "True" ] \
  || die "remote trace lost its local requestId join key"

say "one traceparent covers a whole batch as member child spans"
TP_BATCH="4bf92f3577b34da6a3ce929d0e0e4736"
curl -sf -H "traceparent: 00-$TP_BATCH-00f067aa0ba902b7-01" \
  -XPOST --data-binary @"$WORK/batch.json" "$BASE_B/optimize/batch" > "$WORK/tpb.json"
[ "$(jget "$WORK/tpb.json" "d['traceId']")" = "$TP_BATCH" ] \
  || die "batch response traceId is not the propagated trace ID"
curl -sf "$BASE_B/tracez?id=$TP_BATCH" > "$WORK/tpb-trace.json"
python3 - "$WORK/tpb-trace.json" <<'PY' || die "batch trace tree malformed"
import json, sys
snap = json.load(open(sys.argv[1]))
spans = snap["spans"]
roots = [s for s in spans if s["name"] == "batch"]
assert len(roots) == 1, f"batch roots: {len(roots)}"
members = [s for s in spans if s["name"] == "member"]
assert len(members) == 2, f"member spans: {len(members)}"
for m in members:
    assert m["parent"] == roots[0]["id"], "member not under the batch root"
PY

say "checking /sloz burn-rate windows"
curl -sf "$BASE/sloz" > "$WORK/sloz.json"
[ "$(jget "$WORK/sloz.json" "d['enabled']")" = "True" ] \
  || die "/sloz reports SLO tracking disabled"
[ "$(jget "$WORK/sloz.json" "len(d['windows']) >= 2")" = "True" ] \
  || die "/sloz reports fewer than 2 rolling windows"
[ "$(jget "$WORK/sloz.json" "all(w['total'] > 0 for w in d['windows'])")" = "True" ] \
  || die "/sloz windows saw no traffic"
[ "$(jget "$WORK/sloz.json" "d['breached']")" = "False" ] \
  || die "SLO breached during the smoke run: $(cat "$WORK/sloz.json")"

say "both replicas appear in the merged /fleetz view"
curl -sf "$BASE/fleetz" > "$WORK/fleetz.json"
[ "$(jget "$WORK/fleetz.json" "d['fleet']['replicas']")" = "2" ] \
  || die "/fleetz does not see both replicas: $(cat "$WORK/fleetz.json")"
[ "$(jget "$WORK/fleetz.json" "d['fleet']['ready']")" = "2" ] \
  || die "/fleetz reports unready replicas"
[ "$(jget "$WORK/fleetz.json" "sorted(r['id'] for r in d['replicas'])")" = "['smoke-a', 'smoke-b']" ] \
  || die "/fleetz replica IDs wrong: $(cat "$WORK/fleetz.json")"
[ "$(jget "$WORK/fleetz.json" "all(r['modelVersion'] == 'v1' for r in d['replicas'])")" = "True" ] \
  || die "/fleetz replicas not converged on v1"
[ "$(jget "$WORK/fleetz.json" "any(r['cacheHits'] > 0 for r in d['replicas'])")" = "True" ] \
  || die "/fleetz shows no cache traffic"
[ "$(jget "$WORK/fleetz.json" "d['fleet']['peerFillRate'] > 0")" = "True" ] \
  || die "/fleetz fleet view reports no peer-fill traffic"

say "obsctl renders the same fleet from the store"
"$WORK/obsctl" -model-dir "$WORK/store" > "$WORK/obsctl.txt" \
  || die "obsctl exited nonzero: $(cat "$WORK/obsctl.txt")"
grep -q "smoke-a" "$WORK/obsctl.txt" && grep -q "smoke-b" "$WORK/obsctl.txt" \
  || die "obsctl table missing a replica: $(cat "$WORK/obsctl.txt")"
grep -q "2 replicas (2 ready" "$WORK/obsctl.txt" \
  || die "obsctl fleet summary wrong: $(cat "$WORK/obsctl.txt")"
grep -q "peer " "$WORK/obsctl.txt" \
  || die "obsctl fleet summary lacks the peer-fill column: $(cat "$WORK/obsctl.txt")"

say "sustained loadgen burst against both replicas ($LOADGEN_DURATION)"
"$WORK/loadgen" -replicas "$BASE,$BASE_B" -rate 40 -duration "$LOADGEN_DURATION" \
  -distinct 8 -trace-force -slowest 3 -slo \
  -out "$WORK/BENCH_serving.json" > "$WORK/loadgen.log" 2>&1 \
  || { cat "$WORK/loadgen.log" >&2; die "loadgen run failed"; }
[ -s "$WORK/BENCH_serving.json" ] || die "loadgen wrote no BENCH_serving.json"
[ "$(jget "$WORK/BENCH_serving.json" "d['ok'] > 0")" = "True" ] \
  || die "loadgen saw no successful responses"
[ "$(jget "$WORK/BENCH_serving.json" "d['throughputRps'] > 0")" = "True" ] \
  || die "loadgen measured zero throughput"
[ "$(jget "$WORK/BENCH_serving.json" "d['latencyMs']['p50'] > 0 and d['latencyMs']['p99'] >= d['latencyMs']['p50']")" = "True" ] \
  || die "loadgen latency percentiles inconsistent"
[ "$(jget "$WORK/BENCH_serving.json" "d['modelVersions'].get('v1', 0) > 0")" = "True" ] \
  || die "loadgen responses not labeled with the converged model version"
[ "$(jget "$WORK/BENCH_serving.json" "sum(d['perReplica']) == d['sent'] - d['transportErrors']")" = "True" ] \
  || die "per-replica accounting does not reconcile"
[ "$(jget "$WORK/BENCH_serving.json" "len(d['slowestRequests']) == 3")" = "True" ] \
  || die "loadgen did not report the 3 slowest requests"
[ "$(jget "$WORK/BENCH_serving.json" "all(len(s['traceId']) == 32 for s in d['slowestRequests'])")" = "True" ] \
  || die "slowest requests carry no 32-hex trace IDs"
grep -q "slo: http" "$WORK/loadgen.log" \
  || die "loadgen -slo did not scrape /sloz"

say "labeled serving metrics with exemplars in the prometheus exposition"
curl -sf "$BASE/metricz?format=prometheus" > "$WORK/metricz2.prom"
grep -Eq '^serving_requests_total\{endpoint="optimize",outcome="ok",cache="(hit|miss)"\} [0-9]+$' "$WORK/metricz2.prom" \
  || die "exposition lacks labeled serving_requests_total series"
grep -q '^serving_latency_ms_bucket{endpoint="optimize",le=' "$WORK/metricz2.prom" \
  || die "exposition lacks labeled serving_latency_ms buckets"
grep -q '# {trace_id="' "$WORK/metricz2.prom" \
  || die "exposition carries no exemplars"
# Every exposed exemplar must resolve against /tracez (retained traces only).
EXEMPLAR_ID="$(grep -o 'trace_id="[0-9a-f]*"' "$WORK/metricz2.prom" | head -1 | cut -d'"' -f2)"
curl -sf "$BASE/tracez?id=$EXEMPLAR_ID" >/dev/null \
  || die "exemplar trace $EXEMPLAR_ID not resolvable via /tracez"
grep -q '^slo_burn_rate{window=' "$WORK/metricz2.prom" \
  || die "exposition lacks slo_burn_rate gauges"

say "loadgen -peer-compare: tier off vs on, same seed"
"$WORK/loadgen" -replicas "$BASE,$BASE_B" -rate 30 -duration 5s \
  -distinct 24 -seed 11 -peer-compare -out "$WORK/BENCH_peer.json" \
  > "$WORK/loadgen-peer.log" 2>&1 \
  || { cat "$WORK/loadgen-peer.log" >&2; die "loadgen -peer-compare failed"; }
[ "$(jget "$WORK/BENCH_peer.json" "d['peerCompare']['off']['ok'] > 0 and d['peerCompare']['on']['ok'] > 0")" = "True" ] \
  || die "peer-compare phases saw no successful responses"
[ "$(jget "$WORK/BENCH_peer.json" "d['peerCompare']['off']['cache'].get('peer', 0)")" = "0" ] \
  || die "tier-off phase (?nopeer=1) still served peer fills"
grep -q "peer-compare:" "$WORK/loadgen-peer.log" \
  || die "loadgen did not log the peer-compare summary line"

say "replica B drains cleanly"
kill -TERM "$REPLICA_PID"
RC=0
wait "$REPLICA_PID" || RC=$?
[ "$RC" = "0" ] || die "replica B exited $RC on SIGTERM"
REPLICA_PID=""

say "graceful shutdown on SIGTERM"
kill -TERM "$DAEMON_PID"
RC=0
wait "$DAEMON_PID" || RC=$?
[ "$RC" = "0" ] || die "roboptd exited $RC on SIGTERM (expected a clean drain)"
grep -q "drained cleanly" "$WORK/roboptd.log" \
  || die "roboptd log has no drain confirmation"
DAEMON_PID=""

echo "PASS: model lifecycle + observability smoke test"
