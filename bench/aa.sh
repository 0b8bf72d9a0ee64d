#!/usr/bin/env bash
# A/A check: two interleaved sets of N (default 5) runs of the *same* tree,
# every run on another seed, the way the acceptance driver measures. For each
# workload x end-to-end metric it prints both medians, the interquartile spread
# of each set as a share of its median, and how much worse the second median
# is than the first, against the metric's bound in BENCHMARK.json. Exits 1 if
# any spread or difference breaches its bound (set-up time is held to the
# difference only, as in the driver).
#
#   bench/aa.sh [N] [SECONDS]     SECONDS defaults to BENCHMARK.json's run_seconds
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:-5}"
contract="$here/../BENCHMARK.json"
seconds="${2:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$contract")}"
dir="$here/out/aa"
rm -rf "$dir" && mkdir -p "$dir"
workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$contract")"

"$here/run.sh" --workload "${workloads%% *}" --seconds 1 >/dev/null # build, train the fixture
seed=0
for i in $(seq 1 "$n"); do
	for set in a b; do
		seed=$((seed + 1))
		for w in $workloads; do
			echo "aa: set $set run $i/$n seed $seed $w" >&2
			"$here/out/robopt-bench" --workload "$w" --seed "$seed" --seconds "$seconds" | tail -n 1 >"$dir/$set-$i-$w.json"
		done
	done
done

python3 - "$contract" "$dir" "$n" <<'EOF'
import json, statistics, sys
contract, d, n = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])
breaches = 0
print(f"| workload | metric | median A | median B | IQR A | IQR B | B worse by | bound | |")
print("|---|---|---|---|---|---|---|---|---|")
for w in (w["name"] for w in contract["workloads"]):
    runs = {s: [json.load(open(f"{d}/{s}-{i}-{w}.json")) for i in range(1, n + 1)] for s in "ab"}
    for s in "ab":
        for r in runs[s]:
            if not r["correct"] or r["failed"]:
                print(f"{w}: a run of set {s} failed its checks", file=sys.stderr)
                breaches += 1
    for m in contract["end_to_end"]:
        name, bound = m["name"], m["bound"]
        med, iqr = {}, {}
        for s in "ab":
            v = [r["metrics"][name]["value"] for r in runs[s]]
            q = statistics.quantiles(v, n=4)
            med[s] = statistics.median(v)
            iqr[s] = (q[2] - q[0]) / med[s]
        worse = (med["b"] - med["a"]) / med["a"] * (1 if m["better"] == "lower" else -1)
        bad = worse > bound or (name != "setup_s" and max(iqr.values()) > bound)
        breaches += bad
        print(f"| {w} | {name} | {med['a']:.5g} | {med['b']:.5g} | {iqr['a']:.2%} | {iqr['b']:.2%} | {worse:+.2%} | {bound:.1%} | {'BREACH' if bad else 'ok'} |")
sys.exit(1 if breaches else 0)
EOF
