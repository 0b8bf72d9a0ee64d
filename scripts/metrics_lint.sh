#!/usr/bin/env bash
# metrics_lint.sh — keep the code and the README metrics reference honest.
#
#   1. Every metric name registered in non-test Go code must appear in the
#      README "Metrics reference" table.
#   2. Every metric in the table must still exist in code — stale docs fail.
#   3. Label-cardinality bound: no CounterVec/GaugeVec/HistogramVec may
#      declare more than MAX_LABELS labels (each label multiplies series
#      count).
#   4. One writer per fact: a metric name is registered at one non-test site
#      in the whole module. Code that needs the instrument twice resolves the
#      handle once; a second site is how a second ledger starts.
#   5. A registration's name is one string literal: a dimension is a label,
#      never a suffix concatenated into the name.
#
# Run from anywhere; CI runs it as its own leg.
set -euo pipefail
cd "$(dirname "$0")/.."

README=README.md
MAX_LABELS=3
fail=0

err() { echo "metrics-lint: $*" >&2; fail=1; }

# --- code-side names -------------------------------------------------------
# All registrations flow through Counter/Gauge/Histogram and their *Vec
# forms on the obs registry.
registration='\.(Counter|Gauge|Histogram)(Vec)?\("[a-z0-9_]+"'
# One "name file" line per registration site.
code_sites=$(grep -roE "$registration" --include='*.go' internal cmd | grep -v '_test\.go:' \
  | sed -E 's|^([^:]*):[^"]*"([^"]*)"$|\2 \1|')
code_names=$(echo "$code_sites" | cut -d' ' -f1 | sort -u)
[ -n "$code_names" ] || { err "extracted no metric names from code"; exit 1; }

# --- doc-side names --------------------------------------------------------
# First column of the table between the metrics-reference markers.
doc_table=$(awk '/<!-- metrics-reference:begin -->/,/<!-- metrics-reference:end -->/' "$README")
[ -n "$doc_table" ] || { err "no metrics-reference block in $README"; exit 1; }
doc_names=$(echo "$doc_table" | grep -oE '^\| `[a-z0-9_]+`' \
  | sed -E 's/^\| `//; s/`$//' | sort -u)

# --- 1: every code metric is documented ------------------------------------
while read -r name; do
  [ -n "$name" ] || continue
  grep -qx "$name" <<<"$doc_names" \
    || err "metric '$name' registered in code but not in the README metrics reference"
done <<<"$code_names"

# --- 2: every documented metric exists in code -----------------------------
while read -r name; do
  [ -n "$name" ] || continue
  grep -qx "$name" <<<"$code_names" \
    || err "documented metric '$name' no longer registered in code"
done <<<"$doc_names"

# --- 3: label-cardinality bound --------------------------------------------
while IFS=: read -r file line decl; do
  labels=$(echo "$decl" | grep -oE '"[a-z0-9_]+"' | tail -n +2 | wc -l)
  metric=$(echo "$decl" | grep -oE '"[a-z0-9_]+"' | head -1 | tr -d '"')
  if [ "$labels" -gt "$MAX_LABELS" ]; then
    err "$file:$line: vec '$metric' declares $labels labels (max $MAX_LABELS)"
  fi
done < <(grep -rnE '\.(Counter|Gauge|Histogram)Vec\("[a-z0-9_]+"(, *"[a-z0-9_]+")*\)' \
    --include='*.go' internal cmd | grep -v '_test\.go' \
  | sed -E 's/^([^:]+):([0-9]+):.*\.(Counter|Gauge|Histogram)Vec(\(("[a-z0-9_]+"(, *)?)+\)).*/\1:\2:\4/')

# --- 4: one registration site per name ---------------------------------------
while read -r n name; do
  [ -n "$name" ] || continue
  err "metric '$name' is registered at $n sites ($(grep "^$name " <<<"$code_sites" | cut -d' ' -f2 | sort -u | tr '\n' ' ')) — resolve the handle once"
done < <(echo "$code_sites" | cut -d' ' -f1 | sort | uniq -c | awk '$1 > 1')

# --- 5: the name is one string literal ---------------------------------------
# Each call up to its first ',' or ')' must be exactly `.Kind("name")` or
# `.Kind("name",`; a concatenation or a variable is not. internal/obs is the
# registry itself, whose plain lookups forward their name.
while IFS=: read -r file line call; do
  err "$file:$line: '$call' — a metric name is one string literal; put the dimension in a label"
done < <(grep -rnoE '\.(Counter|Gauge|Histogram)(Vec)?\([^,)]*[,)]?' --include='*.go' internal cmd \
  | grep -v -e '_test\.go:' -e '^internal/obs/' | grep -vE ':\.(Counter|Gauge|Histogram)(Vec)?\("[a-z0-9_]+" *[,)]$' || true)

if [ "$fail" = 0 ]; then
  n_code=$(echo "$code_names" | wc -l)
  n_doc=$(echo "$doc_names" | wc -l)
  echo "metrics-lint: OK ($n_code code metrics, $n_doc documented, labels <= $MAX_LABELS)"
fi
exit "$fail"
