#!/usr/bin/env bash
# Rewrites EXPERIMENTS.md from "## Appendix" to the end with one benchharness run (full model, ~10 min).
set -euo pipefail
cd "$(dirname "$0")/.."
out=$(go run ./cmd/benchharness -exp all -workers 1)
sed -i '/^## Appendix/,$d' EXPERIMENTS.md
cat >> EXPERIMENTS.md <<END
## Appendix — measured output

Verbatim stdout of \`go run ./cmd/benchharness -exp all -workers 1\` at commit $(git describe --always --dirty) on $(date -u +%F), written by \`scripts/regen_appendix.sh\`; \`TestAppendixMatchesCode\` holds the deterministic blocks (table1, table2, fig2, fig8) to the code.

\`\`\`
$out
\`\`\`
END
