#!/usr/bin/env bash
# check_metric_docs.sh — fail when docs/OBSERVABILITY.md drifts from the
# metric names actually registered in src/.
#
# Extracts every counter/gauge/latency name from src/ — a metric is
# written only through a string-literal key at the call site,
# `counter<"a.b">()` / `gauge<"a.b">()` / `latency<"a.b">()` (obs/metrics.hpp)
# — plus the rbay.health.* self-published attribute names, and requires
# each to appear verbatim in docs/OBSERVABILITY.md.  Run from anywhere;
# tools/ci.sh runs it on every build.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
doc="$root/docs/OBSERVABILITY.md"

[[ -f "$doc" ]] || { echo "check_metric_docs: missing $doc" >&2; exit 1; }

names=$(
  {
    # Metric keys: counter<"a.b"> / gauge<"a.b"> / latency<"a.b">.
    grep -rhoE '(counter|gauge|latency)<"[a-z0-9._]+">' "$root/src" |
      grep -oE '"[^"]+"'
    # Self-published health attributes (aggregated through Scribe trees).
    grep -rhoE '"rbay\.health\.[a-z0-9_]+"' "$root/src" || true
  } | tr -d '"' | sort -u
)

missing=0
while IFS= read -r name; do
  [[ -n "$name" ]] || continue
  if ! grep -qF "$name" "$doc"; then
    echo "check_metric_docs: '$name' is registered in src/ but not documented in docs/OBSERVABILITY.md" >&2
    missing=$((missing + 1))
  fi
done <<<"$names"

total=$(wc -l <<<"$names")
if [[ "$missing" -gt 0 ]]; then
  echo "check_metric_docs: $missing of $total metric names undocumented" >&2
  exit 1
fi
echo "check_metric_docs: all $total metric names documented"
