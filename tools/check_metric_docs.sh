#!/usr/bin/env bash
# check_metric_docs.sh — fail when docs/OBSERVABILITY.md drifts from the
# metric names actually registered in src/.
#
# Extracts every counter/gauge/latency name from src/ — a metric is
# written only through a string-literal key at the call site,
# `counter<"a.b">()` / `gauge<"a.b">()` / `latency<"a.b">()` (obs/metrics.hpp)
# — plus the rbay.health.* self-published attribute names, and requires
# each to appear verbatim in docs/OBSERVABILITY.md.  The other direction
# too: every metric name in a row of the doc's metric table (the rows
# whose Kind column is counter, gauge or histogram) must be registered in
# src/, so a row outliving its metric fails.  Run from anywhere;
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

# Metric table rows: | Scope | `a.b` / `c.d` | Kind | Meaning |.
documented=$(
  awk -F'|' 'NF >= 6 && $4 ~ /^ *(counter|gauge|histogram) *$/ { print $3 }' "$doc" |
    grep -oE '`[^`]+`' | tr -d '`' | sort -u
)

stale=0
while IFS= read -r name; do
  [[ -n "$name" ]] || continue
  if ! grep -qxF "$name" <<<"$names"; then
    echo "check_metric_docs: '$name' has a row in docs/OBSERVABILITY.md but is not registered in src/" >&2
    stale=$((stale + 1))
  fi
done <<<"$documented"

total=$(wc -l <<<"$names")
rows=$(wc -l <<<"$documented")
if [[ "$missing" -gt 0 || "$stale" -gt 0 ]]; then
  echo "check_metric_docs: $missing of $total metric names undocumented," \
    "$stale of $rows documented names unregistered" >&2
  exit 1
fi
echo "check_metric_docs: all $total metric names documented, all $rows documented names registered"
