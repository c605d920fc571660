#!/usr/bin/env bash
# benchcompare.sh — print per-benchmark deltas between two BENCH_<n>.json
# files produced by scripts/bench.sh.
#
# Usage: benchcompare.sh [--fail-over PCT] OLD.json NEW.json
#
# For every benchmark present in NEW, prints old/new ns_per_op and
# allocs_per_op with percentage deltas (negative = faster/leaner).
# Benchmarks present in only one file are printed as "added" / "removed",
# so a renamed or dropped benchmark never disappears silently from the
# trajectory. With --fail-over PCT, any benchmark whose ns/op or
# allocs/op regressed by more than PCT percent is flagged with "!" and
# the script exits nonzero. The last line reports how many benchmarks
# were compared. The awk join reads one benchmark object per line, so a
# pretty-printed file (BENCH_9.json) carries no values on its name lines
# and compares 0.
set -euo pipefail

failover=""
if [ "${1:-}" = "--fail-over" ]; then
	failover="${2:?--fail-over needs a percentage}"
	shift 2
fi
old="${1:?usage: benchcompare.sh [--fail-over PCT] OLD.json NEW.json}"
new="${2:?usage: benchcompare.sh [--fail-over PCT] OLD.json NEW.json}"

awk -v oldfile="$old" -v newfile="$new" -v failover="$failover" '
  function field(line, key,    rest) {
    if (match(line, "\"" key "\": [0-9.]+") == 0) return ""
    rest = substr(line, RSTART, RLENGTH)
    sub("\"" key "\": ", "", rest)
    return rest
  }
  function name(line,    rest) {
    if (match(line, "\"name\": \"[^\"]+\"") == 0) return ""
    rest = substr(line, RSTART, RLENGTH)
    sub(/"name": "/, "", rest)
    sub(/"$/, "", rest)
    return rest
  }
  function pct(o, n) {
    if (o == "" || o + 0 == 0) return "      -"
    return sprintf("%+6.1f%%", 100 * (n - o) / o)
  }
  function regressed(o, n) {
    return failover != "" && o != "" && n != "" && o + 0 > 0 && \
      100 * (n - o) / o > failover + 0
  }
  BEGIN {
    while ((getline line < oldfile) > 0) {
      nm = name(line)
      if (nm == "") continue
      oldOrder[oldN++] = nm
      oldNs[nm] = field(line, "ns_per_op")
      oldAllocs[nm] = field(line, "allocs_per_op")
    }
    close(oldfile)
    printf "%-42s %14s %14s %8s   %10s %10s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta"
    bad = 0
    while ((getline line < newfile) > 0) {
      nm = name(line)
      if (nm == "") continue
      seen[nm] = 1
      ns = field(line, "ns_per_op")
      al = field(line, "allocs_per_op")
      if (nm in oldNs) {
        if (oldNs[nm] != "" && ns != "") compared++
        flag = ""
        if (regressed(oldNs[nm], ns) || regressed(oldAllocs[nm], al)) {
          flag = " !"
          bad++
        }
        printf "%-42s %14s %14s %8s   %10s %10s %8s%s\n", nm, oldNs[nm], ns, pct(oldNs[nm], ns), \
          (oldAllocs[nm] == "" ? "-" : oldAllocs[nm]), (al == "" ? "-" : al), \
          (al == "" ? "      -" : pct(oldAllocs[nm], al)), flag
      } else {
        printf "%-42s %14s %14s %8s   %10s %10s %8s\n", nm, "-", ns, "added", "-", (al == "" ? "-" : al), "-"
      }
    }
    close(newfile)
    for (i = 0; i < oldN; i++) {
      nm = oldOrder[i]
      if (nm in seen) continue
      printf "%-42s %14s %14s %8s   %10s %10s %8s\n", nm, oldNs[nm], "-", "removed", \
        (oldAllocs[nm] == "" ? "-" : oldAllocs[nm]), "-", "-"
    }
    printf "benchcompare: compared %d benchmark(s) with ns/op in both files\n", compared
    if (bad > 0) {
      printf "benchcompare: %d benchmark(s) regressed more than %s%% (flagged \"!\")\n", bad, failover > "/dev/stderr"
      exit 1
    }
  }
' </dev/null
