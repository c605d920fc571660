#!/usr/bin/env bash
# bench.sh — run the perf-tracking benchmarks and record BENCH_<n>.json.
#
# Usage: scripts/bench.sh [n] [--compare BENCH_<m>.json]
#   n                PR / trajectory index (default 10); output lands in BENCH_<n>.json
#   --compare FILE   after writing BENCH_<n>.json, print a per-benchmark
#                    delta table (ns/op and allocs/op) against FILE and
#                    exit nonzero if any benchmark regressed more than
#                    BENCH_FAIL_OVER percent (default 10) in either —
#                    the same gate CI's bench-smoke job applies to the
#                    recorded trajectory
#   BENCHTIME_BASE   -benchtime for the serial/parallel baselines (default 5x;
#                    these run up to ~13 s/op, so the count stays small)
#   BENCHCOUNT_BASE  how many fresh-process rounds the baseline group runs
#                    (default 3; the fastest run per benchmark is recorded)
#   BENCHTIME_BUILD  -benchtime for the incremental/sharded engine pair
#                    (default 10x)
#   BENCHCOUNT_BUILD how many alternating-order process rounds the engine pair
#                    runs (default 4; the fastest run per benchmark is recorded,
#                    which is robust to background interference)
#   BENCHTIME_QUOTE  -benchtime for the quote-path group (default 2s; these
#                    run in microseconds, so time-based sampling gives the
#                    thousands of iterations a stable number needs)
#   BENCHCOUNT_QUOTE how many fresh-process rounds the quote group runs
#                    (default 3; the fastest run per benchmark is recorded,
#                    so one slow host phase cannot poison the whole group)
#   BENCHFILTER_BASE / BENCHFILTER_QUOTE  override those group regexps
#   LOADRATE / LOADDUR / LOADCOUNT  the SLO load group: offered rate
#                    (default 300 req/s), duration per round (default 4s)
#                    and rounds per experiment (default 2; fastest per
#                    entry recorded; 0 skips the group) of
#                    `pricebench -experiment <exp> -slo` for each serving
#                    profile — load (the default mix), ingest (update-heavy,
#                    half the update bodies inserts) and compact (the
#                    delete-heavy mix through auto-compaction epochs, plus
#                    end-of-run slot counts with and without compaction) —
#                    whose slo_<exp>/* lines land in the JSON alongside the
#                    microbenchmarks (docs/LOAD.md)
#
# The tracked set pins the conflict-set engine: hypergraph construction
# (serial vs parallel vs incremental vs sharded), the online conflict-set
# path (cold/warm at |S|=150, single-shard and sharded at |S|=10k), batch
# quoting (serial vs pooled), and the live-update path (update latency +
# post-update requote). When a benchmark appears several times
# (construction runs -count times), the fastest run is recorded.
set -euo pipefail
cd "$(dirname "$0")/.."

n="10"
compare=""
while [ $# -gt 0 ]; do
	case "$1" in
	--compare)
		compare="${2:?--compare needs a file}"
		shift 2
		;;
	*)
		n="$1"
		shift
		;;
	esac
done
basetime="${BENCHTIME_BASE:-5x}"
basecount="${BENCHCOUNT_BASE:-3}"
buildtime="${BENCHTIME_BUILD:-10x}"
buildcount="${BENCHCOUNT_BUILD:-4}"
quotetime="${BENCHTIME_QUOTE:-2s}"
quotecount="${BENCHCOUNT_QUOTE:-3}"
basefilter="${BENCHFILTER_BASE:-BenchmarkFig4Construction/.*/(serial|parallel)$}"
quotefilter="${BENCHFILTER_QUOTE:-BenchmarkConflictSet|BenchmarkQuoteBatch|BenchmarkUpdateRequote}"
loadrate="${LOADRATE:-300}"
loaddur="${LOADDUR:-4s}"
loadcount="${LOADCOUNT:-2}"
out="BENCH_${n}.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# Three groups, one sampling principle — every group runs in several
# fresh processes and the fastest run per benchmark is recorded, which is
# robust to background host interference: the pre-incremental baselines
# run up to ~13 s/op, so they get a small fixed count per round; the
# tracked engine variants are cheap, so they alternate the
# incremental/sharded order across rounds so machine-load drift hits both
# sides equally; the quote-path benches run in microseconds, so they
# sample time-based within each round.
: > "$raw"
for i in $(seq "$basecount"); do
	go test -run '^$' -bench "$basefilter" -benchtime "$basetime" . | tee -a "$raw"
done
for i in $(seq "$buildcount"); do
	if [ $((i % 2)) -eq 1 ]; then
		go test -run '^$' -bench 'BenchmarkFig4Construction/.*/incremental$' -benchtime "$buildtime" . | tee -a "$raw"
		go test -run '^$' -bench 'BenchmarkFig4Construction/.*/sharded$' -benchtime "$buildtime" . | tee -a "$raw"
	else
		go test -run '^$' -bench 'BenchmarkFig4Construction/.*/sharded$' -benchtime "$buildtime" . | tee -a "$raw"
		go test -run '^$' -bench 'BenchmarkFig4Construction/.*/incremental$' -benchtime "$buildtime" . | tee -a "$raw"
	fi
done
for i in $(seq "$quotecount"); do
	go test -run '^$' -bench "$quotefilter" -benchtime "$quotetime" . | tee -a "$raw"
done
# The SLO load group: the full serving stack (internal/serve over
# httptest) under open-loop traffic, once per serving profile;
# pricebench prints its latency-percentile results as Benchmark-format
# lines, so the same awk ingests them as slo_<exp>/* entries.
for exp in load ingest compact; do
	for i in $(seq "$loadcount"); do
		go run ./cmd/pricebench -experiment "$exp" -rate "$loadrate" -duration "$loaddur" -slo | tee -a "$raw"
	done
done

awk -v pr="$n" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
  /^goos:/   { goos = $2 }
  /^goarch:/ { goarch = $2 }
  /^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
  /^Benchmark/ && / ns\/op/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)
    iters = $2
    ns = $3 + 0
    bytes = ""; allocs = ""
    for (i = 4; i < NF; i++) {
      if ($(i + 1) == "B/op")      bytes = $i
      if ($(i + 1) == "allocs/op") allocs = $i
    }
    if (!(name in best) || ns < best[name]) {
      if (!(name in best)) order[nb++] = name
      best[name] = ns
      bestIters[name] = iters
      bestBytes[name] = bytes
      bestAllocs[name] = allocs
    }
  }
  END {
    printf "{\n"
    printf "  \"pr\": %s,\n", pr
    printf "  \"date\": \"%s\",\n", date
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < nb; i++) {
      name = order[i]
      line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %.0f", name, bestIters[name], best[name])
      if (bestBytes[name] != "")  line = line sprintf(", \"bytes_per_op\": %s", bestBytes[name])
      if (bestAllocs[name] != "") line = line sprintf(", \"allocs_per_op\": %s", bestAllocs[name])
      line = line "}"
      printf "%s%s\n", line, (i < nb - 1 ? "," : "")
    }
    printf "  ]\n"
    printf "}\n"
  }
' "$raw" > "$out"

echo "wrote $out"

if [ -n "$compare" ]; then
	scripts/benchcompare.sh --fail-over "${BENCH_FAIL_OVER:-10}" "$compare" "$out"
fi
