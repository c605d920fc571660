#!/usr/bin/env bash
# Restart smoke test: boot marketd with a data directory, take a quote,
# kill the server mid-flight (SIGKILL — no graceful snapshot), boot a
# second instance on the same directory, and assert it reports
# restored=true and returns the byte-identical quote. This is the
# docs/OPERATIONS.md contract exercised against the real binary, real
# files and real signals (the in-process version lives in
# cmd/marketd/main_test.go and internal/store/fault_test.go).
#
# Usage: scripts/restartsmoke.sh [port]
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-18080}"
DIR="$(mktemp -d)"
BIN="$DIR/marketd"
PID=""
trap 'test -n "$PID" && kill -9 "$PID" 2>/dev/null || true; rm -rf "$DIR"' EXIT

QUERY='{"Name":"q","Tables":["Country"],"Where":[{"Col":{"Table":"Country","Col":"Continent"},"Op":0,"Val":{"K":3,"S":"Asia"}}],"Select":[{"Table":"Country","Col":"Name"}]}'
UPDATE='[{"Table":"Country","Row":3,"Col":2,"New":{"K":3,"S":"Europe"}}]'
# A mixed DML batch — one row insert (slot assigned server-side) and one
# row delete — so the crash leaves insert/delete WAL records behind and
# the second boot proves they replay exactly-once.
DML='[{"Table":"City","Row":-1,"Op":"insert","Vals":[{"K":1,"I":90001},{"K":3,"S":"Newtown"},{"K":3,"S":"AAA"},{"K":3,"S":"Central"},{"K":1,"I":12345}]},{"Table":"City","Row":7,"Op":"delete"}]'

wait_ready() {
  for _ in $(seq 1 100); do
    if curl -fsS "http://localhost:$PORT/readyz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.2
  done
  echo "restartsmoke: server never became ready on :$PORT" >&2
  exit 1
}

go build -o "$BIN" ./cmd/marketd

echo "== boot 1: bootstrap + calibrate =="
"$BIN" -addr ":$PORT" -data-dir "$DIR/data" -support 60 -shards 2 &
PID=$!
wait_ready

# A cell update, a DML batch (insert + delete) and a purchase, so the
# second boot must replay durable WAL records of every kind (update,
# receipt, and the compact record below), not just reread the initial
# snapshot.
curl -fsS -XPOST -d "$UPDATE" "http://localhost:$PORT/update" >/dev/null
curl -fsS -XPOST -d "$DML" "http://localhost:$PORT/update" >/dev/null
curl -fsS -XPOST -d "$QUERY" "http://localhost:$PORT/purchase?budget=1e18" >/dev/null

# The DML batch tombstoned City row 7 — compact explicitly so the crash
# also leaves a durable compaction-epoch WAL record behind, proving the
# second boot replays the epoch (or absorbs it via snapshot) and still
# quotes byte-identically on renumbered slots.
echo "== compaction epoch over HTTP =="
COMPACT="$(curl -fsS -XPOST "http://localhost:$PORT/compact")"
case "$COMPACT" in
  *'"compacted":true'*) echo "compact: $COMPACT" ;;
  *) echo "restartsmoke: POST /compact reclaimed nothing: $COMPACT" >&2; exit 1 ;;
esac

QUOTE1="$(curl -fsS -XPOST -d "$QUERY" "http://localhost:$PORT/quote")"
echo "quote: $QUOTE1"

echo "== crash (SIGKILL, no graceful snapshot) =="
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "== boot 2: recover from $DIR/data =="
"$BIN" -addr ":$PORT" -data-dir "$DIR/data" -support 60 -shards 2 &
PID=$!
wait_ready

READY="$(curl -fsS "http://localhost:$PORT/readyz")"
case "$READY" in
  *'"restored":true'*) ;;
  *) echo "restartsmoke: second boot did not restore: $READY" >&2; exit 1 ;;
esac

# The lifetime epoch counter must survive the crash (via the WAL epoch
# record or a snapshot that absorbed it).
STATS="$(curl -fsS "http://localhost:$PORT/stats")"
case "$STATS" in
  *'"compactions":1'*) ;;
  *) echo "restartsmoke: second boot lost the compaction epoch: $STATS" >&2; exit 1 ;;
esac

QUOTE2="$(curl -fsS -XPOST -d "$QUERY" "http://localhost:$PORT/quote")"
if [ "$QUOTE1" != "$QUOTE2" ]; then
  echo "restartsmoke: quotes differ across restart" >&2
  echo "  before: $QUOTE1" >&2
  echo "  after:  $QUOTE2" >&2
  exit 1
fi

kill -TERM "$PID"
wait "$PID" 2>/dev/null || true
PID=""
echo "restartsmoke: ok (byte-identical quote after crash + restart)"
