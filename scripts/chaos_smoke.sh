#!/usr/bin/env bash
# Chaos smoke for the tabled durability contract: run a WAL-backed
# tabledserver under load, SIGKILL it mid-run, restart it, and assert that
# every write the server ACKNOWLEDGED is still readable with its exact
# value. Acked writes surviving a crash is the whole point of the WAL
# (internal/tabled/wal.go); this script is the end-to-end proof.
#
# Usage: scripts/chaos_smoke.sh   (from the repo root; builds with -race)
set -u

PORT="${CHAOS_PORT:-18081}"
DIR="$(mktemp -d)"
SRV_PID=""
trap '[ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null; rm -rf "$DIR"' EXIT

echo "chaos-smoke: building (server with -race)"
go build -race -o "$DIR/tabledserver" ./cmd/tabledserver || exit 1
go build -o "$DIR/tabledload" ./cmd/tabledload || exit 1

start_server() {
    "$DIR/tabledserver" -addr "127.0.0.1:$PORT" \
        -wal "$DIR/table.wal" \
        -snapshot "$DIR/table.gob" \
        -rows 2048 -cols 2048 >>"$DIR/server.log" 2>&1 &
    SRV_PID=$!
    for _ in $(seq 1 100); do
        if curl -fsS "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.2
    done
    echo "chaos-smoke: FAIL: server did not become healthy"
    cat "$DIR/server.log"
    exit 1
}

start_server
echo "chaos-smoke: server up (pid $SRV_PID); starting sequential load"
"$DIR/tabledload" -addr "http://127.0.0.1:$PORT" \
    -seq -acklog "$DIR/acked.log" -retries 5 \
    -clients 4 -batch 64 -ops 400000 -rows 2048 -cols 2048 \
    >"$DIR/load.log" 2>&1 &
LOAD_PID=$!

sleep 2
# Four clients must share fsyncs with no sync window: the WAL leads one
# fsync at a time and appends arriving meanwhile ride the next one.
METRICS=$(curl -fsS "http://127.0.0.1:$PORT/metrics")
APPENDS=$(echo "$METRICS" | awk '/^tabled_wal_appends_total /{print $2}')
SYNCS=$(echo "$METRICS" | awk '/^tabled_wal_syncs_total\{result="ok"\} /{print $2}')
echo "chaos-smoke: $APPENDS WAL appends, $SYNCS fsyncs before the kill"
if [ -z "$APPENDS" ] || [ -z "$SYNCS" ] || [ "$SYNCS" -ge "$APPENDS" ]; then
    echo "chaos-smoke: FAIL: concurrent appends did not share fsyncs"
    exit 1
fi
echo "chaos-smoke: SIGKILL server mid-load"
kill -9 "$SRV_PID"
SRV_PID=""
# The load generator now only sees connection errors; give its in-flight
# retries a moment to drain the acked-batch flushes, then kill it too —
# only the *acknowledged* prefix in acked.log matters, and each batch is
# flushed to the log before the next is issued. (The -check pass tolerates
# one torn final line from this kill.)
sleep 3
kill -9 "$LOAD_PID" 2>/dev/null
wait "$LOAD_PID" 2>/dev/null

ACKED=$(wc -l <"$DIR/acked.log" 2>/dev/null || echo 0)
if [ "$ACKED" -eq 0 ]; then
    echo "chaos-smoke: FAIL: no writes were acknowledged before the kill"
    cat "$DIR/load.log"
    exit 1
fi
echo "chaos-smoke: $ACKED cells acknowledged; restarting server (snapshot + WAL replay)"

start_server
grep 'wal open' "$DIR/server.log" | tail -1

if ! "$DIR/tabledload" -addr "http://127.0.0.1:$PORT" \
    -check "$DIR/acked.log" -batch 256 -retries 3; then
    echo "chaos-smoke: FAIL: acknowledged writes were lost across the crash"
    exit 1
fi
echo "chaos-smoke: PASS"
