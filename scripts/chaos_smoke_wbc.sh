#!/usr/bin/env bash
# Chaos smoke for the WBC durability + self-healing contract: run a
# journaled wbcserver under volunteer load, SIGKILL it mid-run, restart
# it, and assert (a) every submission a volunteer saw ACKNOWLEDGED is
# still attributed to that volunteer after recovery, and (b) a volunteer
# that stops heartbeating has its lease expired and its outstanding tasks
# reclaimed. Acked attribution surviving kill -9 is the whole point of
# the coordinator journal (internal/wbc/journal.go); this script is the
# end-to-end proof.
#
# Usage: scripts/chaos_smoke_wbc.sh   (from the repo root; builds with -race)
set -u

PORT="${CHAOS_WBC_PORT:-18091}"
URL="http://127.0.0.1:$PORT"
DIR="$(mktemp -d)"
SRV_PID=""
trap '[ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null; kill -9 $(jobs -p) 2>/dev/null; rm -rf "$DIR"' EXIT

echo "chaos-smoke-wbc: building (server with -race)"
go build -race -o "$DIR/wbcserver" ./cmd/wbcserver || exit 1
go build -o "$DIR/wbcvolunteer" ./cmd/wbcvolunteer || exit 1

start_server() {
    "$DIR/wbcserver" -addr "127.0.0.1:$PORT" \
        -wal "$DIR/wbc.wal" \
        -checkpoint "$DIR/wbc.ckpt" -checkpoint-every 2s \
        -lease 2s -audit 0 -seed 7 >>"$DIR/server.log" 2>&1 &
    SRV_PID=$!
    for _ in $(seq 1 100); do
        if curl -fsS "$URL/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.2
    done
    echo "chaos-smoke-wbc: FAIL: server did not become healthy"
    cat "$DIR/server.log"
    exit 1
}

start_server
echo "chaos-smoke-wbc: server up (pid $SRV_PID); starting volunteers"

# Four heartbeating volunteers, each appending an acklog line per
# acknowledged submit. -sleep paces them so the run spans the crash.
VOL_PIDS=""
for i in 1 2 3 4; do
    "$DIR/wbcvolunteer" -url "$URL" -tasks 2000 -depart=false \
        -heartbeat 500ms -sleep 20ms -retries 8 \
        -acklog "$DIR/ack.$i.log" >"$DIR/vol.$i.log" 2>&1 &
    VOL_PIDS="$VOL_PIDS $!"
done

sleep 3
echo "chaos-smoke-wbc: SIGKILL server mid-load"
kill -9 "$SRV_PID"
SRV_PID=""
# Volunteers now retry against a dead server; restart under them. Their
# acklogs hold only acknowledged (journaled + fsynced) submissions.
sleep 1

start_server
echo "chaos-smoke-wbc: server restarted (checkpoint + journal replay)"
grep 'journal open' "$DIR/server.log" | tail -1

# Let the surviving volunteers reconnect and keep working, then kill one
# mid-stream: its heartbeats stop, its lease must expire, and its
# outstanding task must be reclaimed and reissued to a survivor.
sleep 2
VICTIM=$(echo $VOL_PIDS | awk '{print $1}')
echo "chaos-smoke-wbc: killing volunteer pid $VICTIM (heartbeats stop)"
kill -9 "$VICTIM" 2>/dev/null

# Wait out > 2 lease periods for the sweeper.
sleep 5

RECLAIMED=$(curl -fsS "$URL/metrics" | awk '/^wbc_tasks_reclaimed_total/ {print $2}')
EXPIRED=$(curl -fsS "$URL/metrics" | awk '/^wbc_lease_expirations_total/ {print $2}')
echo "chaos-smoke-wbc: lease expirations=$EXPIRED tasks reclaimed=$RECLAIMED"
if [ -z "$EXPIRED" ] || [ "$EXPIRED" -lt 1 ]; then
    echo "chaos-smoke-wbc: FAIL: dead volunteer's lease never expired"
    exit 1
fi

# Stop the remaining volunteers before verification.
kill -9 $VOL_PIDS 2>/dev/null
wait $VOL_PIDS 2>/dev/null

ACKED=0
for i in 1 2 3 4; do
    n=$(wc -l <"$DIR/ack.$i.log" 2>/dev/null || echo 0)
    ACKED=$((ACKED + n))
done
if [ "$ACKED" -eq 0 ]; then
    echo "chaos-smoke-wbc: FAIL: no submissions were acknowledged before the kill"
    cat "$DIR"/vol.*.log
    exit 1
fi
echo "chaos-smoke-wbc: $ACKED submissions acknowledged across the crash; verifying attribution"

for i in 1 2 3 4; do
    [ -s "$DIR/ack.$i.log" ] || continue
    if ! "$DIR/wbcvolunteer" -url "$URL" -check "$DIR/ack.$i.log" -retries 3; then
        echo "chaos-smoke-wbc: FAIL: acknowledged submissions lost or mis-attributed (volunteer $i)"
        exit 1
    fi
done

# No double-applied reissue: every task index appears in at most one
# volunteer's acklog (each physical task is submittable exactly once;
# reclamation hands it to exactly one new owner).
DUPES=$(cat "$DIR"/ack.*.log | awk '{print $1}' | sort | uniq -d | wc -l)
if [ "$DUPES" -ne 0 ]; then
    echo "chaos-smoke-wbc: FAIL: $DUPES task(s) acknowledged to two volunteers (double-applied reissue)"
    exit 1
fi

echo "chaos-smoke-wbc: PASS"
