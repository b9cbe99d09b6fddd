#!/usr/bin/env bash
# Failover smoke for per-range WAL replication (internal/walog streaming +
# cmd/tabledserver -replicate-from + internal/cluster failover routing +
# cmd/tabledrouter live spec reload): boot three race-built primaries, a
# follower replicating each, and a race-built router fronting them via a
# spec file, then
#
#   1. drive a -seq ack-logged load through the router and SIGKILL
#      primary-1 mid-run (primaries run semi-sync: -repl-ack holds write
#      acks until the follower durably replicated them, so every acked
#      cell survives the kill by construction); every primary must have
#      served pull exchanges on its upgraded replication connection
#      (primary-1 just before its kill, the others after the load);
#   2. promote follower-1 (POST /v1/promote) and time how long the router
#      takes to observe the role change and resume writes on the range —
#      the promote latency lands in BENCH_failover.json;
#   3. -check the FULL ack log through the router: zero acked-write loss,
#      including every cell acked on the killed primary's range;
#   4. rewrite the spec file making follower-1 the range's base and SIGHUP
#      the router: the new topology must serve without a router restart;
#   5. SIGTERM everything still running — clean drains exit 0.
#
# Usage: scripts/failover_smoke.sh   (from the repo root; builds with -race)
set -u

BASE_PORT="${FAILOVER_PORT:-18121}"   # primaries BASE..BASE+2, followers BASE+10..BASE+12
ROUTER_PORT=$((BASE_PORT + 20))
ROWS=512 COLS=512
SEQ_OPS="${FAILOVER_SEQ_OPS:-60000}"
SEQ_ROWS=$((SEQ_OPS / COLS))
MAX_ADDR=$(( (SEQ_ROWS + COLS - 1) * (SEQ_ROWS + COLS - 2) / 2 + COLS ))

DIR="$(mktemp -d)"
PIDS=()
trap 'for p in "${PIDS[@]:-}"; do kill -9 "$p" 2>/dev/null; done; rm -rf "$DIR"' EXIT

echo "failover-smoke: building (servers and router with -race)"
go build -race -o "$DIR/tabledserver" ./cmd/tabledserver || exit 1
go build -race -o "$DIR/tabledrouter" ./cmd/tabledrouter || exit 1
go build -o "$DIR/tabledload" ./cmd/tabledload || exit 1

wait_ready() { # url name
    for _ in $(seq 1 100); do
        curl -fsS "$1" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    echo "failover-smoke: FAIL: $2 did not become ready"
    cat "$DIR"/*.log
    return 1
}

declare -a PRIMARY_PIDS=() FOLLOWER_PIDS=()
for i in 0 1 2; do
    PPORT=$((BASE_PORT + i))
    FPORT=$((BASE_PORT + 10 + i))
    "$DIR/tabledserver" -addr "127.0.0.1:$PPORT" -mapping diagonal -shards 8 \
        -rows "$ROWS" -cols "$COLS" -wal "$DIR/primary-$i.wal" -repl-ack 10s \
        >"$DIR/primary-$i.log" 2>&1 &
    PRIMARY_PIDS[$i]=$!
    PIDS+=("${PRIMARY_PIDS[$i]}")
    "$DIR/tabledserver" -addr "127.0.0.1:$FPORT" -mapping diagonal -shards 8 \
        -rows "$ROWS" -cols "$COLS" -wal "$DIR/follower-$i.wal" \
        -replicate-from "http://127.0.0.1:$PPORT" >"$DIR/follower-$i.log" 2>&1 &
    FOLLOWER_PIDS[$i]=$!
    PIDS+=("${FOLLOWER_PIDS[$i]}")
done
for i in 0 1 2; do
    wait_ready "http://127.0.0.1:$((BASE_PORT + i))/healthz" "primary-$i" || exit 1
    # Followers are degraded (read-only) by design: probe liveness, not readiness.
    wait_ready "http://127.0.0.1:$((BASE_PORT + 10 + i))/healthz" "follower-$i" || exit 1
done

# Spec file: the EvenSpec split (scripts stay in lockstep with the -nodes
# quick-start) plus a replica per range.
SPEC="$DIR/spec.json"
python3 - "$BASE_PORT" "$MAX_ADDR" >"$SPEC" <<'EOF' || exit 1
import json, sys
base_port, max_addr = int(sys.argv[1]), int(sys.argv[2])
span = max_addr // 3
nodes, lo = [], 1
for i in range(3):
    hi = 1 << 40 if i == 2 else lo + span
    nodes.append({"name": f"node-{i}", "base": f"http://127.0.0.1:{base_port + i}",
                  "replica": f"http://127.0.0.1:{base_port + 10 + i}", "lo": lo, "hi": hi})
    lo = hi
json.dump({"mapping": "diagonal", "nodes": nodes}, sys.stdout, indent=1)
EOF

"$DIR/tabledrouter" -addr "127.0.0.1:$ROUTER_PORT" -spec "$SPEC" \
    -retries 5 -health-every 250ms -spec-poll 1s >"$DIR/router.log" 2>&1 &
ROUTER_PID=$!
PIDS+=("$ROUTER_PID")
wait_ready "http://127.0.0.1:$ROUTER_PORT/readyz" router || exit 1
echo "failover-smoke: 3 semi-sync primaries + 3 followers + router up"

# --- 1. SIGKILL primary-1 mid-load --------------------------------------
ACKLOG="$DIR/acked.log"
echo "failover-smoke: seq load with ack log, killing primary-1 mid-run"
"$DIR/tabledload" -addr "http://127.0.0.1:$ROUTER_PORT" -seq -acklog "$ACKLOG" \
    -clients 4 -batch 64 -ops "$SEQ_OPS" -rows "$ROWS" -cols "$COLS" \
    -retries 5 >"$DIR/seqload.log" 2>&1 &
LOAD_PID=$!
for _ in $(seq 1 200); do
    [ -f "$ACKLOG" ] && [ "$(wc -l <"$ACKLOG")" -ge 15000 ] && break
    kill -0 "$LOAD_PID" 2>/dev/null || break
    sleep 0.1
done
# Every follower must have pulled over its upgraded replication connection
# (docs/WIRE.md §8): a primary that served the load without a single pull
# exchange means replication went some other way.
check_repl_exchanges() { # primary index
    N=$(curl -fsS "http://127.0.0.1:$((BASE_PORT + $1))/metrics" |
        awk '$1 ~ /^http_requests_total\{/ && /path="\/v1\/repl\/frames"/ && /code="2xx"/ {n += $2} END {print n + 0}')
    if [ "$N" -le 0 ]; then
        echo "failover-smoke: FAIL: primary-$1 served no pull exchanges on /v1/repl/conn (http_requests_total{path=\"/v1/repl/frames\",code=\"2xx\"}=$N)"
        return 1
    fi
    echo "failover-smoke: primary-$1 served $N pull exchanges on its replication connection"
}
check_repl_exchanges 1 || exit 1
kill -9 "${PRIMARY_PIDS[1]}" 2>/dev/null
KILL_AT_LINES=$( (wc -l <"$ACKLOG") 2>/dev/null || echo 0)
echo "failover-smoke: SIGKILL primary-1 after $KILL_AT_LINES acked cells"

# --- 2. promote follower-1, router must observe it live ------------------
# Wait until the router's checker has marked the primary down, so the
# timed window is promote→failover, not detection of the kill itself.
for _ in $(seq 1 40); do
    curl -fsS "http://127.0.0.1:$ROUTER_PORT/readyz" 2>/dev/null | grep -q "node-1 down" && break
    sleep 0.25
done
PROMOTE_NS=$(date +%s%N)
curl -fsS -X POST "http://127.0.0.1:$((BASE_PORT + 11))/v1/promote" >/dev/null || {
    echo "failover-smoke: FAIL: promote request refused"; exit 1; }
FAILED_OVER=0
for _ in $(seq 1 80); do
    if curl -fsS "http://127.0.0.1:$ROUTER_PORT/v1/cluster" 2>/dev/null \
        | grep -q '"replica_promoted":true'; then FAILED_OVER=1; break; fi
    sleep 0.05
done
PROMOTED_NS=$(date +%s%N)
if [ "$FAILED_OVER" != 1 ]; then
    echo "failover-smoke: FAIL: router never observed the promotion"
    curl -fsS "http://127.0.0.1:$ROUTER_PORT/v1/cluster" || true
    exit 1
fi
PROMOTE_MS=$(( (PROMOTED_NS - PROMOTE_NS) / 1000000 ))
echo "failover-smoke: router observed promotion in ${PROMOTE_MS}ms"
wait "$LOAD_PID"
echo "failover-smoke: seq load exit $? ($(wc -l <"$ACKLOG") cells acked)"
tail -2 "$DIR/seqload.log"
for i in 0 2; do check_repl_exchanges "$i" || exit 1; done
printf '{"bench":"failover_promote","promote_ms":%d,"acked_cells":%d,"kill_at":%d,"seq_ops":%d}\n' \
    "$PROMOTE_MS" "$(wc -l <"$ACKLOG")" "$KILL_AT_LINES" "$SEQ_OPS" >BENCH_failover.json

# --- 3. zero acked-write loss, killed range included ---------------------
# Semi-sync acks mean every logged cell reached follower-1's WAL before
# the client saw its 200: the FULL log must read back, no filtering.
if ! "$DIR/tabledload" -addr "http://127.0.0.1:$ROUTER_PORT" \
    -check "$ACKLOG" -batch 64 -retries 5 2>&1 | tail -1; then
    echo "failover-smoke: FAIL: acked writes lost across failover"
    exit 1
fi
echo "failover-smoke: every acked write read back through the failed-over router"

# --- 4. live spec reload: follower-1 becomes the range's base ------------
python3 - "$SPEC" "$((BASE_PORT + 11))" <<'EOF' || exit 1
import json, sys
path, fport = sys.argv[1], sys.argv[2]
spec = json.load(open(path))
spec["nodes"][1]["base"] = f"http://127.0.0.1:{fport}"
del spec["nodes"][1]["replica"]
json.dump(spec, open(path, "w"), indent=1)
EOF
kill -HUP "$ROUTER_PID"
RELOADED=0
for _ in $(seq 1 40); do
    if curl -fsS "http://127.0.0.1:$ROUTER_PORT/v1/cluster" 2>/dev/null \
        | grep -q "\"base\":\"http://127.0.0.1:$((BASE_PORT + 11))\""; then RELOADED=1; break; fi
    sleep 0.25
done
if [ "$RELOADED" != 1 ]; then
    echo "failover-smoke: FAIL: router did not absorb the edited spec"
    cat "$DIR/router.log" | tail -5
    exit 1
fi
if ! kill -0 "$ROUTER_PID" 2>/dev/null; then
    echo "failover-smoke: FAIL: router restarted/died during reload"
    exit 1
fi
# The promoted range serves reads and writes under the new spec.
BODY=$(curl -fsS -X POST "http://127.0.0.1:$ROUTER_PORT/v1/batch" \
    -H 'Content-Type: application/json' \
    -d '{"ops":[{"op":"set","x":1,"y":1,"v":"post-reload"},{"op":"get","x":1,"y":1}]}')
echo "$BODY" | grep -q '"v":"post-reload"' || {
    echo "failover-smoke: FAIL: post-reload write/read through router: $BODY"; exit 1; }
echo "failover-smoke: router absorbed the new spec without restart"

# --- 5. clean drains -----------------------------------------------------
for NAME in router primary-0 primary-2 follower-0 follower-1 follower-2; do
    case $NAME in
        router) P=$ROUTER_PID ;;
        primary-0) P=${PRIMARY_PIDS[0]} ;;
        primary-2) P=${PRIMARY_PIDS[2]} ;;
        follower-0) P=${FOLLOWER_PIDS[0]} ;;
        follower-1) P=${FOLLOWER_PIDS[1]} ;;
        follower-2) P=${FOLLOWER_PIDS[2]} ;;
    esac
    kill -TERM "$P" 2>/dev/null
    if ! wait "$P"; then
        echo "failover-smoke: FAIL: $NAME did not drain cleanly"
        exit 1
    fi
done
PIDS=()
echo "failover-smoke: PASS"
