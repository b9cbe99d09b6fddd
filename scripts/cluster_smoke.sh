#!/usr/bin/env bash
# Cluster smoke for the tabledcluster stack (internal/cluster +
# cmd/tabledrouter): boot three race-built tabledserver members and a
# race-built router fronting them, then
#
#   1. bench the router against a standalone single node driving the same
#      load (both JSON report lines land in BENCH_cluster.json — the line
#      with a "nodes" field is the router's), and require every member's
#      tabled_conn_exchanges_total to be nonzero — the routed load must
#      have travelled the upgraded member wire;
#   2. drive a -seq ack-logged load through the router and SIGKILL one
#      member mid-load;
#   3. assert the router's /readyz detail reports the dead member while
#      staying 200 (healthy ranges must keep serving);
#   4. filter the ack log to the ranges of members still healthy (range
#      map and states from GET /v1/cluster) and -check it through the
#      router: zero acked-write loss on surviving nodes;
#   5. SIGTERM the router and surviving members — clean drains exit 0.
#
# The cluster runs the diagonal mapping so the filter can recompute every
# cell's address: addr(x,y) = (x+y−1)(x+y−2)/2 + y.
#
# Usage: scripts/cluster_smoke.sh   (from the repo root; builds with -race)
set -u

BASE_PORT="${CLUSTER_PORT:-18091}"   # members take BASE..BASE+2
ROUTER_PORT=$((BASE_PORT + 4))
DIRECT_PORT=$((BASE_PORT + 5))
ROWS=512 COLS=512
BENCH_OPS="${CLUSTER_BENCH_OPS:-60000}"
SEQ_OPS="${CLUSTER_SEQ_OPS:-100000}"
# Split the address space the -seq load actually covers (its first
# SEQ_OPS/COLS rows) across the members, so every node holds acked cells
# by the time one is killed; the last node absorbs everything past it.
SEQ_ROWS=$((SEQ_OPS / COLS))
MAX_ADDR=$(( (SEQ_ROWS + COLS - 1) * (SEQ_ROWS + COLS - 2) / 2 + COLS ))

DIR="$(mktemp -d)"
PIDS=()
trap 'for p in "${PIDS[@]:-}"; do kill -9 "$p" 2>/dev/null; done; rm -rf "$DIR"' EXIT

echo "cluster-smoke: building (servers and router with -race)"
go build -race -o "$DIR/tabledserver" ./cmd/tabledserver || exit 1
go build -race -o "$DIR/tabledrouter" ./cmd/tabledrouter || exit 1
go build -o "$DIR/tabledload" ./cmd/tabledload || exit 1

wait_ready() { # url name
    for _ in $(seq 1 100); do
        curl -fsS "$1" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    echo "cluster-smoke: FAIL: $2 did not become ready"
    cat "$DIR"/*.log
    return 1
}

NODES=""
declare -a NODE_PIDS=()
for i in 0 1 2; do
    PORT=$((BASE_PORT + i))
    "$DIR/tabledserver" -addr "127.0.0.1:$PORT" -mapping diagonal -shards 8 \
        -rows "$ROWS" -cols "$COLS" >"$DIR/node-$i.log" 2>&1 &
    NODE_PIDS[$i]=$!
    PIDS+=("${NODE_PIDS[$i]}")
    NODES="$NODES${NODES:+,}http://127.0.0.1:$PORT"
done
for i in 0 1 2; do
    wait_ready "http://127.0.0.1:$((BASE_PORT + i))/readyz" "node-$i" || exit 1
done

"$DIR/tabledrouter" -addr "127.0.0.1:$ROUTER_PORT" -nodes "$NODES" \
    -mapping diagonal -max-addr "$MAX_ADDR" -retries 5 \
    -health-every 250ms >"$DIR/router.log" 2>&1 &
ROUTER_PID=$!
PIDS+=("$ROUTER_PID")
wait_ready "http://127.0.0.1:$ROUTER_PORT/readyz" router || exit 1

"$DIR/tabledserver" -addr "127.0.0.1:$DIRECT_PORT" -mapping diagonal -shards 8 \
    -rows "$ROWS" -cols "$COLS" >"$DIR/direct.log" 2>&1 &
DIRECT_PID=$!
PIDS+=("$DIRECT_PID")
wait_ready "http://127.0.0.1:$DIRECT_PORT/readyz" direct-node || exit 1
echo "cluster-smoke: 3 members + router + direct baseline up"

# --- 1. router vs direct single-node throughput -------------------------
: >BENCH_cluster.json
for TARGET in "http://127.0.0.1:$DIRECT_PORT" "http://127.0.0.1:$ROUTER_PORT"; do
    EXTRA=""
    [ "$TARGET" = "http://127.0.0.1:$ROUTER_PORT" ] && EXTRA="-nodes"
    echo "cluster-smoke: driving $BENCH_OPS ops at $TARGET"
    if ! "$DIR/tabledload" -addr "$TARGET" -wire binary $EXTRA \
        -clients 4 -batch 128 -ops "$BENCH_OPS" -rows "$ROWS" -cols "$COLS" \
        -seed 1 -json >>BENCH_cluster.json 2>"$DIR/bench.log"; then
        echo "cluster-smoke: FAIL: bench run at $TARGET errored"
        cat "$DIR/bench.log"
        exit 1
    fi
    grep 'ops/s' "$DIR/bench.log" | tail -1
done

# The router must have reached every member over upgraded connections
# (docs/WIRE.md §7): a member that served the routed load without a single
# exchange means sub-batches went some other way.
for i in 0 1 2; do
    N=$(curl -fsS "http://127.0.0.1:$((BASE_PORT + i))/metrics" |
        awk '$1 == "tabled_conn_exchanges_total" {print $2}')
    if [ -z "$N" ] || [ "$N" -le 0 ]; then
        echo "cluster-smoke: FAIL: node-$i served no upgraded-connection exchanges (tabled_conn_exchanges_total=${N:-missing})"
        exit 1
    fi
    echo "cluster-smoke: node-$i served $N exchanges on upgraded connections"
done

# --- 2. SIGKILL a member mid-load ---------------------------------------
ACKLOG="$DIR/acked.log"
echo "cluster-smoke: seq load with ack log, killing node-1 mid-run"
"$DIR/tabledload" -addr "http://127.0.0.1:$ROUTER_PORT" -seq -acklog "$ACKLOG" \
    -clients 4 -batch 64 -ops "$SEQ_OPS" -rows "$ROWS" -cols "$COLS" \
    -retries 5 >"$DIR/seqload.log" 2>&1 &
LOAD_PID=$!
# Wait until the run is demonstrably mid-flight (acks from all ranges).
for _ in $(seq 1 200); do
    [ -f "$ACKLOG" ] && [ "$(wc -l <"$ACKLOG")" -ge 20000 ] && break
    kill -0 "$LOAD_PID" 2>/dev/null || break
    sleep 0.1
done
kill -9 "${NODE_PIDS[1]}" 2>/dev/null
KILL_AT_LINES=$( (wc -l <"$ACKLOG") 2>/dev/null || echo 0)
echo "cluster-smoke: SIGKILL node-1 after $KILL_AT_LINES acked cells"
wait "$LOAD_PID"
LOAD_RC=$?
tail -2 "$DIR/seqload.log"
# Errors are EXPECTED: writes to the dead range fail until the run ends.
echo "cluster-smoke: seq load exit $LOAD_RC ($(wc -l <"$ACKLOG") cells acked)"

# --- 3. router reports the dead member, but keeps serving ---------------
DETECTED=0
for _ in $(seq 1 40); do
    BODY=$(curl -fsS "http://127.0.0.1:$ROUTER_PORT/readyz" 2>/dev/null)
    if echo "$BODY" | grep -q "node-1 down"; then DETECTED=1; break; fi
    sleep 0.25
done
if [ "$DETECTED" != 1 ]; then
    echo "cluster-smoke: FAIL: /readyz never reported node-1 down"
    curl -fsS "http://127.0.0.1:$ROUTER_PORT/readyz" || true
    exit 1
fi
echo "cluster-smoke: router /readyz 200 with degraded membership: $(curl -fsS "http://127.0.0.1:$ROUTER_PORT/readyz")"

# --- 4. zero acked-write loss on surviving ranges -----------------------
python3 - "$ROUTER_PORT" "$ACKLOG" "$DIR/survivors.log" <<'EOF' || exit 1
import json, sys, urllib.request

port, acklog, out = sys.argv[1], sys.argv[2], sys.argv[3]
with urllib.request.urlopen(f"http://127.0.0.1:{port}/v1/cluster") as resp:
    cluster = json.load(resp)
healthy = [(n["lo"], n["hi"]) for n in cluster["nodes"] if n["state"] == "healthy"]
dead = [n["name"] for n in cluster["nodes"] if n["state"] != "healthy"]
assert dead == ["node-1"], f"unexpected unhealthy set {dead}"

def addr(x, y):  # diagonal mapping
    return (x + y - 1) * (x + y - 2) // 2 + y

kept = dropped = 0
with open(acklog) as f, open(out, "w") as o:
    for line in f:
        parts = line.split()
        if len(parts) != 3:
            continue  # torn final line: unacknowledged, not lost
        a = addr(int(parts[0]), int(parts[1]))
        if any(lo <= a < hi for lo, hi in healthy):
            o.write(line)
            kept += 1
        else:
            dropped += 1
assert kept > 0, "no acked cells on surviving ranges -- kill happened too early"
assert dropped > 0, "no acked cells on the killed range -- kill happened too late"
print(f"cluster-smoke: {kept} acked cells on surviving ranges, {dropped} on the dead one")
EOF

if ! "$DIR/tabledload" -addr "http://127.0.0.1:$ROUTER_PORT" \
    -check "$DIR/survivors.log" -batch 64 -retries 5 2>&1 | tail -1; then
    echo "cluster-smoke: FAIL: acked writes lost on surviving nodes"
    exit 1
fi

# --- 5. clean drains -----------------------------------------------------
for NAME in router node-0 node-2 direct; do
    case $NAME in
        router) P=$ROUTER_PID ;;
        node-0) P=${NODE_PIDS[0]} ;;
        node-2) P=${NODE_PIDS[2]} ;;
        direct) P=$DIRECT_PID ;;
    esac
    kill -TERM "$P" 2>/dev/null
    if ! wait "$P"; then
        echo "cluster-smoke: FAIL: $NAME did not drain cleanly"
        exit 1
    fi
done
PIDS=()
echo "cluster-smoke: PASS"
