#!/usr/bin/env bash
# Wire smoke for the binary batch protocol (docs/WIRE.md): boot a
# race-built tabledserver, drive the same load through the JSON wire and
# the binary wire (tabledload -wire), assert a binary-written cell reads
# back over JSON (cross-wire consistency on one endpoint), that a keyed
# JSON set retried as binary replays as binary, and FAIL if the
# binary wire is not faster than JSON — the regression gate for the
# zero-allocation batch path (EXPERIMENTS.md E26). Both JSON report lines
# are written to BENCH_wire.json for archiving.
#
# Usage: scripts/wire_smoke.sh   (from the repo root; builds with -race)
set -u

PORT="${WIRE_PORT:-18082}"
OPS="${WIRE_OPS:-100000}"
DIR="$(mktemp -d)"
SRV_PID=""
trap '[ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null; rm -rf "$DIR"' EXIT

echo "wire-smoke: building (server with -race)"
go build -race -o "$DIR/tabledserver" ./cmd/tabledserver || exit 1
go build -o "$DIR/tabledload" ./cmd/tabledload || exit 1

"$DIR/tabledserver" -addr "127.0.0.1:$PORT" -shards 16 \
    -rows 2048 -cols 2048 >"$DIR/server.log" 2>&1 &
SRV_PID=$!
for _ in $(seq 1 100); do
    curl -fsS "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1 && break
    sleep 0.2
done
if ! curl -fsS "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1; then
    echo "wire-smoke: FAIL: server did not become healthy"
    cat "$DIR/server.log"
    exit 1
fi
echo "wire-smoke: server up (pid $SRV_PID)"

: >BENCH_wire.json
for WIRE in json binary; do
    echo "wire-smoke: driving $OPS ops over the $WIRE wire"
    if ! "$DIR/tabledload" -addr "http://127.0.0.1:$PORT" -wire "$WIRE" \
        -clients 4 -batch 128 -ops "$OPS" -rows 2048 -cols 2048 -seed 1 \
        -json >>BENCH_wire.json 2>"$DIR/load-$WIRE.log"; then
        echo "wire-smoke: FAIL: $WIRE load run errored"
        cat "$DIR/load-$WIRE.log"
        exit 1
    fi
    tail -1 "$DIR/load-$WIRE.log"
done

# Cross-wire consistency: a cell written over the binary wire must read
# back over JSON, proving negotiation shares one table (and that the
# server's store copied the value out of its pooled request buffer).
python3 - "$PORT" <<'EOF' || exit 1
import json, sys, urllib.request

port = sys.argv[1]
url = f"http://127.0.0.1:{port}/v1/batch"

def frame(payload: bytes) -> bytes:
    import binascii, struct
    # CRC32-Castagnoli, bit-reflected (crc32c); computed via the 0x82F63B78
    # polynomial table below to avoid non-stdlib deps.
    table = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ 0x82F63B78 if c & 1 else c >> 1
        table.append(c)
    crc = 0xFFFFFFFF
    for b in payload:
        crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8)
    crc ^= 0xFFFFFFFF
    return struct.pack("<II", len(payload), crc) + payload

# version 1, 1 op: set x=77 y=88 value "cross-wire" (zigzag varints fit 1 byte)
val = b"cross-wire"
payload = bytes([1, 1, 1, 154, 1, 176, 1, len(val)]) + val
req = urllib.request.Request(url, data=frame(payload),
                             headers={"Content-Type": "application/x-tabled-batch"})
with urllib.request.urlopen(req) as resp:
    assert resp.headers["Content-Type"] == "application/x-tabled-batch", resp.headers["Content-Type"]
    resp.read()

jreq = urllib.request.Request(url, data=json.dumps(
    {"ops": [{"op": "get", "x": 77, "y": 88}]}).encode(),
    headers={"Content-Type": "application/json"})
with urllib.request.urlopen(jreq) as resp:
    res = json.load(resp)["results"][0]
assert res.get("found") and res.get("v") == "cross-wire", res
print("wire-smoke: cross-wire read-back ok (binary set -> JSON get)")

# Idempotent replays answer in the retry's wire: a keyed JSON set retried
# as a binary frame under the same key replays the recorded ack as a frame.
key = "wire-smoke-cross-wire-replay"
jset = urllib.request.Request(url, data=json.dumps(
    {"ops": [{"op": "set", "x": 5, "y": 6, "v": "once"}]}).encode(),
    headers={"Content-Type": "application/json", "Idempotency-Key": key})
with urllib.request.urlopen(jset) as resp:
    resp.read()
# the same set as a frame: x=5 y=6 zigzag to 10 and 12
val = b"once"
breq = urllib.request.Request(url, data=frame(bytes([1, 1, 1, 10, 12, len(val)]) + val),
                              headers={"Content-Type": "application/x-tabled-batch",
                                       "Idempotency-Key": key})
with urllib.request.urlopen(breq) as resp:
    assert resp.status == 200, resp.status
    assert resp.headers["Idempotent-Replay"] == "true", resp.headers["Idempotent-Replay"]
    assert resp.headers["Content-Type"] == "application/x-tabled-batch", resp.headers["Content-Type"]
    body = resp.read()
# version 1, one result, flags OK
assert body[8:] == bytes([1, 1, 1]), body
print("wire-smoke: cross-wire replay ok (keyed JSON set -> binary retry)")
EOF

JSON_OPS=$(awk -F'"ops_per_sec":' '/"wire":"json"/ {split($2,a,","); print a[1]}' BENCH_wire.json)
BIN_OPS=$(awk -F'"ops_per_sec":' '/"wire":"binary"/ {split($2,a,","); print a[1]}' BENCH_wire.json)
if [ -z "$JSON_OPS" ] || [ -z "$BIN_OPS" ]; then
    echo "wire-smoke: FAIL: could not extract throughput from BENCH_wire.json"
    cat BENCH_wire.json
    exit 1
fi
echo "wire-smoke: json ${JSON_OPS} ops/s vs binary ${BIN_OPS} ops/s"
if ! awk -v j="$JSON_OPS" -v b="$BIN_OPS" 'BEGIN { exit !(b > j) }'; then
    echo "wire-smoke: FAIL: binary wire (${BIN_OPS} ops/s) is not faster than JSON (${JSON_OPS} ops/s)"
    exit 1
fi

kill "$SRV_PID" 2>/dev/null
wait "$SRV_PID" 2>/dev/null
SRV_PID=""
echo "wire-smoke: PASS (binary/json speedup $(awk -v j="$JSON_OPS" -v b="$BIN_OPS" 'BEGIN { printf "%.2fx", b/j }'))"
