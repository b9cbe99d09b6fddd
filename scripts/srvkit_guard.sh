#!/usr/bin/env bash
# Guard: the server mains must build their HTTP stack and lifecycle
# exclusively through internal/srvkit. A hand-rolled http.Server grows
# hardcoded connection deadlines (the WriteTimeout-vs-batch-timeout bug
# this repo shipped once already), a hand-rolled signal.NotifyContext
# grows its own — subtly different — shutdown ordering, and hand-rolled
# TimeoutHandler/MaxBytesReader wiring drifts from the one correct
# middleware order. srvkit exists so those decisions are made once;
# this script fails CI when a main makes them again.
#
# Usage: scripts/srvkit_guard.sh   (from the repo root)
set -u

status=0
for f in cmd/*server/main.go; do
    [ -e "$f" ] || continue
    bad=$(grep -nE 'http\.Server\{|signal\.NotifyContext|http\.TimeoutHandler|http\.MaxBytesReader|"net/http/pprof"' "$f")
    if [ -n "$bad" ]; then
        echo "srvkit-guard: $f builds its HTTP stack by hand instead of through internal/srvkit:" >&2
        echo "$bad" >&2
        status=1
    fi
done
for f in internal/tabled/*.go internal/cluster/*.go; do
    case "$f" in *_test.go) continue ;; esac
    bad=$(grep -nE 'RequestTimeout:' "$f")
    if [ -n "$bad" ]; then
        echo "srvkit-guard: $f wraps a batch handler in APIStack's TimeoutHandler; enforce the batch deadline in the handler instead:" >&2
        echo "$bad" >&2
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "srvkit-guard: ok — all server mains go through internal/srvkit, and no batch handler sits behind a TimeoutHandler"
fi
exit "$status"
