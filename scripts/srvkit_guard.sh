#!/usr/bin/env bash
# Guard: the server mains must build their HTTP stack and lifecycle
# exclusively through internal/srvkit. A hand-rolled http.Server grows
# hardcoded connection deadlines (the WriteTimeout-vs-batch-timeout bug
# this repo shipped once already), and a hand-rolled signal.NotifyContext
# grows its own — subtly different — shutdown ordering. srvkit exists so
# those decisions are made once; this script fails CI when a main makes
# them again.
#
# Every API handler enforces its own deadline and body cap, so no
# non-test Go under cmd/ or internal/ may wrap one in http.TimeoutHandler
# (a goroutine, timer and response copy per request) or
# http.MaxBytesReader (an allocation per request).
#
# Usage: scripts/srvkit_guard.sh   (from the repo root)
set -u

status=0
for f in cmd/*server/main.go; do
    [ -e "$f" ] || continue
    bad=$(grep -nE 'http\.Server\{|signal\.NotifyContext|"net/http/pprof"' "$f")
    if [ -n "$bad" ]; then
        echo "srvkit-guard: $f builds its HTTP stack by hand instead of through internal/srvkit:" >&2
        echo "$bad" >&2
        status=1
    fi
done
bad=$(grep -rnE --include='*.go' 'http\.(TimeoutHandler|MaxBytesReader)' cmd internal | grep -v '_test\.go:')
if [ -n "$bad" ]; then
    echo "srvkit-guard: a handler is wrapped for its deadline or body cap; enforce both in the handler instead:" >&2
    echo "$bad" >&2
    status=1
fi
if [ "$status" -eq 0 ]; then
    echo "srvkit-guard: ok — all server mains go through internal/srvkit, and no handler sits behind a TimeoutHandler or MaxBytesReader"
fi
exit "$status"
