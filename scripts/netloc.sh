#!/usr/bin/env bash
# Net lines of Go changed since BASE, from git diff --numstat: non-test Go
# outside bench/, then test Go (*_test.go, anywhere). Counts the working
# tree against BASE, so uncommitted edits are included.
#
# Usage: scripts/netloc.sh BASE   (from the repo root, e.g. scripts/netloc.sh HEAD~1)
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE" >&2
    exit 2
fi

git diff --numstat "$1" -- '*.go' | awk '
    $1 == "-" { next }  # binary
    $3 ~ /_test\.go$/ { ta += $1; tr += $2; next }
    $3 !~ /^bench\// { na += $1; nr += $2 }
    END {
        printf "non-test Go (outside bench/): +%d -%d net %+d\n", na, nr, na - nr
        printf "test Go:                      +%d -%d net %+d\n", ta, tr, ta - tr
    }'
