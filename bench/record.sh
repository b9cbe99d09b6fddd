#!/usr/bin/env bash
# Records the performance history of the checked-out commit: two untraced
# runs and one traced run of every workload, each at the run length
# BENCHMARK.json sets, collected into bench/results/<short-sha>.json with
# the commit they measured. Each run's report carries the go version,
# nproc, GOMAXPROCS and the filesystem of the daemons' data dirs.
#
# Run from the root of a git checkout:
#
#   bash bench/record.sh [seed]
set -euo pipefail

seed=${1:-1}
commit=$(git rev-parse HEAD)
sha=$(git rev-parse --short HEAD)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
work=.bench_build/record
rm -rf "$work"
mkdir -p "$work" bench/results

reports=()
for w in node-read repl-write router-mixed node-skinny; do
	for trace in 0 0 1; do
		r=$work/${#reports[@]}.json
		bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" --report "$r" >/dev/null
		reports+=("$r")
	done
done

out=bench/results/$sha.json
{
	printf '{"commit":"%s","seed":%s,"seconds":%s,"runs":[\n' "$commit" "$seed" "$seconds"
	sep=
	for r in "${reports[@]}"; do
		printf '%s' "$sep"
		tr -d '\n' <"$r"
		sep=$',\n'
	done
	printf '\n]}\n'
} >"$out"
echo "record.sh: wrote $out"
