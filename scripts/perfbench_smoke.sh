#!/usr/bin/env sh
# Benchmark smoke: builds and tests the perfbench package, then runs
# each of the four BENCHMARK.json workloads once for one second with
# tracing off. perfbench is a workspace of its own, so the main
# workspace build never compiles it; this step catches library changes
# that break what the benchmark calls.
#
# Usage: scripts/perfbench_smoke.sh [seed]
#
# Exits non-zero, naming the workload, unless every run's last line
# reports "correct":true with "failed":0.
set -eu
cd "$(dirname "$0")/.."
seed="${1:-1}"
manifest=perfbench/Cargo.toml

echo "==> perfbench helper tests" >&2
cargo test --release --offline --manifest-path "$manifest"

for workload in train-full train-sampled serve-routed serve-ingest; do
    echo "==> $workload, 1 s" >&2
    last="$(cargo run --release --offline --quiet --manifest-path "$manifest" -- \
        --workload "$workload" --seed "$seed" --seconds 1 --trace 0 | tail -n 1)"
    case "$last" in
        *'"correct":true'*'"failed":0,'*) echo "$last" ;;
        *)
            echo "perfbench_smoke.sh: $workload did not pass: $last" >&2
            exit 1
            ;;
    esac
done
echo "==> perfbench smoke passed" >&2
