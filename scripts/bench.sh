#!/usr/bin/env sh
# Regenerates the benchmark artifacts at the repo root:
#
# * BENCH_tensor.json — seed-era naive tensor kernels vs the blocked
#   serial kernels and the row-parallel path (FD_THREADS=4), plus a
#   full model inference step (the tape-free forward) across
#   FD_THREADS {1,2,4,8}.
# * BENCH_train.json — full training epochs at Table-1 scale across
#   FD_THREADS {1,2,4,8} (losses must be bit-identical at every width),
#   plus a neighbour-sampled scale sweep (default corpus scales
#   0.1/1/8 ≈ 1.4k/14k/112k articles) recording one sampled epoch's
#   wall-clock and peak RSS per scale.
# * BENCH_serve.json — the fd-serve HTTP load benchmark: 32 concurrent
#   keep-alive clients against the in-process server, with every
#   response verified bitwise against a sequential reference pass,
#   plus the direct (no-HTTP) batch scorer's time across FD_THREADS.
#   Its batch-size histogram and mean queue wait cover the measured
#   concurrent pass alone (batch sizes must sum to its request count).
# * BENCH_load.json — the open-loop overload harness against the full
#   sharded tier (router + 2 shards × 2 replicas): a closed-loop probe
#   rates the tier's capacity, then ≥100k requests are fired at fixed
#   arrival rates — a rated phase that must hold its p99 SLO with
#   near-zero shedding, and a 2× overload phase that must shed with
#   429 + Retry-After *before* successful-request latency collapses.
#   Every 200 is verified bitwise against an unsharded control server.
#
# Every file's header records machine_threads, the FD_THREADS request,
# the resolved runtime width, and the detected SIMD level.
#
# Usage: scripts/bench.sh [tensor_out.json] [train_out.json] [train_scale]
#                         [serve_out.json] [sweep_scales] [load_out.json]
#                         [load_total]
#
# `sweep_scales` is the comma-separated list for the sampled scale
# sweep (pass "" to skip it). `load_total` is the open-loop request
# count for the load harness (default 105000; the issue floor is 100k).
#
# Any failing report subcommand (including a bitwise-determinism
# violation in the serve benchmark, which panics) aborts the script
# with a non-zero exit and names the step that failed.
#
# Numbers are medians of repeated runs but still machine-dependent;
# compare ratios within one file, not times across machines.
set -eu
cd "$(dirname "$0")/.."
tensor_out="${1:-BENCH_tensor.json}"
train_out="${2:-BENCH_train.json}"
train_scale="${3:-1.0}"
serve_out="${4:-BENCH_serve.json}"
sweep_scales="${5:-0.1,1,8}"
load_out="${6:-BENCH_load.json}"
load_total="${7:-105000}"

run_report() {
    step="$1"
    shift
    echo "==> report $step" >&2
    if ! cargo run --release -p fd-bench --bin report -- "$@"; then
        echo "bench.sh: report $step FAILED" >&2
        exit 1
    fi
}

run_report tensor tensor "$tensor_out"
run_report train train "$train_out" "$train_scale" "$sweep_scales"
run_report serve serve "$serve_out" 32 12
run_report load load "$load_out" "$load_total" 500

# Scaling smoke: threads must actually pay. On a multi-core machine the
# batched 4-thread epoch must be at least 1.15x faster than batched
# serial, or the persistent-pool runtime has regressed. On a 1-core
# machine there is nothing to win, so skip with a loud notice instead
# of reporting a meaningless ratio.
json_number() {
    # Pulls `"key": 123.45` out of a pretty-printed JSON file.
    sed -n "s/^.*\"$2\": *\([0-9.][0-9.]*\).*$/\1/p" "$1" | head -n 1
}
cores="$(nproc 2>/dev/null || echo 1)"
if [ "$cores" -le 1 ]; then
    echo "bench.sh: NOTICE: available_parallelism is 1, skipping the 4-thread scaling smoke" >&2
else
    serial_ms="$(json_number "$train_out" median_batched_serial_epoch_ms)"
    four_t_ms="$(json_number "$train_out" median_batched_parallel_4t_epoch_ms)"
    if [ -z "$serial_ms" ] || [ -z "$four_t_ms" ]; then
        echo "bench.sh: scaling smoke FAILED: medians missing from $train_out" >&2
        exit 1
    fi
    ok="$(awk -v s="$serial_ms" -v p="$four_t_ms" 'BEGIN { print (s / p >= 1.15) ? 1 : 0 }')"
    speedup="$(awk -v s="$serial_ms" -v p="$four_t_ms" 'BEGIN { printf "%.2f", s / p }')"
    if [ "$ok" != 1 ]; then
        echo "bench.sh: scaling smoke FAILED: batched 4-thread epoch is only ${speedup}x batched serial (${serial_ms}ms -> ${four_t_ms}ms, need >= 1.15x on a ${cores}-core machine)" >&2
        exit 1
    fi
    echo "==> scaling smoke ok: 4-thread epoch ${speedup}x batched serial" >&2
fi
echo "==> wrote $tensor_out $train_out $serve_out $load_out" >&2
