#!/usr/bin/env bash
# Tier-1 gate: configure with warnings-as-errors, build everything, run
# the full test suite, then run the sanitizer-labeled tests (the obs
# subsystem rebuilt under ASan+UBSan) and the thread-labeled tests (the
# scheduler's concurrency substrate rebuilt under TSan). Usage:
#
#   scripts/check.sh [build-dir]
#
# The build directory defaults to build-check/ so a plain dev build/ is
# never clobbered by the -Werror configuration.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-check}"
jobs="$(nproc 2>/dev/null || echo 2)"

echo "== configure ($build, -Wall -Wextra -Werror) =="
cmake -S "$repo" -B "$build" -DVBENCH_WERROR=ON >/dev/null

echo "== build =="
cmake --build "$build" -j "$jobs"

echo "== tier-1 tests =="
ctest --test-dir "$build" --output-on-failure -j "$jobs"

echo "== sanitizer tests (ctest -L sanitize) =="
ctest --test-dir "$build" --output-on-failure -L sanitize -j "$jobs"

echo "== thread-sanitizer tests (ctest -L thread) =="
ctest --test-dir "$build" --output-on-failure -L thread -j "$jobs"

echo "== thread-labeled tests under VBENCH_SLICES=2 =="
# Same suite with multi-slice entropy coding switched on via the
# environment: the determinism and TSan checks must hold when every
# encode carries slice-parallel entropy.
VBENCH_SLICES=2 \
    ctest --test-dir "$build" --output-on-failure -L thread -j "$jobs"

echo "== kernel smoke (bench_kernels --smoke) =="
"$build/bench/bench_kernels" --smoke

echo "== frame-thread + slice gates (bench_frame_threads --smoke) =="
# Asserts streams are bit-exact across thread widths at every slice
# count AND that the 4-slice entropy critical path (longest single
# slice per frame, from tracer spans) strictly beats the serial
# entropy pass for both codecs — span-based so it holds on 1-core CI.
"$build/bench/bench_frame_threads" --smoke

echo "== service smoke (bench_service --smoke) =="
"$build/bench/bench_service" --smoke

echo "== fleet smoke (bench_fleet --smoke) =="
# Asserts determinism in the seed, the cost_aware hit-rate floor, and
# cost_aware <= round_robin and random on total dollars — including
# strictly beating both baselines on the Popular ladder.
"$build/bench/bench_fleet" --smoke

echo "== cache smoke (bench_cache --smoke) =="
# Asserts the replay is deterministic in the seed, delivered bytes are
# identical with the cache off/cold/warm, Popular gets a non-zero hit
# rate, and cost_aware strictly undercuts always_store AND
# always_recompute on Popular dollars.
"$build/bench/bench_cache" --smoke --seed 40

echo "== rpc smoke (bench_rpc --smoke) =="
# Four fork/exec'd child workers with one SIGKILL injected mid-run and
# an aggressive hedge threshold: asserts the delivered bytes match the
# in-process run exactly and that the service.rpc.* counters show >= 1
# retry and >= 1 hedged dispatch.
"$build/bench/bench_rpc" --smoke

echo "== observability schema gate (traced fleet smoke + obs_lint) =="
obs_dir="$build/obs-gate"
mkdir -p "$obs_dir"
rm -f "$obs_dir/trace.json" "$obs_dir/reports.jsonl" "$obs_dir/prom.txt"
# VBENCH_FLEET routes the smoke through the modeled fleet,
# VBENCH_CACHE_MB attaches the output cache, and VBENCH_WORKERS=proc
# swaps the scheduler pool for fork/exec'd child workers, so the
# reports include a service.fleet, a service.cache, and a service.rpc
# record for obs_lint's schema checks.
VBENCH_TRACE="$obs_dir/trace.json" \
VBENCH_METRICS_OUT="$obs_dir/reports.jsonl" \
VBENCH_PROM_OUT="$obs_dir/prom.txt" \
VBENCH_FLEET="scalar:4@0.40+sse2:2@0.90+avx2:2@1.60+hwenc:1@5.00" \
VBENCH_FLEET_CALIB="$obs_dir/fleet-calib.txt" \
VBENCH_CACHE_MB=64 \
VBENCH_CACHE_POLICY=always_store \
VBENCH_WORKERS=proc \
VBENCH_WORKER_BIN="$build/src/rpc/vbench_worker" \
    "$build/bench/bench_service" --smoke >/dev/null
"$build/tools/obs_lint" \
    --trace "$obs_dir/trace.json" \
    --require-fleet \
    --require-cache \
    --require-rpc \
    --report "$obs_dir/reports.jsonl" \
    --prom "$obs_dir/prom.txt"

echo "== ISA bit-exactness (VBENCH_ISA=scalar vs sse2 and native digests) =="
# sse2 gets its own leg: on an AVX2 host native runs the AVX2 kernel
# wherever one exists, so a divergence in an SSE2 kernel that AVX2
# overrides (SAD, SATD, the x4 kernels, ...) would otherwise pass.
scalar_digest="$(VBENCH_ISA=scalar "$build/bench/bench_kernels" --digest)"
for isa in sse2 native; do
    digest="$(VBENCH_ISA=$isa "$build/bench/bench_kernels" --digest)"
    if [ "$scalar_digest" != "$digest" ]; then
        echo "FAIL: scalar and $isa kernel digests differ" >&2
        diff <(echo "$scalar_digest") <(echo "$digest") >&2 || true
        exit 1
    fi
done
echo "$scalar_digest"

echo "== all checks passed =="
