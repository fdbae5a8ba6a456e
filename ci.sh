#!/bin/bash
# Continuous-integration gate, meant to be run from the repository root:
#
#   1. tier-1 verify: warnings-as-errors build + the full test suite;
#   2. an ASan/UBSan build of the test suite, to catch memory and UB
#      bugs the functional tests would miss;
#   3. a serving smoke pass: a short data-serving tail sweep (KV + LSM,
#      two policies) run under the ASan/UBSan build, so the open-loop
#      driver, the stores and the latency histograms get a sanitizer
#      pass on every change;
#   4. a chaos pass: the tier-1 binaries re-run with the kernel
#      invariant checker forced on and a moderate fault-injection plan
#      pushed into the chaos-aware tests, plus a segmented-CSR smoke
#      cell (PageRank on the out-of-core path at 4 segments) under the
#      invariant checker, and an object-dynamic cell (the dynamic
#      object policy picked by registry name) that must move pages;
#   5. a THP pass: the tier-1 binaries re-run with transparent huge
#      pages forced on (MEMTIER_THP=ON) under the invariant checker, so
#      every run exercises PMD mappings, collapse and splits. Tests
#      whose golden values need the 4 KiB-only baseline skip
#      themselves;
#   6. a scalar-path pass: the tier-1 binaries re-run with
#      MEMTIER_SCALAR_PATH=ON, forcing the element-at-a-time reference
#      pipeline. The hotpath golden tests pin both paths to the same
#      captured observables, so this pass plus pass 1 is a full
#      scalar-vs-batched diff of every golden workload;
#   7. perf-regression gates against a same-host baseline: the parent
#      commit (HEAD^) is checked out in a git worktree and built into
#      build-base/, and each throughput gate runs the parent's bench
#      binary and the fresh one on the same cell in 3 alternating
#      pairs, failing when the median fresh/parent ratio drops below
#      0.8. bench/hotpath_speed gates batched hot-path throughput;
#      bench/parallel_scaling: the simulated copy engine must keep
#      >= 2x migration bandwidth at 4 copy workers (machine-
#      independent); bench/scale_sweep on the committed
#      20:kron:autonuma:4 cell: the one-segment out-of-core build must
#      stay bit-identical to the monolithic loader, the cell's
#      simulated output must equal its BENCH_scale.json row exactly,
#      and its accesses/sec must hold against the parent;
#   8. an ECC chaos pass: the memory-failure end-to-end tests (BFS
#      under an ecc_ce/ecc_ue plan) and one hot cell of the KV
#      degradation sweep, both with the invariant checker forced on,
#      asserting that frames actually retired and requests were
#      actually killed (nonzero hwpoison_* counters) while every
#      poisoned-frame invariant held;
#   9. an autotune pass: a short tuned PageRank + KV cell under the
#      invariant checker asserting the online tuner actually moved at
#      least one tunable, then a perf gate on the committed
#      BENCH_autotune.json: tuned autonuma must be >= 1.0x the default
#      configuration on every committed cell and keep a >5% win on at
#      least one;
#  10. the benchmark's own tests (`perfbench/run.py --test`): every
#      workload's simulated statistics must be bit-identical across
#      instances and every output must pass its checker. The benchmark
#      builds into its own .bench_build/.
#
# Every bench writes its record through one writer (BenchRecord in
# bench/bench_common.h), and every check on a record is a subcommand of
# one script, tools/gate.py; this file holds no inline gate. All builds
# live in their own build directories so they never disturb an
# existing developer build/.
set -euo pipefail
cd "$(dirname "$0")"

JOBS=$(nproc 2>/dev/null || echo 4)

echo "=== [1/10] tier-1: RelWithDebInfo -Werror build + ctest ==="
cmake -B build-ci -S . -DMEMTIER_WERROR=ON
cmake --build build-ci -j "$JOBS"
ctest --test-dir build-ci --output-on-failure -j "$JOBS"

echo "=== [2/10] sanitizers: ASan/UBSan build + ctest ==="
cmake -B build-asan -S . -DMEMTIER_WERROR=ON \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "=== [3/10] serving smoke: short tail sweep under ASan/UBSan ==="
# One trial, two policies, THP off: small enough to stay fast under
# the sanitizers, big enough to drive the generator, both stores, the
# LSM flush/compaction path and the phase histograms end to end.
./build-asan/bench/serving_tail --trials=1 \
    --policies=autonuma,dram-only --no-thp \
    --out=build-asan/BENCH_serving_smoke.json \
    --csv=build-asan/serving_smoke.csv

echo "=== [4/10] chaos: invariant checker on + fault plan, tier-1 binaries ==="
# MEMTIER_CHECK_INVARIANTS=ON arms the kernel invariant checker in
# every Engine (observer-only: results stay bit-identical), and
# MEMTIER_FAULT_PLAN overrides the chaos-aware tests' default plan.
MEMTIER_CHECK_INVARIANTS=ON \
MEMTIER_FAULT_PLAN="migrate:p=0.1,burst=6;alloc:p=0.03;seed=97" \
    ctest --test-dir build-ci --output-on-failure -j "$JOBS"
# Segmented-CSR smoke: one short PageRank on the out-of-core segmented
# path with the invariant checker armed (bigraph_test covers faults on
# this path; this covers the sweep driver end to end).
MEMTIER_CHECK_INVARIANTS=ON \
    ./build-ci/bench/scale_sweep --rows=16:kron:autonuma:4 --trials=2 \
    --no-check --out=build-ci/BENCH_scale_smoke.json > /dev/null
python3 tools/gate.py scale-smoke build-ci/BENCH_scale_smoke.json
# Object-dynamic smoke: the dynamic object policy selected through the
# registry, as users select it, under the invariant checker. Its
# rebalance interval is shortened so rebalances fire inside the short
# sweep-scale run; it must have moved pages, promotions included (the
# reclaim path alone only demotes).
MEMTIER_CHECK_INVARIANTS=ON \
    ./build-ci/bench/policy_sweep --policy=object-dynamic \
    --workload=bfs:kron --tunable interval_ms=0.5 \
    --out=build-ci/sweep_object_dynamic.csv > /dev/null
python3 tools/gate.py object-dynamic-smoke \
    build-ci/sweep_object_dynamic.csv

echo "=== [5/10] thp: MEMTIER_THP=ON + invariant checker, tier-1 binaries ==="
# MEMTIER_THP=ON force-enables the THP model in every Engine; the
# extended invariant sweep (PMD/PTE consistency, THP counter identity)
# runs continuously. Golden-value tests captured with THP off skip.
MEMTIER_THP=ON \
MEMTIER_CHECK_INVARIANTS=ON \
    ctest --test-dir build-ci --output-on-failure -j "$JOBS"

echo "=== [6/10] scalar path: MEMTIER_SCALAR_PATH=ON, tier-1 binaries ==="
# MEMTIER_SCALAR_PATH=ON forces the element-at-a-time reference path in
# every Engine. The hotpath golden tests assert exact captured
# observables in both modes, so any scalar-vs-batched divergence fails
# here or in pass 1.
MEMTIER_SCALAR_PATH=ON \
    ctest --test-dir build-ci --output-on-failure -j "$JOBS"

echo "=== [7/10] perf gates: same-host throughput vs the parent commit ==="
# Throughput is compared against the parent commit built on this host,
# never against a figure committed from another machine: HEAD^ is
# checked out in a git worktree and built into build-base/, and each
# gate alternates parent and fresh runs of the same cell.
if ! git rev-parse --verify -q 'HEAD^' > /dev/null; then
    echo "ci.sh: the perf gates need the parent commit HEAD^" \
         "(fetch with depth >= 2)" >&2
    exit 1
fi
rm -rf build-base/tree
git worktree prune
git worktree add --detach build-base/tree 'HEAD^'
cmake -B build-base/build -S build-base/tree
cmake --build build-base/build -j "$JOBS" --target hotpath_speed scale_sweep
git worktree remove --force build-base/tree
# Batched hot path. The bench itself also fails when the scalar and
# batched paths stop being bit-identical, so this gate checks
# correctness and speed in one run.
python3 tools/gate.py hotpath --base build-base/build/bench/hotpath_speed \
    --fresh build-ci/bench/hotpath_speed --workdir build-ci
# Copy-worker scaling of the simulated migration copy engine. The
# bandwidth is a pure function of the worker count, so it gates on
# every machine.
./build-ci/bench/parallel_scaling \
    --out=build-ci/BENCH_parallel_ci.json > /dev/null
python3 tools/gate.py parallel build-ci/BENCH_parallel_ci.json
# Footprint-scale gate on one committed cell of the segmented-CSR
# sweep: every fresh run starts with the segment-1 bit-identity golden
# check and must reproduce the cell's committed simulated output
# exactly before its throughput counts.
python3 tools/gate.py scale --base build-base/build/bench/scale_sweep \
    --fresh build-ci/bench/scale_sweep --record BENCH_scale.json \
    --workdir build-ci

echo "=== [8/10] ecc chaos: memory failures under the invariant checker ==="
# The BFS side: the memory-failure end-to-end tests replay an
# ecc_ce/ecc_ue plan twice and assert bit-identity plus nonzero
# hwpoison counters; forcing the checker on makes every other test in
# the filter sweep the poisoned-frame invariants too.
MEMTIER_CHECK_INVARIANTS=ON \
    ctest --test-dir build-ci --output-on-failure -j "$JOBS" \
    -R "FaultEndToEnd|FaultKernel|FaultThp"
# The KV side: one hot cell of the degradation sweep (CE probability
# 0.25, UE riding along at 1/32) under the checker, then assert from
# the CSV that the run actually eroded DRAM and killed requests.
MEMTIER_CHECK_INVARIANTS=ON \
    ./build-ci/bench/degradation_sweep --policies=autonuma \
    --levels=0.25 --trials=1 \
    --out=build-ci/BENCH_degradation_ci.json \
    --csv=build-ci/degradation_ci.csv > /dev/null
python3 tools/gate.py ecc build-ci/degradation_ci.csv

echo "=== [9/10] autotune: tuner smoke + tuned-vs-default perf gate ==="
# Smoke: one graph cell and one serving cell under the invariant
# checker. The run itself proves tuning keeps every kernel invariant;
# the assertion below proves the tuner actually moved something (an
# observe-only tuner would trivially "pass" any perf comparison).
MEMTIER_CHECK_INVARIANTS=ON \
    ./build-ci/bench/autotune_sweep --trials=2 --epoch-ms=0.2 \
    --workload pr:kron --workload kv:kron \
    --out=build-ci/BENCH_autotune_smoke.json \
    --csv=build-ci/autotune_smoke.csv > /dev/null
python3 tools/gate.py autotune-smoke build-ci/BENCH_autotune_smoke.json
# Perf gate on the committed record: the bench is fully deterministic
# (seeded tuner, cycle clock), so the committed cells are exactly
# reproducible via run_benches.sh. Online tuning must never lose to
# the static default, and must keep a real win somewhere.
python3 tools/gate.py autotune BENCH_autotune.json

echo "=== [10/10] benchmark: perfbench gtests ==="
python3 perfbench/run.py --test

echo "ci.sh: all gates passed"
