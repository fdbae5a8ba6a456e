/**
 * @file
 * The benchmark's own tests, at reduced sizes: determinism of the
 * simulated statistics across instances and between traced and
 * untraced instances, seed sensitivity with passing checks, and
 * agreement of the KV replay with the repository's runServing.
 */
#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "bigraph/ooc_builder.h"
#include "exp/runner.h"
#include "serve/serve_driver.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

Sizes
smallSizes()
{
    Sizes z;
    z.prScale = 12;
    z.prIterations = 2;
    z.bfsScale = 13;
    z.bfsSegments = 4;
    z.bfsSources = 3;
    z.kvScale = 12;
    z.kvRequests = 20000;
    z.captureRecords = 4096;
    return z;
}

InstanceResult
run(Workload w, std::uint64_t seed, bool traced, bool capture = false)
{
    Tracer tracer(traced);
    Checker checker;
    return runInstance(w, seed, smallSizes(), tracer, checker, capture);
}

class PerWorkload : public ::testing::TestWithParam<Workload>
{
};

TEST_P(PerWorkload, SameSeedGivesBitIdenticalSimulatedStatistics)
{
    const InstanceResult a = run(GetParam(), 7, false);
    const InstanceResult b = run(GetParam(), 7, false);
    EXPECT_EQ(a.sim, b.sim);
    EXPECT_EQ(a.outputDigest, b.outputDigest);
    EXPECT_GT(a.sim.at("sim.accesses"), 0);
    EXPECT_GT(a.sim.at("sim_s"), 0);
    EXPECT_EQ(a.failed, 0u);
    EXPECT_GT(a.attempted, 0u);
}

TEST_P(PerWorkload, TracedRunMatchesUntracedRun)
{
    const InstanceResult plain = run(GetParam(), 11, false);
    const InstanceResult traced = run(GetParam(), 11, true);
    EXPECT_EQ(plain.sim, traced.sim);
    EXPECT_EQ(plain.outputDigest, traced.outputDigest);
    // The traced instance carries the layer timings the plain one lacks.
    EXPECT_FALSE(plain.host.count("sim.engine_init_s"));
    ASSERT_TRUE(traced.host.count("sim.engine_init_s"));
    EXPECT_GT(traced.host.at("sim.engine_init_s"), 0);
}

TEST_P(PerWorkload, OnlyTheCapturingInstanceAddsAnObserver)
{
    // Traced and untraced instances must time the same engine path, so
    // tracing attaches no observer of its own; the slice capture does,
    // and so only the capturing instance replays the layers.
    const InstanceResult plain = run(GetParam(), 13, false);
    const InstanceResult traced = run(GetParam(), 13, true);
    const InstanceResult capturing = run(GetParam(), 13, false, true);
    EXPECT_EQ(plain.timedObservers, traced.timedObservers);
    EXPECT_EQ(capturing.timedObservers, plain.timedObservers + 1);
    EXPECT_EQ(plain.sim, capturing.sim);
    EXPECT_EQ(plain.outputDigest, capturing.outputDigest);
    EXPECT_TRUE(plain.replay.empty());
    EXPECT_TRUE(traced.replay.empty());
    for (const char *key : {"cache.replay_access_ns", "tlb.replay_lookup_ns",
                            "os.pagetable_replay_find_ns"}) {
        ASSERT_TRUE(capturing.replay.count(key)) << key;
        EXPECT_GT(capturing.replay.at(key), 0) << key;
    }
}

TEST_P(PerWorkload, DifferentSeedChangesInputsAndStillPassesChecks)
{
    const InstanceResult a = run(GetParam(), 3, false);
    const InstanceResult b = run(GetParam(), 4, false);
    EXPECT_NE(a.outputDigest, b.outputDigest);
    EXPECT_NE(a.sim, b.sim);
    EXPECT_EQ(a.failed, 0u);
    EXPECT_EQ(b.failed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, PerWorkload,
                         ::testing::Values(Workload::PrKron,
                                           Workload::BfsUrandOoc,
                                           Workload::KvZipf),
                         [](const auto &info) {
                             return std::string(workloadName(info.param));
                         });

TEST(KvZipf, ReportMatchesRunServing)
{
    const Sizes z = smallSizes();
    const InstanceResult mine = run(Workload::KvZipf, 5, false);

    memtier::WorkloadSpec w;
    w.app = memtier::App::KV;
    w.kind = memtier::GraphKind::Kron;
    w.scale = z.kvScale;
    w.seed = 5;
    memtier::ServingSpec spec = memtier::servingSpecFor(w);
    spec.gen.requests = z.kvRequests;
    memtier::SystemConfig sys;
    sys.dram = memtier::makeDramParams(
        memtier::scaledCapacity(24 * memtier::kMiB, z.kvScale));
    sys.nvm = memtier::makeNvmParams(
        memtier::scaledCapacity(96 * memtier::kMiB, z.kvScale));
    memtier::Engine eng(sys);
    memtier::SimHeap heap(eng);
    const memtier::ServingReport want = memtier::runServing(eng, heap, spec);

    const double to_us = 1e6 / double(memtier::kCyclesPerSecond);
    EXPECT_EQ(mine.outputDigest, want.checksum);
    EXPECT_EQ(mine.sim.at("serve.requests"), double(want.requests));
    EXPECT_EQ(mine.sim.at("sim_p50_us"), want.latency.percentile(0.50) * to_us);
    EXPECT_EQ(mine.sim.at("sim_p99_us"), want.latency.percentile(0.99) * to_us);
    EXPECT_EQ(mine.sim.at("sim_p999_us"),
              want.latency.percentile(0.999) * to_us);
    EXPECT_EQ(mine.sim.at("slo_violation_frac"),
              want.sloViolationFraction(spec.sloCycles()));
}

TEST(Checker, WrongKvAnswerIsCountedAsFailedAndViolating)
{
    // Corrupt the expected host replay: every request whose expected
    // digest no longer matches must count as a failure.
    Tracer tracer(false);
    Checker checker;
    const Sizes z = smallSizes();
    const InstanceResult good =
        runInstance(Workload::KvZipf, 9, z, tracer, checker);
    ASSERT_EQ(good.failed, 0u);
    checker.kvExpected[0] ^= 1;
    checker.kvExpected[1] ^= 1;
    const InstanceResult bad =
        runInstance(Workload::KvZipf, 9, z, tracer, checker);
    EXPECT_EQ(bad.failed, 2u);
    EXPECT_GE(bad.sim.at("slo_violation_frac"),
              good.sim.at("slo_violation_frac"));
}

TEST(Checker, BfsVerifierRejectsBrokenTrees)
{
    memtier::SystemConfig sys;
    sys.numThreads = 2;
    memtier::Engine eng(sys);
    memtier::SimHeap heap(eng);
    memtier::BigraphSpec spec;
    spec.kind = memtier::BigraphKind::Urand;
    spec.scale = 10;
    spec.segments = 3;
    memtier::SegmentedCsrGraph seg = memtier::SegmentedCsrGraph::generate(
        eng, heap, eng.thread(0), spec, "verify");
    const memtier::SegmentedCsrView g(seg);
    memtier::NodeId source = 0;
    while (g.rawDegree(source) == 0)
        ++source;
    const memtier::BfsOutput good = memtier::runBfs(eng, heap, g, source);
    ASSERT_TRUE(verifyBfsTree(g, source, good));

    memtier::BfsOutput bad = good;
    bad.reached -= 1;
    EXPECT_FALSE(verifyBfsTree(g, source, bad));
    bad = good;
    bad.parent[static_cast<std::size_t>(source)] = -1;
    EXPECT_FALSE(verifyBfsTree(g, source, bad));
    // A reached vertex whose parent is itself is no tree edge.
    for (std::size_t v = 0; v < good.parent.size(); ++v) {
        if (static_cast<memtier::NodeId>(v) != source &&
            good.parent[v] >= 0) {
            bad = good;
            bad.parent[v] = static_cast<memtier::NodeId>(v);
            EXPECT_FALSE(verifyBfsTree(g, source, bad));
            break;
        }
    }
    seg.free(heap, eng.thread(0));
    memtier::clearBigraphArtifacts();
}

TEST(Tracer, SelfTimeSubtractsChildren)
{
    Tracer t(true);
    {
        const auto outer = t.span("outer");
        const auto inner = t.span("inner");
    }
    ASSERT_EQ(t.spans().size(), 2u);
    EXPECT_EQ(t.spans()[1].parent, 0);
    const double outer = t.durations("outer").at(0);
    const double inner = t.durations("inner").at(0);
    EXPECT_NEAR(t.selfSeconds("outer"), outer - inner, 1e-12);
    Tracer off(false);
    { const auto s = off.span("x"); }
    EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
