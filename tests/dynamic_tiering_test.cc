/**
 * @file
 * Tests for the dynamic object-level tiering policy ("object-dynamic")
 * and the kernel's object-migration API it builds on.
 */

#include <gtest/gtest.h>

#include "exp/runner.h"
#include "policy/object_dynamic_policy.h"
#include "profile/analysis.h"
#include "runtime/sim_heap.h"

namespace memtier {
namespace {

SystemConfig
tinyConfig()
{
    SystemConfig cfg;
    cfg.dram = makeDramParams(256 * kPageSize);
    cfg.nvm = makeNvmParams(1024 * kPageSize);
    cfg.numThreads = 2;
    cfg.policyName = "object-dynamic";
    return cfg;
}

/** Statistics of the engine's object-dynamic policy. */
const ObjectDynamicStats &
dynamicStats(Engine &eng)
{
    return dynamic_cast<ObjectDynamicPolicy &>(*eng.tieringPolicy())
        .stats();
}

// ----------------------------------------------- Kernel::migratePages

TEST(MigratePages, MovesRangeToNvmAndBack)
{
    Engine eng(tinyConfig());
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    auto v = heap.alloc<std::int64_t>(t, "obj", 8 * 512);  // 8 pages.
    for (std::uint64_t i = 0; i < v.size(); i += 512)
        v.set(t, i, 1);  // Touch each page (lands on DRAM).

    Kernel &kern = eng.kernel();
    const Addr end = v.base() + v.size() * sizeof(std::int64_t);
    EXPECT_EQ(kern.migratePages(v.base(), end, MemNode::NVM, 100, 1000),
              8u);
    for (PageNum vpn = pageOf(v.base()); vpn < pageOf(end); ++vpn)
        EXPECT_EQ(kern.nodeOf(vpn), MemNode::NVM);

    EXPECT_EQ(kern.migratePages(v.base(), end, MemNode::DRAM, 100, 2000),
              8u);
    for (PageNum vpn = pageOf(v.base()); vpn < pageOf(end); ++vpn)
        EXPECT_EQ(kern.nodeOf(vpn), MemNode::DRAM);
    heap.free(t, v);
}

TEST(MigratePages, RespectsBudget)
{
    Engine eng(tinyConfig());
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    auto v = heap.alloc<std::int64_t>(t, "obj", 8 * 512);
    for (std::uint64_t i = 0; i < v.size(); i += 512)
        v.set(t, i, 1);
    const Addr end = v.base() + v.size() * sizeof(std::int64_t);
    EXPECT_EQ(eng.kernel().migratePages(v.base(), end, MemNode::NVM, 3,
                                        1000),
              3u);
    heap.free(t, v);
}

TEST(MigratePages, SkipsPinnedPages)
{
    Engine eng(tinyConfig());
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    auto v = heap.alloc<std::int64_t>(t, "obj", 512);
    eng.kernel().mbind(v.base(), MemPolicy::bind(MemNode::DRAM));
    v.set(t, 0, 1);
    const Addr end = v.base() + kPageSize;
    EXPECT_EQ(eng.kernel().migratePages(v.base(), end, MemNode::NVM,
                                        100, 1000),
              0u);
    heap.free(t, v);
}

TEST(MigratePages, NoopWhenAlreadyOnTarget)
{
    Engine eng(tinyConfig());
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    auto v = heap.alloc<std::int64_t>(t, "obj", 512);
    v.set(t, 0, 1);
    const Addr end = v.base() + kPageSize;
    EXPECT_EQ(eng.kernel().migratePages(v.base(), end, MemNode::DRAM,
                                        100, 1000),
              0u);
    heap.free(t, v);
}

// ------------------------------------------------------ object-dynamic

/**
 * Fill DRAM with a cold object so a hot one overflows to NVM, then
 * shorten the rebalance interval (the engine was built with a long one,
 * so the initial placement is the kernel's own) and hammer the hot
 * object long enough for several rebalances. Expects a policy built
 * with interval_ms long enough not to fire during the fill.
 */
void
expectHotObjectPulledToDram(Engine &eng)
{
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    auto filler = heap.alloc<std::int64_t>(t, "cold", 250 * 512);
    for (std::uint64_t i = 0; i < filler.size(); i += 512)
        filler.set(t, i, 1);
    auto hot = heap.alloc<std::int64_t>(t, "hot", 200 * 512);
    for (std::uint64_t i = 0; i < hot.size(); i += 512)
        hot.set(t, i, 1);
    // At least the tail of the hot object overflowed to NVM (kswapd
    // keeps only a small DRAM reserve free).
    const PageNum hot_last =
        pageOf(hot.addrOf(hot.size() - 1));
    ASSERT_EQ(eng.kernel().nodeOf(hot_last), MemNode::NVM);
    EXPECT_EQ(dynamicStats(eng).rebalances, 0u);
    eng.tunableRegistry().set("interval_ms", 0.1, t.clock());

    Rng rng(5);
    for (int round = 0; round < 150000; ++round)
        hot.get(t, rng.nextBounded(hot.size()));

    EXPECT_GT(dynamicStats(eng).rebalances, 0u);
    EXPECT_GT(dynamicStats(eng).pagesMovedUp, 0u);
    // The hot object must now be entirely on DRAM.
    EXPECT_EQ(eng.kernel().nodeOf(hot_last), MemNode::DRAM);
    heap.free(t, hot);
    heap.free(t, filler);
}

TEST(DynamicTiering, HotObjectPulledToDram)
{
    SystemConfig cfg = tinyConfig();
    cfg.policyTunables.set("interval_ms", "1000");
    Engine eng(cfg);
    expectHotObjectPulledToDram(eng);
}

TEST(DynamicTiering, SamplerDoesNotDetachPolicy)
{
    // The runner installs its sampler through setObserver; the policy's
    // own access observer must survive that, or the policy would rank
    // every object at zero and never promote.
    SystemConfig cfg = tinyConfig();
    cfg.policyTunables.set("interval_ms", "1000");
    Engine eng(cfg);
    PerfMemSampler sampler;
    eng.setObserver(&sampler);
    expectHotObjectPulledToDram(eng);
    EXPECT_GT(sampler.takeSamples().size(), 0u);
}

TEST(DynamicTiering, NoMigrationWithoutTraffic)
{
    SystemConfig cfg = tinyConfig();
    cfg.policyTunables.set("interval_ms", "1");
    Engine eng(cfg);

    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    auto v = heap.alloc<std::int64_t>(t, "idle", 512);
    v.set(t, 0, 1);
    // Advance time with cache-hit accesses (no external traffic).
    for (int i = 0; i < 50000; ++i)
        v.get(t, 0);
    EXPECT_EQ(dynamicStats(eng).pagesMovedUp, 0u);
    EXPECT_EQ(dynamicStats(eng).pagesMovedDown, 0u);
    heap.free(t, v);
}

TEST(DynamicTiering, RunnerModeProducesIdenticalResults)
{
    RunConfig rc;
    rc.workload.app = App::BFS;
    rc.workload.kind = GraphKind::Kron;
    rc.workload.scale = 13;
    rc.workload.trials = 2;
    rc.sys.dram = makeDramParams(512 * kPageSize);
    rc.sys.nvm = makeNvmParams(2048 * kPageSize);
    const RunResult a = runWorkload(rc);

    RunConfig rc2 = rc;
    rc2.policy = "object-dynamic";
    const RunResult d = runWorkload(rc2);
    EXPECT_EQ(a.outputChecksum, d.outputChecksum);
    // The dynamic policy migrates via the kernel, so its activity shows
    // up in the migration counters even with AutoNUMA off.
    EXPECT_EQ(d.vmstat.numaHintFaults, 0u);  // No scanner.
}

TEST(DynamicTiering, StatsExposeDirections)
{
    Engine eng(tinyConfig());
    const ObjectDynamicStats &st = dynamicStats(eng);
    EXPECT_EQ(st.rebalances, 0u);
    EXPECT_EQ(st.pagesMovedUp + st.pagesMovedDown, 0u);
}

}  // namespace
}  // namespace memtier
