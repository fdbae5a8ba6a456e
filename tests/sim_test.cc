/**
 * @file
 * Unit tests for the simulation engine: access path levels and costs,
 * fault integration, thread interleaving, barriers, services, TLB
 * shootdown and the timeline.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/engine.h"

namespace memtier {
namespace {

/** Small deterministic machine for engine tests. */
SystemConfig
tinyConfig(std::uint32_t threads = 4)
{
    SystemConfig cfg;
    cfg.dram = makeDramParams(512 * kPageSize);
    cfg.nvm = makeNvmParams(2048 * kPageSize);
    cfg.numThreads = threads;
    return cfg;
}

/** Records every access the engine reports. */
class RecordingObserver : public AccessObserver
{
  public:
    void onAccess(const AccessRecord &r) override { records.push_back(r); }
    std::vector<AccessRecord> records;
};

TEST(Engine, FirstAccessFaultsToDram)
{
    Engine eng(tinyConfig());
    ThreadContext &t = eng.thread(0);
    const Addr a = eng.sysMmap(t, 64 * kPageSize, 0, "obj");
    eng.load(t, a);
    EXPECT_EQ(eng.kernel().vmstat().pgfault, 1u);
    EXPECT_EQ(eng.kernel().nodeOf(pageOf(a)), MemNode::DRAM);
    EXPECT_EQ(eng.levelCount(MemLevel::DRAM), 1u);
}

TEST(Engine, RepeatAccessHitsL1)
{
    Engine eng(tinyConfig());
    ThreadContext &t = eng.thread(0);
    const Addr a = eng.sysMmap(t, kPageSize, 0, "obj");
    eng.load(t, a);
    const Cycles before = t.clock();
    eng.load(t, a);
    const Cycles hit_cost = t.clock() - before;
    // L1 hit (or LFB residency window): small cost.
    EXPECT_LE(hit_cost, eng.config().issueCycles +
                            eng.config().cache.l3Latency);
    EXPECT_GE(eng.levelCount(MemLevel::L1) +
                  eng.levelCount(MemLevel::LFB),
              1u);
}

TEST(Engine, NvmAccessSlowerThanDram)
{
    SystemConfig cfg = tinyConfig();
    Engine eng(cfg);
    ThreadContext &t = eng.thread(0);

    const Addr dram_obj = eng.sysMmap(t, kPageSize, 0, "d");
    eng.kernel().mbind(dram_obj, MemPolicy::bind(MemNode::DRAM));
    const Addr nvm_obj = eng.sysMmap(t, kPageSize, 1, "n");
    eng.kernel().mbind(nvm_obj, MemPolicy::bind(MemNode::NVM));

    // Fault both in, then measure a cold (post-flush) load from each.
    eng.load(t, dram_obj);
    eng.load(t, nvm_obj);
    t.l1.clear();
    t.l2.clear();
    t.lfb = LineFillBuffer();

    Cycles c0 = t.clock();
    eng.load(t, dram_obj + 8 * kLineSize);
    const Cycles dram_cost = t.clock() - c0;
    t.l1.clear();
    t.l2.clear();
    c0 = t.clock();
    eng.load(t, nvm_obj + 8 * kLineSize);
    const Cycles nvm_cost = t.clock() - c0;

    EXPECT_GT(nvm_cost, dram_cost);
    EXPECT_EQ(eng.levelCount(MemLevel::NVM), 2u);
}

TEST(Engine, TlbMissReportedOnFirstTouch)
{
    Engine eng(tinyConfig());
    RecordingObserver obs;
    eng.setObserver(&obs);
    ThreadContext &t = eng.thread(0);
    const Addr a = eng.sysMmap(t, kPageSize, 0, "obj");
    eng.load(t, a);
    eng.load(t, a);
    ASSERT_EQ(obs.records.size(), 2u);
    EXPECT_TRUE(obs.records[0].tlbMiss);
    EXPECT_FALSE(obs.records[1].tlbMiss);
}

TEST(Engine, ShootdownInvalidatesAllThreads)
{
    Engine eng(tinyConfig(3));
    ThreadContext &t0 = eng.thread(0);
    const Addr a = eng.sysMmap(t0, kPageSize, 0, "obj");
    for (std::uint32_t i = 0; i < 3; ++i)
        eng.load(eng.thread(i), a);
    eng.tlbShootdown(pageOf(a));
    RecordingObserver obs;
    eng.setObserver(&obs);
    for (std::uint32_t i = 0; i < 3; ++i)
        eng.load(eng.thread(i), a);
    for (const auto &r : obs.records)
        EXPECT_TRUE(r.tlbMiss);
}

TEST(Engine, ParallelForCoversRangeExactlyOnce)
{
    Engine eng(tinyConfig(5));
    std::vector<int> hits(1000, 0);
    eng.parallelFor(1000, [&](ThreadContext &, std::uint64_t i) {
        ++hits[i];
    });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(Engine, ParallelForPartitionsAcrossThreads)
{
    Engine eng(tinyConfig(4));
    std::vector<std::uint64_t> per_thread(4, 0);
    eng.parallelFor(100, [&](ThreadContext &t, std::uint64_t) {
        ++per_thread[t.id()];
    });
    for (const auto count : per_thread)
        EXPECT_EQ(count, 25u);
}

TEST(Engine, ParallelForBarrierAlignsClocks)
{
    Engine eng(tinyConfig(4));
    ThreadContext &t0 = eng.thread(0);
    const Addr a = eng.sysMmap(t0, 64 * kPageSize, 0, "obj");
    eng.parallelFor(64, [&](ThreadContext &t, std::uint64_t i) {
        eng.store(t, a + i * kLineSize * 7 % (64 * kPageSize));
    });
    const Cycles c = eng.thread(0).clock();
    for (std::uint32_t i = 1; i < 4; ++i)
        EXPECT_EQ(eng.thread(i).clock(), c);
}

TEST(Engine, ParallelForDeterministic)
{
    auto run = [] {
        Engine eng(tinyConfig(4));
        ThreadContext &t0 = eng.thread(0);
        const Addr a = eng.sysMmap(t0, 256 * kPageSize, 0, "obj");
        eng.parallelFor(4096, [&](ThreadContext &t, std::uint64_t i) {
            eng.store(t, a + (i * 97) % (256 * kPageSize));
        });
        return eng.globalTime();
    };
    EXPECT_EQ(run(), run());
}

TEST(Engine, ParallelForEmptyRange)
{
    Engine eng(tinyConfig());
    const Cycles before = eng.globalTime();
    eng.parallelFor(0, [&](ThreadContext &, std::uint64_t) {
        FAIL() << "body must not run";
    });
    EXPECT_EQ(eng.globalTime(), before);
}

TEST(Engine, ParallelForFewerItemsThanThreads)
{
    Engine eng(tinyConfig(8));
    int runs = 0;
    eng.parallelFor(3, [&](ThreadContext &, std::uint64_t) { ++runs; });
    EXPECT_EQ(runs, 3);
}

TEST(Engine, StoresAllocateAndDirtyWritebacksFlow)
{
    SystemConfig cfg = tinyConfig(1);
    Engine eng(cfg);
    ThreadContext &t = eng.thread(0);
    const Addr a = eng.sysMmap(t, 256 * kPageSize, 0, "obj");
    // Write a working set far larger than L1+L2+L3 to force dirty
    // evictions all the way to memory.
    for (Addr off = 0; off < 256 * kPageSize; off += kLineSize)
        eng.store(t, a + off);
    for (Addr off = 0; off < 256 * kPageSize; off += kLineSize)
        eng.store(t, a + off);
    EXPECT_GT(eng.thread(0).l1.writebacks() +
                  eng.thread(0).l2.writebacks() +
                  eng.sharedL3().writebacks(),
              0u);
}

TEST(Engine, TimelineSamplesAdvance)
{
    SystemConfig cfg = tinyConfig(2);
    cfg.timelinePeriod = secondsToCycles(0.0001);
    Engine eng(cfg);
    ThreadContext &t = eng.thread(0);
    const Addr a = eng.sysMmap(t, 128 * kPageSize, 0, "obj");
    for (Addr off = 0; off < 128 * kPageSize; off += kLineSize)
        eng.store(t, a + off);
    ASSERT_GT(eng.timeline().size(), 2u);
    double prev = -1.0;
    for (const auto &p : eng.timeline()) {
        EXPECT_GT(p.sec, prev);
        prev = p.sec;
    }
}

TEST(Engine, KswapdServiceRunsUnderPressure)
{
    SystemConfig cfg = tinyConfig(1);
    cfg.dram = makeDramParams(128 * kPageSize);
    cfg.kswapdPeriod = secondsToCycles(0.0001);
    Engine eng(cfg);
    ThreadContext &t = eng.thread(0);
    const Addr a = eng.sysMmap(t, 256 * kPageSize, 0, "obj");
    for (Addr off = 0; off < 256 * kPageSize; off += kPageSize)
        eng.store(t, a + off);
    // Drive time forward so kswapd ticks fire.
    for (Addr off = 0; off < 256 * kPageSize; off += kLineSize)
        eng.load(t, a + off);
    EXPECT_GT(eng.kernel().vmstat().pgdemoteKswapd, 0u);
}

TEST(Engine, FileReadPopulatesPageCache)
{
    Engine eng(tinyConfig(1));
    ThreadContext &t = eng.thread(0);
    const Addr f = eng.registerFile(8 * kPageSize, "in.sg");
    const Cycles before = t.clock();
    eng.fileReadPage(t, pageOf(f));
    EXPECT_GT(t.clock(), before);  // Disk fetch charged.
    const Cycles mid = t.clock();
    eng.fileReadPage(t, pageOf(f));
    EXPECT_EQ(t.clock(), mid);  // Cached: free.
    EXPECT_EQ(eng.kernel().numastat().cachePages[0], 1u);
}

TEST(Engine, GlobalTimeIsMaxClock)
{
    Engine eng(tinyConfig(3));
    eng.thread(1).setClock(5000);
    EXPECT_EQ(eng.globalTime(), 5000u);
    eng.barrier();
    EXPECT_GE(eng.thread(0).clock(), 5000u);
}

TEST(Engine, ObserverLatencyPositive)
{
    Engine eng(tinyConfig(1));
    RecordingObserver obs;
    eng.setObserver(&obs);
    ThreadContext &t = eng.thread(0);
    const Addr a = eng.sysMmap(t, kPageSize, 0, "obj");
    eng.load(t, a);
    ASSERT_EQ(obs.records.size(), 1u);
    EXPECT_GT(obs.records[0].latency, 0u);
    EXPECT_EQ(obs.records[0].level, MemLevel::DRAM);
    EXPECT_EQ(obs.records[0].op, MemOp::Load);
}

TEST(Engine, AutonumaDisabledHasNoPolicy)
{
    SystemConfig cfg = tinyConfig(1);
    cfg.policyName.clear();
    Engine eng(cfg);
    EXPECT_EQ(eng.autonuma(), nullptr);
}

TEST(Engine, AutonumaEnabledScansEventually)
{
    SystemConfig cfg = tinyConfig(1);
    cfg.autonuma.scanPeriod = secondsToCycles(0.0001);
    Engine eng(cfg);
    ThreadContext &t = eng.thread(0);
    const Addr a = eng.sysMmap(t, 64 * kPageSize, 0, "obj");
    for (int pass = 0; pass < 20; ++pass) {
        for (Addr off = 0; off < 64 * kPageSize; off += kLineSize)
            eng.load(t, a + off);
    }
    ASSERT_NE(eng.autonuma(), nullptr);
    EXPECT_GT(eng.autonuma()->stats().pagesScanned, 0u);
    EXPECT_GT(eng.kernel().vmstat().numaHintFaults, 0u);
}

// Parameterized: thread-count sweep for parallelFor coverage invariants.
class ParallelForSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(ParallelForSweep, SumMatchesAnyThreadCount)
{
    Engine eng(tinyConfig(GetParam()));
    std::uint64_t sum = 0;
    eng.parallelFor(257, [&](ThreadContext &, std::uint64_t i) {
        sum += i;
    });
    EXPECT_EQ(sum, 257u * 256u / 2u);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelForSweep,
                         ::testing::Values(1, 2, 3, 7, 18));

// MEMTIER_COPY_THREADS accepts exactly the copy_threads tunable's
// integer range [1, 64], and the engine runs on one host thread only.
// Each rejected value fails before anything is sized from it.
TEST(EngineDeathTest, WorkerCountsOutsideTheirRangeAreFatal)
{
    for (const char *bad : {"abc", "0", "65", "4294967297", "4x"}) {
        EXPECT_EXIT(
            {
                setenv("MEMTIER_COPY_THREADS", bad, 1);
                Engine eng(tinyConfig());
            },
            ::testing::ExitedWithCode(1),
            "MEMTIER_COPY_THREADS=.*expected an integer in \\[1, 64\\]")
            << bad;
    }
    SystemConfig two_hosts = tinyConfig();
    two_hosts.hostThreads = 2;
    EXPECT_EXIT(Engine eng(two_hosts), ::testing::ExitedWithCode(1),
                "hostThreads=2");

    ASSERT_EQ(setenv("MEMTIER_COPY_THREADS", "64", 1), 0);
    Engine widest(tinyConfig());
    ASSERT_EQ(unsetenv("MEMTIER_COPY_THREADS"), 0);
    EXPECT_EQ(widest.kernel().copyEngine().params().workers, 64u);
}

}  // namespace
}  // namespace memtier
