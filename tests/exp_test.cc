/**
 * @file
 * Unit tests for the experiment harness helpers: report formatting,
 * workload registry, the dataset cache, the policy plane's goldens,
 * the benches' integer flag parser and their record writer.
 */

#include <climits>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/workloads.h"

namespace memtier {
namespace {

// --------------------------------------------------------------- report

TEST(Report, TableAlignsColumns)
{
    TextTable table({"a", "long_header"});
    table.addRow({"xx", "1"});
    table.addRow({"y", "22"});
    std::ostringstream out;
    table.print(out);
    const std::string text = out.str();
    // Header, separator, two rows.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
    EXPECT_NE(text.find("a   long_header"), std::string::npos);
    EXPECT_EQ(table.rows(), 2u);
}

TEST(Report, Percent)
{
    EXPECT_EQ(pct(0.4911), "49.1%");
    EXPECT_EQ(pct(0.0), "0.0%");
    EXPECT_EQ(pct(1.0, 0), "100%");
    EXPECT_EQ(pct(-0.06), "-6.0%");
}

TEST(Report, Num)
{
    EXPECT_EQ(num(3.14159, 2), "3.14");
    EXPECT_EQ(num(2.0, 0), "2");
}

TEST(Report, FmtBytes)
{
    EXPECT_EQ(fmtBytes(512), "512.0 B");
    EXPECT_EQ(fmtBytes(8192), "8.0 KiB");
    EXPECT_EQ(fmtBytes(24 * kMiB), "24.0 MiB");
    EXPECT_EQ(fmtBytes(3 * kGiB), "3.0 GiB");
}

TEST(Report, FmtCount)
{
    EXPECT_EQ(fmtCount(0), "0");
    EXPECT_EQ(fmtCount(999), "999");
    EXPECT_EQ(fmtCount(1000), "1,000");
    EXPECT_EQ(fmtCount(1234567), "1,234,567");
}

TEST(Report, Banner)
{
    std::ostringstream out;
    banner(out, "hello");
    EXPECT_EQ(out.str(), "\n=== hello ===\n");
}

// ------------------------------------------------------------ workloads

TEST(Workloads, Names)
{
    EXPECT_STREQ(appName(App::BC), "bc");
    EXPECT_STREQ(appName(App::SSSP), "sssp");
    EXPECT_STREQ(graphKindName(GraphKind::Urand), "urand");
    WorkloadSpec w;
    w.app = App::CC;
    w.kind = GraphKind::Urand;
    EXPECT_EQ(w.name(), "cc_urand");
}

TEST(Workloads, PaperMatrixIsSixCombos)
{
    const auto list = paperWorkloads(12);
    ASSERT_EQ(list.size(), 6u);
    for (const auto &w : list) {
        EXPECT_EQ(w.scale, 12);
        EXPECT_GT(w.trials, 0);
    }
}

TEST(Workloads, DatasetCacheReturnsSameInstance)
{
    const auto a = datasetGraph(GraphKind::Urand, 8, 4, 1);
    const auto b = datasetGraph(GraphKind::Urand, 8, 4, 1);
    EXPECT_EQ(a.get(), b.get());
    const auto c = datasetGraph(GraphKind::Urand, 8, 4, 2);
    EXPECT_NE(a.get(), c.get());
}

TEST(Workloads, WeightedCacheIndependentOfUnweighted)
{
    const auto plain = datasetGraph(GraphKind::Kron, 8, 4, 1);
    const auto weighted = weightedDatasetGraph(GraphKind::Kron, 8, 4, 1);
    EXPECT_FALSE(plain->hasWeights());
    EXPECT_TRUE(weighted->hasWeights());
    EXPECT_EQ(plain->numEdges(), weighted->numEdges());
}

TEST(Workloads, DatasetCacheEvictsLeastRecentlyUsed)
{
    clearDatasetCache();
    const auto a = datasetGraph(GraphKind::Urand, 8, 4, 11);
    const std::uint64_t one = datasetCacheBytes();
    ASSERT_GT(one, 0u);
    // Cap to two graphs' worth: a third build must evict the oldest.
    setDatasetCacheCapBytes(2 * one + one / 2);
    const auto b = datasetGraph(GraphKind::Urand, 8, 4, 12);
    EXPECT_EQ(datasetCacheCount(), 2u);
    const auto c = datasetGraph(GraphKind::Urand, 8, 4, 13);
    EXPECT_EQ(datasetCacheCount(), 2u);
    EXPECT_LE(datasetCacheBytes(), 2 * one + one / 2);
    // "a" was evicted, but the shared_ptr still owns a live graph.
    EXPECT_EQ(a->numNodes(), 1 << 8);
    // Rebuilding "a" gives a fresh instance (cache no longer holds it).
    const auto a2 = datasetGraph(GraphKind::Urand, 8, 4, 11);
    EXPECT_NE(a.get(), a2.get());
    EXPECT_EQ(a->numEdges(), a2->numEdges());
    setDatasetCacheCapBytes(1ULL << 30);
    clearDatasetCache();
}

TEST(Runner, SamplingDoesNotPerturbTiming)
{
    // The PEBS-style sampler observes accesses but must never change
    // the simulation's timing or results (a property perf itself only
    // approximates).
    RunConfig rc;
    rc.workload.app = App::BFS;
    rc.workload.kind = GraphKind::Urand;
    rc.workload.scale = 12;
    rc.workload.trials = 2;
    rc.sys.dram = makeDramParams(512 * kPageSize);
    rc.sys.nvm = makeNvmParams(2048 * kPageSize);
    rc.sampling = true;
    const RunResult with = runWorkload(rc);
    rc.sampling = false;
    const RunResult without = runWorkload(rc);
    EXPECT_EQ(with.totalSeconds, without.totalSeconds);
    EXPECT_EQ(with.outputChecksum, without.outputChecksum);
    EXPECT_GT(with.samples.size(), 0u);
    EXPECT_EQ(without.samples.size(), 0u);
}

// ------------------------------------------------------ one policy plane
//
// Observables of one small PageRank run under each of the seven
// configurations the runner once selected through a Mode enum, captured
// before the enum was folded into the policy registry. Each entry's
// registry spelling must reproduce them bit for bit.

/** Captured observables of one configuration. */
struct PlaneGolden
{
    const char *mode;  ///< The configuration's report label.
    double totalSeconds;
    std::uint64_t levelCounts[kNumMemLevels];
    std::uint64_t outputChecksum;
    std::uint64_t pgpromoteSuccess;
    std::uint64_t pgdemoteKswapd;
    std::uint64_t pgdemoteDirect;
    std::uint64_t pgmigrateSuccess;
    std::uint64_t numaHintFaults;
};

/** Names the parameter in test listings. */
void
PrintTo(const PlaneGolden &g, std::ostream *os)
{
    *os << g.mode;
}

const PlaneGolden kPlaneGoldens[] = {
    {"autonuma", 0.027645876153846154,
     {2013211u, 2388220u, 705052u, 33367u, 49278u, 73917u},
     0x97e421a1324e5b5cull, 131u, 112u, 64u, 307u, 3509u},
    {"notiering", 0.025622713461538462,
     {2010516u, 2391988u, 705151u, 33328u, 48374u, 73688u},
     0x97e421a1324e5b5cull, 0u, 0u, 0u, 0u, 0u},
    {"object_static", 0.024891386153846153,
     {2010850u, 2399264u, 705136u, 33349u, 34347u, 80099u},
     0x97e421a1324e5b5cull, 0u, 64u, 0u, 64u, 0u},
    {"object_spill", 0.024490470384615385,
     {2006192u, 2385583u, 704980u, 33283u, 97185u, 35822u},
     0x97e421a1324e5b5cull, 0u, 0u, 48u, 48u, 0u},
    {"object_dynamic", 0.025827999615384616,
     {2007111u, 2398948u, 705134u, 31951u, 38589u, 81312u},
     0x97e421a1324e5b5cull, 17u, 48u, 24u, 89u, 0u},
    {"all_dram", 0.023094076538461537,
     {2004130u, 2383075u, 704824u, 33371u, 137645u, 0u},
     0x97e421a1324e5b5cull, 0u, 0u, 0u, 0u, 0u},
    {"all_nvm", 0.027318475769230768,
     {2011970u, 2398392u, 705150u, 33327u, 3440u, 110766u},
     0x97e421a1324e5b5cull, 0u, 0u, 0u, 0u, 0u},
};

/**
 * Long enough (two threads, 24 iterations) for object-dynamic's default
 * 20 ms interval to rebalance, with compressed AutoNUMA clocks.
 */
RunConfig
planeGoldenConfig()
{
    RunConfig rc;
    rc.workload.app = App::PR;
    rc.workload.kind = GraphKind::Kron;
    rc.workload.scale = 12;
    rc.workload.trials = 24;
    rc.sys.dram = makeDramParams(96 * kPageSize);
    rc.sys.nvm = makeNvmParams(2048 * kPageSize);
    rc.sys.numThreads = 2;
    rc.sys.autonuma.scanPeriod = secondsToCycles(0.0005);
    rc.sys.autonuma.adjustPeriod = secondsToCycles(0.002);
    return rc;
}

/** @p mode spelled as a registry policy plus a placement plan. */
RunConfig
planeConfig(const std::string &mode)
{
    RunConfig rc = planeGoldenConfig();
    if (mode == "notiering") {
        rc.policy.clear();
    } else if (mode == "object_static" || mode == "object_spill") {
        rc.placement = planFromProfile(runWorkload(rc),
                                       rc.sys.dram.capacityBytes,
                                       mode == "object_spill");
    } else if (mode == "object_dynamic") {
        rc.policy = "object-dynamic";
    } else if (mode == "all_dram") {
        rc = tierBoundConfig(rc, MemNode::DRAM);
    } else if (mode == "all_nvm") {
        rc = tierBoundConfig(rc, MemNode::NVM);
    }
    return rc;
}

class PolicyPlane : public ::testing::TestWithParam<PlaneGolden>
{
};

TEST_P(PolicyPlane, MatchesCapturedMode)
{
    // Captured with 4 KiB pages only; MEMTIER_THP=ON legitimately
    // changes every counter.
    if (thpForcedByEnv())
        GTEST_SKIP() << "golden values captured with THP off";
    const PlaneGolden &g = GetParam();
    const RunResult r = runWorkload(planeConfig(g.mode));
    EXPECT_EQ(r.totalSeconds, g.totalSeconds);
    for (int l = 0; l < kNumMemLevels; ++l)
        EXPECT_EQ(r.levelCounts[l], g.levelCounts[l]) << "level " << l;
    EXPECT_EQ(r.outputChecksum, g.outputChecksum);
    EXPECT_EQ(r.vmstat.pgpromoteSuccess, g.pgpromoteSuccess);
    EXPECT_EQ(r.vmstat.pgdemoteKswapd, g.pgdemoteKswapd);
    EXPECT_EQ(r.vmstat.pgdemoteDirect, g.pgdemoteDirect);
    EXPECT_EQ(r.vmstat.pgmigrateSuccess, g.pgmigrateSuccess);
    EXPECT_EQ(r.vmstat.numaHintFaults, g.numaHintFaults);
}

INSTANTIATE_TEST_SUITE_P(
    SevenModes, PolicyPlane, ::testing::ValuesIn(kPlaneGoldens),
    [](const ::testing::TestParamInfo<PlaneGolden> &info) {
        return std::string(info.param.mode);
    });

// ------------------------------------------------------------ bench CLI

TEST(BenchArgs, StrictIntegerParser)
{
    EXPECT_EQ(parseIntArg("--trials", "12", 1, 100), 12);
    EXPECT_EQ(parseIntArg("--seed", "0", 0LL, LLONG_MAX), 0);
    const auto rejects = ::testing::ExitedWithCode(1);
    EXPECT_EXIT(parseIntArg("--segments", "abc", 1, 64), rejects,
                "--segments=\"abc\"");
    EXPECT_EXIT(parseIntArg("--rows SEGMENTS", "4y", 1, 64), rejects,
                "--rows SEGMENTS");
    EXPECT_EXIT(parseIntArg("--trials", "", 1, 100), rejects, "--trials");
    EXPECT_EXIT(parseIntArg("--trials", "0", 1, 100), rejects,
                "expected an integer in \\[1, 100\\]");
    EXPECT_EXIT(parseIntArg("--seed", "99999999999999999999", 0LL,
                            LLONG_MAX),
                rejects, "--seed");
    EXPECT_EXIT(
        {
            setenv("MEMTIER_SCALE", "26", 1);
            benchScale();
        },
        rejects, "MEMTIER_SCALE=\"26\"");
}

// ---------------------------------------------------------- bench record

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(BenchRecord, DoublesPrintAsOstreamDoes)
{
    for (const double v : {1.00904e7, 0.469983, 2.0, 1e-9, 0.1 + 0.2,
                           123456789.0}) {
        std::ostringstream want;
        want << "{\n  \"v\": " << v << "\n}\n";
        EXPECT_EQ(BenchRecord().set("v", v).json(), want.str());
    }
}

TEST(BenchRecord, ExactIntegersAndEscapedStrings)
{
    BenchRecord rec;
    rec.set("checksum", (std::uint64_t{1} << 53) + 1)
        .set("delta", std::int64_t{-5})
        .set("s", "a\"b\\c\n")
        .set("ok", true);
    EXPECT_EQ(rec.json(), "{\n"
                          "  \"checksum\": 9007199254740993,\n"
                          "  \"delta\": -5,\n"
                          "  \"s\": \"a\\\"b\\\\c\\u000a\",\n"
                          "  \"ok\": true\n"
                          "}\n");
}

TEST(BenchRecord, RowsCarryANestedObject)
{
    BenchRecord rec;
    rec.set("bench", "t");
    BenchRecord &row = rec.addRow("cells").set("p", 1);
    row.object("phases").object("peak").set("requests", 3);
    rec.addRow("cells").set("p", 2);
    EXPECT_EQ(rec.json(), "{\n"
                          "  \"bench\": \"t\",\n"
                          "  \"cells\": [\n"
                          "    {\"p\": 1, \"phases\": {\"peak\": "
                          "{\"requests\": 3}}},\n"
                          "    {\"p\": 2}\n"
                          "  ]\n"
                          "}\n");
}

TEST(BenchRecord, CsvGoesThroughCsvWriter)
{
    BenchRecord rec;
    rec.addRow("cells")
        .set("name", "a,b")
        .set("thp", true)
        .set("x", 0.25)
        .object("json_only")
        .set("y", 1);
    rec.addRow("cells").set("name", "say \"hi\"").set("thp", false).set(
        "x", 3.0);
    const std::string path = ::testing::TempDir() + "bench_record.csv";
    rec.writeCsv("cells", path);
    EXPECT_EQ(readFile(path), "name,thp,x\n"
                              "\"a,b\",1,0.25\n"
                              "\"say \"\"hi\"\"\",0,3\n");
}

TEST(BenchRecord, JsonFileIsStampedWithTheHost)
{
    const std::string path = ::testing::TempDir() + "bench_record.json";
    BenchRecord().set("bench", "t").writeJson(path);
    const std::string text = readFile(path);
    EXPECT_NE(text.find("\"host\": {\"cpu\": \""), std::string::npos);
    EXPECT_NE(text.find("\"cores\": "), std::string::npos);
}

TEST(BenchRecord, FailedWritesAreFatalAndNameThePath)
{
    BenchRecord rec;
    rec.addRow("cells").set("a", 1);
    const auto fails = ::testing::ExitedWithCode(1);
    EXPECT_EXIT(rec.writeJson("/dev/full"), fails, "/dev/full");
    EXPECT_EXIT(rec.writeCsv("cells", "/dev/full"), fails, "/dev/full");
    EXPECT_EXIT(rec.writeJson("/nonexistent/bench.json"), fails,
                "/nonexistent/bench.json");
}

}  // namespace
}  // namespace memtier
