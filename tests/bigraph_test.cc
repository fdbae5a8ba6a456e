/**
 * @file
 * Tests for the segmented/streaming CSR subsystem: segment-count-1
 * bit-identity against the monolithic loader, out-of-core determinism,
 * cross-segment traversal correctness against the host references, and
 * a chaos run with faults and invariants armed under pressured DRAM.
 */

#include <sys/resource.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/bfs.h"
#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "bigraph/ooc_builder.h"
#include "bigraph/segmented_csr.h"
#include "exp/runner.h"
#include "fault/fault_plan.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/sim_graph.h"
#include "runtime/sim_heap.h"

namespace memtier {
namespace {

SystemConfig
testConfig()
{
    SystemConfig cfg;
    cfg.dram = makeDramParams(1024 * kPageSize);
    cfg.nvm = makeNvmParams(4096 * kPageSize);
    return cfg;
}

CsrGraph
hostGraphFor(const BigraphSpec &spec)
{
    EdgeList edges =
        spec.kind == BigraphKind::Kron
            ? generateKron(spec.scale, spec.degree, spec.seed)
            : generateUrand(spec.scale, spec.degree, spec.seed);
    CsrGraph g = CsrGraph::fromEdgeList(
        static_cast<NodeId>(1LL << spec.scale), edges);
    if (spec.weighted)
        g.generateWeights(spec.seed ^ 0x5eed);
    return g;
}

// ----------------------------------------------------- Golden identity

TEST(SegmentedCsr, SegmentOneBitIdenticalToMonolithic)
{
    BigraphSpec spec;
    spec.scale = 12;
    spec.degree = 8;
    spec.segments = 1;
    const CsrGraph host = hostGraphFor(spec);

    // Monolithic: host graph through SimCsrGraph::load.
    Engine eng_a(testConfig());
    SimHeap heap_a(eng_a);
    SimCsrGraph mono =
        SimCsrGraph::load(eng_a, heap_a, eng_a.thread(0), host, "bg");
    const std::uint64_t load_a = eng_a.globalTime();
    const PageRankOutput pr_a = runPageRank(eng_a, heap_a, mono, 3);
    const std::uint64_t total_a = eng_a.globalTime();

    // Segmented with one segment: out-of-core build of the same spec.
    Engine eng_b(testConfig());
    SimHeap heap_b(eng_b);
    SegmentedCsrGraph seg = SegmentedCsrGraph::generate(
        eng_b, heap_b, eng_b.thread(0), spec, "bg");
    const std::uint64_t load_b = eng_b.globalTime();
    const PageRankOutput pr_b =
        runPageRank(eng_b, heap_b, seg, 3);
    const std::uint64_t total_b = eng_b.globalTime();

    EXPECT_EQ(seg.segmentCount(), 1u);
    EXPECT_EQ(seg.numNodes(), host.numNodes());
    EXPECT_EQ(seg.numEdges(), host.numEdges());

    // Same simulated cycle counts for the load and the full run: the
    // one-segment build issues exactly the monolithic access sequence.
    EXPECT_EQ(load_b, load_a);
    EXPECT_EQ(total_b, total_a);

    // Same result, same per-level access counts.
    ASSERT_EQ(pr_b.rank.size(), pr_a.rank.size());
    for (std::size_t v = 0; v < pr_a.rank.size(); ++v)
        ASSERT_EQ(pr_b.rank[v], pr_a.rank[v]) << "vertex " << v;
    for (int l = 0; l < kNumMemLevels; ++l) {
        EXPECT_EQ(eng_b.levelCount(static_cast<MemLevel>(l)),
                  eng_a.levelCount(static_cast<MemLevel>(l)))
            << "level " << l;
    }

    mono.free(heap_a, eng_a.thread(0));
    seg.free(heap_b, eng_b.thread(0));
    clearBigraphArtifacts();
}

// --------------------------------------------------- Content equality

TEST(SegmentedCsr, SegmentsHoldExactlyTheMonolithicContent)
{
    BigraphSpec spec;
    spec.scale = 11;
    spec.degree = 8;
    const CsrGraph host = hostGraphFor(spec);
    const auto &offs = host.offsets();
    const auto &adj = host.adjacency();

    // 2048 rows: one segment, then 683 and 293 rows per segment with a
    // short last segment (682 and 290 rows).
    for (const std::uint32_t segments : {1u, 3u, 7u}) {
        spec.segments = segments;
        Engine eng(testConfig());
        SimHeap heap(eng);
        SegmentedCsrGraph seg = SegmentedCsrGraph::generate(
            eng, heap, eng.thread(0), spec, "bg_content");
        ASSERT_EQ(seg.segmentCount(), segments);
        ASSERT_EQ(seg.numEdges(), host.numEdges());
        if (segments > 1) {
            EXPECT_LT(seg.segments().back().rowCount(),
                      seg.segments().front().rowCount());
        }

        for (const CsrSegment &s : seg.segments()) {
            // Index: global offsets, terminator included (the boundary
            // offset is duplicated into the next segment's first
            // entry).
            for (NodeId r = s.firstRow; r <= s.rowEnd; ++r) {
                ASSERT_EQ(s.index.raw(static_cast<std::uint64_t>(
                              r - s.firstRow)),
                          offs[static_cast<std::size_t>(r)])
                    << "segments " << segments << " row " << r;
            }
            for (std::int64_t e = s.edgeBase; e < s.edgeEnd; ++e) {
                ASSERT_EQ(s.adj.raw(static_cast<std::uint64_t>(
                              e - s.edgeBase)),
                          adj[static_cast<std::size_t>(e)])
                    << "segments " << segments << " edge " << e;
            }
        }

        seg.free(heap, eng.thread(0));
        clearBigraphArtifacts();
    }
}

TEST(SegmentedCsrDeathTest, LostSpillTailIsFatal)
{
    // Each ~2 KiB bucket sits wholly in stdio's buffer and reaches the
    // disk only when the file is closed. A 1 KiB file-size limit makes
    // that flush fail, and the build must stop rather than read back a
    // short bucket. (The limit leaves room for the error message in the
    // captured stderr file.)
    const std::string dir = "bigraph_flush_test_spill";
    BigraphSpec spec;
    spec.scale = 6;
    spec.degree = 4;
    spec.segments = 2;
    EXPECT_EXIT(
        {
            setenv("MEMTIER_SPILL_DIR", dir.c_str(), 1);
            std::signal(SIGXFSZ, SIG_IGN);
            rlimit limit{};
            getrlimit(RLIMIT_FSIZE, &limit);
            limit.rlim_cur = 1024;
            setrlimit(RLIMIT_FSIZE, &limit);
            prepareBigraph(spec);
        },
        ::testing::ExitedWithCode(1), "cannot flush .*seg0\\.pairs");
    std::filesystem::remove_all(dir);
}

// ------------------------------------------------- Build determinism

TEST(SegmentedCsr, OocBuildDeterministicAndOrderIndependent)
{
    BigraphSpec spec;
    spec.scale = 11;
    spec.degree = 8;
    spec.segments = 4;

    Engine eng_a(testConfig());
    SimHeap heap_a(eng_a);
    SegmentedCsrGraph a = SegmentedCsrGraph::generate(
        eng_a, heap_a, eng_a.thread(0), spec, "bg_det");
    const std::uint32_t count_a = a.segmentCount();
    const std::int64_t edges_a = a.numEdges();
    std::vector<std::uint64_t> sums_a;
    for (std::uint32_t k = 0; k < count_a; ++k)
        sums_a.push_back(a.segmentChecksum(k));
    a.free(heap_a, eng_a.thread(0));

    // Regenerate from scratch (artifact cache dropped) with the
    // segment build order reversed: per-segment content -- and so the
    // checksums -- must not change.
    clearBigraphArtifacts();
    spec.reverseBuild = true;
    Engine eng_b(testConfig());
    SimHeap heap_b(eng_b);
    SegmentedCsrGraph b = SegmentedCsrGraph::generate(
        eng_b, heap_b, eng_b.thread(0), spec, "bg_det");
    ASSERT_EQ(b.segmentCount(), count_a);
    for (std::uint32_t k = 0; k < b.segmentCount(); ++k)
        EXPECT_EQ(b.segmentChecksum(k), sums_a[k]) << "segment " << k;
    EXPECT_EQ(b.numEdges(), edges_a);
    b.free(heap_b, eng_b.thread(0));
    clearBigraphArtifacts();
}

// ---------------------------------------------- Traversal correctness

TEST(SegmentedCsr, CrossSegmentBfsMatchesHost)
{
    BigraphSpec spec;
    spec.scale = 11;
    spec.degree = 8;
    spec.segments = 3;
    const CsrGraph host = hostGraphFor(spec);

    Engine eng(testConfig());
    SimHeap heap(eng);
    SegmentedCsrGraph seg = SegmentedCsrGraph::generate(
        eng, heap, eng.thread(0), spec, "bg_bfs");

    const NodeId source = 1;
    const BfsOutput out = runBfs(eng, heap, seg, source);
    const std::vector<std::int64_t> depth = hostBfsDepths(host, source);
    std::int64_t reached = 0;
    for (NodeId v = 0; v < host.numNodes(); ++v) {
        const auto vi = static_cast<std::size_t>(v);
        if (depth[vi] == -1) {
            EXPECT_EQ(out.parent[vi], -1) << "vertex " << v;
        } else {
            ++reached;
            ASSERT_NE(out.parent[vi], -1) << "vertex " << v;
            if (v != source) {
                // Parent must be exactly one level above.
                const auto pi =
                    static_cast<std::size_t>(out.parent[vi]);
                EXPECT_EQ(depth[pi] + 1, depth[vi]) << "vertex " << v;
            }
        }
    }
    EXPECT_EQ(out.reached, reached);

    seg.free(heap, eng.thread(0));
    clearBigraphArtifacts();
}

TEST(SegmentedCsr, CrossSegmentPageRankMatchesHost)
{
    BigraphSpec spec;
    spec.scale = 11;
    spec.degree = 8;
    spec.segments = 5;
    const CsrGraph host = hostGraphFor(spec);

    Engine eng(testConfig());
    SimHeap heap(eng);
    SegmentedCsrGraph seg = SegmentedCsrGraph::generate(
        eng, heap, eng.thread(0), spec, "bg_pr");

    const PageRankOutput out = runPageRank(eng, heap, seg, 5);
    const std::vector<double> want = hostPageRank(host, 5);
    for (std::size_t v = 0; v < want.size(); ++v)
        EXPECT_NEAR(out.rank[v], want[v], 1e-12) << "vertex " << v;

    seg.free(heap, eng.thread(0));
    clearBigraphArtifacts();
}

TEST(SegmentedCsr, CrossSegmentWeightedSsspMatchesHost)
{
    BigraphSpec spec;
    spec.scale = 10;
    spec.degree = 8;
    spec.segments = 4;
    spec.weighted = true;
    const CsrGraph host = hostGraphFor(spec);

    Engine eng(testConfig());
    SimHeap heap(eng);
    SegmentedCsrGraph seg = SegmentedCsrGraph::generate(
        eng, heap, eng.thread(0), spec, "bg_sssp");
    ASSERT_TRUE(seg.hasWeights());

    const NodeId source = 3;
    const SsspOutput out = runSssp(eng, heap, seg, source);
    const std::vector<std::int64_t> want =
        hostSsspDistances(host, source);
    ASSERT_EQ(out.dist.size(), want.size());
    for (std::size_t v = 0; v < want.size(); ++v)
        ASSERT_EQ(out.dist[v], want[v]) << "vertex " << v;

    seg.free(heap, eng.thread(0));
    clearBigraphArtifacts();
}

// ------------------------------------------------------------- Chaos

TEST(SegmentedCsr, ChaosRunWithFaultsAndInvariantsStaysCorrect)
{
    // Segmented PageRank under pressured DRAM: the clean run pins the
    // expected checksum, then migration faults + the invariant checker
    // are armed -- recoverable faults must not change the output.
    RunConfig rc;
    rc.workload.app = App::BFS;
    rc.workload.kind = GraphKind::Kron;
    rc.workload.scale = 13;
    rc.workload.trials = 4;
    rc.workload.segments = 4;
    rc.sampling = false;
    rc.sys.dram = makeDramParams(192 * kPageSize);
    rc.sys.nvm = makeNvmParams(4096 * kPageSize);
    rc.sys.autonuma.scanPeriod = secondsToCycles(0.0005);
    rc.sys.autonuma.adjustPeriod = secondsToCycles(0.002);
    rc.sys.autonuma.rateLimitBytesPerSec = 4 * kMiB;

    const RunResult clean = runWorkload(rc);
    EXPECT_EQ(clean.faultsInjected, 0u);

    rc.sys.faults =
        FaultPlan::parseOrDie("migrate:p=0.2,burst=8;seed=7");
    rc.sys.checkInvariants = true;
    const RunResult chaos = runWorkload(rc);

    EXPECT_EQ(chaos.outputChecksum, clean.outputChecksum);
    EXPECT_GT(chaos.faultsInjected, 0u);
    EXPECT_GT(chaos.invariantChecksRun, 0u);
    clearBigraphArtifacts();
}

}  // namespace
}  // namespace memtier
