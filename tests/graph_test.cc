/**
 * @file
 * Unit tests for the graph library: CSR construction, generators and
 * the simulated-memory graph loader.
 */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/sim_graph.h"

namespace memtier {
namespace {

// ------------------------------------------------------------- CsrGraph

TEST(CsrGraph, BuildsSymmetricAdjacency)
{
    const EdgeList edges{{0, 1}, {1, 2}};
    const CsrGraph g = CsrGraph::fromEdgeList(3, edges);
    EXPECT_EQ(g.numNodes(), 3);
    EXPECT_EQ(g.numEdges(), 4);  // Both directions.
    EXPECT_EQ(g.degree(0), 1);
    EXPECT_EQ(g.degree(1), 2);
    EXPECT_EQ(g.degree(2), 1);
    EXPECT_EQ(g.neighbors(1)[0], 0);
    EXPECT_EQ(g.neighbors(1)[1], 2);
}

TEST(CsrGraph, RemovesSelfLoops)
{
    const EdgeList edges{{0, 0}, {0, 1}};
    const CsrGraph g = CsrGraph::fromEdgeList(2, edges);
    EXPECT_EQ(g.numEdges(), 2);
    EXPECT_EQ(g.degree(0), 1);
}

TEST(CsrGraph, DeduplicatesParallelEdges)
{
    const EdgeList edges{{0, 1}, {0, 1}, {1, 0}};
    const CsrGraph g = CsrGraph::fromEdgeList(2, edges);
    EXPECT_EQ(g.numEdges(), 2);
}

TEST(CsrGraph, NeighborsSortedAscending)
{
    const EdgeList edges{{0, 3}, {0, 1}, {0, 2}};
    const CsrGraph g = CsrGraph::fromEdgeList(4, edges);
    const auto n = g.neighbors(0);
    EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
}

TEST(CsrGraph, IsolatedVerticesHaveZeroDegree)
{
    const EdgeList edges{{0, 1}};
    const CsrGraph g = CsrGraph::fromEdgeList(5, edges);
    EXPECT_EQ(g.degree(3), 0);
    EXPECT_TRUE(g.neighbors(3).empty());
}

TEST(CsrGraph, OffsetsAreMonotone)
{
    const CsrGraph g =
        CsrGraph::fromEdgeList(8, generateUrand(3, 4, 5));
    const auto &off = g.offsets();
    EXPECT_EQ(off.size(), 9u);
    EXPECT_TRUE(std::is_sorted(off.begin(), off.end()));
    EXPECT_EQ(off.back(), g.numEdges());
}

TEST(CsrGraph, SerializedBytesLayout)
{
    const EdgeList edges{{0, 1}};
    const CsrGraph g = CsrGraph::fromEdgeList(2, edges);
    // Header (3x int64) + offsets (3x int64) + adjacency (2x int32).
    EXPECT_EQ(g.serializedBytes(), 24u + 24u + 8u);
}

/** The CSR as a global comparison sort + unique on (u, v) of both
 *  directions of every non-loop edge builds it: the reference model
 *  for fromEdgeList's counting sort. */
struct ReferenceCsr
{
    std::vector<std::int64_t> offsets;
    std::vector<NodeId> adjacency;
};

ReferenceCsr
referenceCsr(NodeId num_nodes, const EdgeList &edges)
{
    std::vector<Edge> directed;
    for (const Edge &e : edges) {
        if (e.u == e.v)
            continue;
        directed.push_back({e.u, e.v});
        directed.push_back({e.v, e.u});
    }
    const auto less = [](const Edge &a, const Edge &b) {
        return a.u != b.u ? a.u < b.u : a.v < b.v;
    };
    const auto same = [](const Edge &a, const Edge &b) {
        return a.u == b.u && a.v == b.v;
    };
    std::sort(directed.begin(), directed.end(), less);
    directed.erase(std::unique(directed.begin(), directed.end(), same),
                   directed.end());
    ReferenceCsr ref;
    ref.offsets.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
    for (const Edge &e : directed)
        ++ref.offsets[static_cast<std::size_t>(e.u) + 1];
    for (std::size_t i = 1; i < ref.offsets.size(); ++i)
        ref.offsets[i] += ref.offsets[i - 1];
    for (const Edge &e : directed)
        ref.adjacency.push_back(e.v);
    return ref;
}

TEST(CsrGraph, MatchesGlobalSortReferenceOnRandomMultigraphs)
{
    // Duplicates in both orientations, self loops, isolated first and
    // last ids, and (at n = 4096) one hub row of degree >= 1000.
    Rng rng(4242);
    for (const NodeId n : {3, 40, 513, 4096}) {
        EdgeList edges;
        const auto inner = [&] {
            return static_cast<NodeId>(
                1 + rng.nextBounded(static_cast<std::uint64_t>(n - 2)));
        };
        for (NodeId i = 0; i < 4 * n; ++i) {
            const NodeId u = inner();
            const NodeId v = rng.nextBool(0.125) ? u : inner();
            edges.push_back({u, v});
            if (rng.nextBool(0.25))
                edges.push_back({u, v});
            if (rng.nextBool(0.25))
                edges.push_back({v, u});
        }
        const NodeId hub = n / 2;
        if (n > 1100) {
            for (NodeId v = 1; v <= 1100; ++v) {
                edges.push_back({hub, v});
                if (v % 3 == 0)
                    edges.push_back({v, hub});
            }
        }
        for (std::size_t i = edges.size(); i > 1; --i)
            std::swap(edges[i - 1], edges[rng.nextBounded(i)]);

        const CsrGraph g = CsrGraph::fromEdgeList(n, edges);
        const ReferenceCsr ref = referenceCsr(n, edges);
        ASSERT_EQ(g.offsets(), ref.offsets) << "n " << n;
        ASSERT_EQ(g.adjacency(), ref.adjacency) << "n " << n;
        // No pre-dedup capacity is kept.
        EXPECT_EQ(g.adjacency().capacity(), g.adjacency().size());
        EXPECT_EQ(g.degree(0), 0);
        EXPECT_EQ(g.degree(n - 1), 0);
        if (n > 1100) {
            EXPECT_GE(g.degree(hub), 1000);
        }
    }
}

TEST(CsrGraph, KronScale16DigestIsPinned)
{
    // FNV-1a over offsets() then adjacency() of the kron 2^16 / degree
    // 16 CSR. Any change to the generator's draws or to the build's
    // row order or dedup shows up here.
    const CsrGraph g =
        CsrGraph::fromEdgeList(1 << 16, generateKron(16, 16, 27491));
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&](std::uint64_t word) {
        for (int i = 0; i < 8; ++i) {
            h ^= (word >> (i * 8)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const std::int64_t o : g.offsets())
        mix(static_cast<std::uint64_t>(o));
    for (const NodeId v : g.adjacency())
        mix(static_cast<std::uint32_t>(v));
    EXPECT_EQ(g.numEdges(), 1818342);
    EXPECT_EQ(h, 0x716e9d3438ee75e0ULL);
}

// ----------------------------------------------------------- Generators

TEST(Generators, KronDeterministic)
{
    const EdgeList a = generateKron(8, 4, 7);
    const EdgeList b = generateKron(8, 4, 7);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].u, b[i].u);
        EXPECT_EQ(a[i].v, b[i].v);
    }
}

TEST(Generators, KronEdgeCountAndRange)
{
    const EdgeList edges = generateKron(10, 16, 1);
    EXPECT_EQ(edges.size(), (1u << 10) * 16u);
    for (const Edge &e : edges) {
        EXPECT_GE(e.u, 0);
        EXPECT_LT(e.u, 1 << 10);
        EXPECT_GE(e.v, 0);
        EXPECT_LT(e.v, 1 << 10);
    }
}

TEST(Generators, UrandEdgeCountAndRange)
{
    const EdgeList edges = generateUrand(10, 16, 1);
    EXPECT_EQ(edges.size(), (1u << 10) * 16u);
    for (const Edge &e : edges) {
        EXPECT_GE(e.u, 0);
        EXPECT_LT(e.u, 1 << 10);
    }
}

TEST(Generators, KronIsSkewedUrandIsNot)
{
    // The paper's two datasets differ exactly here: kron is power-law,
    // urand is uniform. Compare max degree.
    const CsrGraph kron = CsrGraph::fromEdgeList(
        1 << 12, generateKron(12, 16, 3));
    const CsrGraph urand = CsrGraph::fromEdgeList(
        1 << 12, generateUrand(12, 16, 3));
    std::int64_t kron_max = 0;
    std::int64_t urand_max = 0;
    for (NodeId v = 0; v < (1 << 12); ++v) {
        kron_max = std::max(kron_max, kron.degree(v));
        urand_max = std::max(urand_max, urand.degree(v));
    }
    EXPECT_GT(kron_max, 4 * urand_max);
}

TEST(Generators, SeedsProduceDifferentGraphs)
{
    const EdgeList a = generateUrand(8, 4, 1);
    const EdgeList b = generateUrand(8, 4, 2);
    int same = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        same += a[i].u == b[i].u && a[i].v == b[i].v;
    EXPECT_LT(same, static_cast<int>(a.size() / 10));
}

TEST(Generators, StreamingEmissionMatchesMaterialized)
{
    // The streaming emitters are the materializing generators' RNG
    // loops extracted verbatim; the edge sequences must be identical.
    const EdgeList kron = generateKron(9, 6, 17);
    std::size_t i = 0;
    forEachKronEdge(9, 6, 17, [&](NodeId u, NodeId v) {
        ASSERT_LT(i, kron.size());
        EXPECT_EQ(u, kron[i].u);
        EXPECT_EQ(v, kron[i].v);
        ++i;
    });
    EXPECT_EQ(i, kron.size());

    const EdgeList urand = generateUrand(9, 6, 17);
    i = 0;
    forEachUrandEdge(9, 6, 17, [&](NodeId u, NodeId v) {
        ASSERT_LT(i, urand.size());
        EXPECT_EQ(u, urand[i].u);
        EXPECT_EQ(v, urand[i].v);
        ++i;
    });
    EXPECT_EQ(i, urand.size());
}

TEST(Generators, SeedStableAtScale20)
{
    // Paper-scale seed stability, streamed so the test never holds the
    // edge list: two passes with the same seed must produce the same
    // edge checksum, a different seed must not.
    const auto checksum = [](std::uint64_t seed) {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        std::uint64_t count = 0;
        forEachKronEdge(20, 16, seed, [&](NodeId u, NodeId v) {
            const std::uint64_t packed =
                (static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(u))
                 << 32) |
                static_cast<std::uint32_t>(v);
            h = (h ^ packed) * 0x100000001b3ULL;
            ++count;
        });
        EXPECT_EQ(count, (1ULL << 20) * 16);
        return h;
    };
    const std::uint64_t a = checksum(9241);
    EXPECT_EQ(checksum(9241), a);
    EXPECT_NE(checksum(9242), a);
}

TEST(Generators, DegreeDistributionSaneAtScale20)
{
    // Degree-distribution sanity at paper scale, from streamed edges
    // plus one 4 MiB count array per generator: kron must be heavily
    // skewed (power-law hubs, many isolated vertices), urand must not.
    const std::int64_t n = 1LL << 20;
    std::vector<std::uint32_t> deg(static_cast<std::size_t>(n), 0);
    forEachKronEdge(20, 16, 9241, [&](NodeId u, NodeId v) {
        ++deg[static_cast<std::size_t>(u)];
        ++deg[static_cast<std::size_t>(v)];
    });
    std::uint64_t kron_max = 0;
    std::int64_t kron_isolated = 0;
    for (const std::uint32_t d : deg) {
        kron_max = std::max<std::uint64_t>(kron_max, d);
        kron_isolated += d == 0;
    }
    // Mean (pre-dedup, both endpoints) is 32; a power-law hub must
    // dwarf it and the skew must leave many vertices untouched.
    EXPECT_GT(kron_max, 32u * 64u);
    EXPECT_GT(kron_isolated, n / 8);

    std::fill(deg.begin(), deg.end(), 0);
    forEachUrandEdge(20, 16, 9241, [&](NodeId u, NodeId v) {
        ++deg[static_cast<std::size_t>(u)];
        ++deg[static_cast<std::size_t>(v)];
    });
    std::uint64_t urand_max = 0;
    std::int64_t urand_isolated = 0;
    for (const std::uint32_t d : deg) {
        urand_max = std::max<std::uint64_t>(urand_max, d);
        urand_isolated += d == 0;
    }
    // Uniform: max degree stays within a small factor of the mean and
    // (at mean 32) isolated vertices are essentially impossible.
    EXPECT_LT(urand_max, 32u * 4u);
    EXPECT_EQ(urand_isolated, 0);
}

// ----------------------------------------------------------- SimCsrGraph

SystemConfig
tinyConfig()
{
    SystemConfig cfg;
    cfg.dram = makeDramParams(1024 * kPageSize);
    cfg.nvm = makeNvmParams(4096 * kPageSize);
    cfg.numThreads = 2;
    return cfg;
}

TEST(SimCsrGraph, LoadMirrorsHostGraph)
{
    Engine eng(tinyConfig());
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    const CsrGraph host =
        CsrGraph::fromEdgeList(1 << 8, generateUrand(8, 8, 11));
    SimCsrGraph g = SimCsrGraph::load(eng, heap, t, host, "t");

    EXPECT_EQ(g.numNodes(), host.numNodes());
    EXPECT_EQ(g.numEdges(), host.numEdges());
    for (NodeId u = 0; u < host.numNodes(); ++u) {
        EXPECT_EQ(g.offset(t, u), host.offsets()[u]);
        std::vector<NodeId> got;
        g.forNeighbors(t, u, [&](NodeId v) { got.push_back(v); });
        const auto want = host.neighbors(u);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], want[i]);
    }
    g.free(heap, t);
}

TEST(SimCsrGraph, LoadGoesThroughPageCache)
{
    Engine eng(tinyConfig());
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    const CsrGraph host =
        CsrGraph::fromEdgeList(1 << 8, generateUrand(8, 8, 11));
    SimCsrGraph g = SimCsrGraph::load(eng, heap, t, host, "t");
    // Page cache now holds the whole serialized file.
    const auto stat = eng.kernel().numastat();
    const std::uint64_t cache_pages =
        stat.cachePages[0] + stat.cachePages[1];
    EXPECT_EQ(cache_pages, roundUpPages(host.serializedBytes()));
    g.free(heap, t);
}

TEST(SimCsrGraph, LoadCreatesTwoObjects)
{
    Engine eng(tinyConfig());
    SimHeap heap(eng);
    ThreadContext &t = eng.thread(0);
    const CsrGraph host =
        CsrGraph::fromEdgeList(1 << 6, generateUrand(6, 4, 11));
    SimCsrGraph g = SimCsrGraph::load(eng, heap, t, host, "t");
    EXPECT_EQ(heap.liveAllocations(), 2u);  // index + adjacency.
    g.free(heap, t);
    EXPECT_EQ(heap.liveAllocations(), 0u);
}

}  // namespace
}  // namespace memtier
