#include "apps/pagerank.h"

#include <span>
#include <vector>

#include "base/logging.h"

namespace memtier {

PageRankOutput
runPageRank(Engine &eng, SimHeap &heap, const SegmentedCsrView &g,
            int iterations, double damping)
{
    ThreadContext &t0 = eng.thread(0);
    const auto n = static_cast<std::uint64_t>(g.numNodes());
    const double base =
        (1.0 - damping) / static_cast<double>(g.numNodes());

    SimVector<double> rank = heap.alloc<double>(t0, "pr.rank", n);
    SimVector<double> contrib =
        heap.alloc<double>(t0, "pr.contrib", n);

    const double init = 1.0 / static_cast<double>(g.numNodes());
    eng.parallelForRanges(
        n, [&](ThreadContext &t, std::uint64_t b, std::uint64_t e) {
            rank.fillRange(t, b, e, init);
        });

    // Per-thread host staging for the bulk calls.
    struct Scratch
    {
        std::vector<std::int64_t> offs;
        std::vector<double> vals;
        std::vector<NodeId> row;
        std::vector<double> neigh;
    };
    std::vector<Scratch> scratch(eng.threadCount());

    PageRankOutput out;
    for (int it = 0; it < iterations; ++it) {
        ++out.iterations;
        // Scatter phase: contribution = rank / degree. One bulk load of
        // the offset slice and the rank slice per subrange, one bulk
        // store of the contributions.
        eng.parallelForRanges(
            n,
            [&](ThreadContext &t, std::uint64_t b, std::uint64_t e) {
                Scratch &s = scratch[t.id()];
                s.offs.resize(e - b + 1);
                g.offsetsInto(t, b, e + 1, s.offs.data());
                s.vals.resize(e - b);
                rank.copyOut(t, b, e, s.vals.data());
                for (std::uint64_t v = b; v < e; ++v) {
                    const std::int64_t deg =
                        s.offs[v - b + 1] - s.offs[v - b];
                    s.vals[v - b] =
                        deg > 0
                            ? s.vals[v - b] / static_cast<double>(deg)
                            : 0.0;
                }
                contrib.putRange(t, b, s.vals.data(), e - b);
            });
        // Gather phase: pull neighbor contributions. Consecutive
        // vertices' adjacency rows are contiguous in CSR order, so the
        // whole subrange needs only one bulk offset read, one bulk
        // adjacency read, and one bulk gather of the contributions the
        // edges name -- the per-vertex work is pure host arithmetic on
        // the staged values.
        eng.parallelForRanges(
            n,
            [&](ThreadContext &t, std::uint64_t b, std::uint64_t e) {
                if (b == e)
                    return;
                Scratch &s = scratch[t.id()];
                s.offs.resize(e - b + 1);
                g.offsetsInto(t, b, e + 1, s.offs.data());
                const std::int64_t row_b = s.offs[0];
                const std::int64_t row_e = s.offs[e - b];
                const auto len =
                    static_cast<std::uint64_t>(row_e - row_b);
                s.row.resize(len);
                g.adjacencyInto(t, row_b, row_e, s.row.data());
                s.neigh.resize(len);
                contrib.gather(t, std::span<const NodeId>(s.row),
                               s.neigh.data());
                s.vals.resize(e - b);
                for (std::uint64_t v = b; v < e; ++v) {
                    const auto lo = static_cast<std::uint64_t>(
                        s.offs[v - b] - row_b);
                    const auto hi = static_cast<std::uint64_t>(
                        s.offs[v - b + 1] - row_b);
                    double sum = 0.0;
                    for (std::uint64_t j = lo; j < hi; ++j)
                        sum += s.neigh[j];
                    s.vals[v - b] = base + damping * sum;
                }
                rank.putRange(t, b, s.vals.data(), e - b);
            });
    }

    out.rank.assign(rank.host(), rank.host() + n);
    heap.free(t0, contrib);
    heap.free(t0, rank);
    return out;
}

std::vector<double>
hostPageRank(const CsrGraph &g, int iterations, double damping)
{
    const auto n = static_cast<std::size_t>(g.numNodes());
    const double base = (1.0 - damping) / static_cast<double>(n);
    std::vector<double> rank(n, 1.0 / static_cast<double>(n));
    std::vector<double> contrib(n, 0.0);
    for (int it = 0; it < iterations; ++it) {
        for (std::size_t v = 0; v < n; ++v) {
            const auto deg = g.degree(static_cast<NodeId>(v));
            contrib[v] = deg > 0 ? rank[v] / static_cast<double>(deg)
                                 : 0.0;
        }
        for (std::size_t v = 0; v < n; ++v) {
            double sum = 0.0;
            for (const NodeId u : g.neighbors(static_cast<NodeId>(v)))
                sum += contrib[static_cast<std::size_t>(u)];
            rank[v] = base + damping * sum;
        }
    }
    return rank;
}

}  // namespace memtier
