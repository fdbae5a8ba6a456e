#include "graph/graph.h"

#include <algorithm>

#include "base/logging.h"
#include "base/rng.h"

namespace memtier {

CsrGraph
CsrGraph::fromEdgeList(NodeId num_nodes, const EdgeList &edges)
{
    MEMTIER_ASSERT(num_nodes > 0, "graph needs at least one vertex");

    // Counting sort on the source row. Symmetrize: count both
    // directions of every undirected edge, dropping self loops.
    CsrGraph g;
    g.n = num_nodes;
    g.offsets_.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
    for (const Edge &e : edges) {
        MEMTIER_ASSERT(e.u >= 0 && e.u < num_nodes, "vertex out of range");
        MEMTIER_ASSERT(e.v >= 0 && e.v < num_nodes, "vertex out of range");
        if (e.u == e.v)
            continue;
        ++g.offsets_[static_cast<std::size_t>(e.u) + 1];
        ++g.offsets_[static_cast<std::size_t>(e.v) + 1];
    }
    for (std::size_t i = 1; i < g.offsets_.size(); ++i)
        g.offsets_[i] += g.offsets_[i - 1];

    // Scatter, using offsets_[u] as row u's write cursor: afterwards
    // offsets_[u] holds the end of row u.
    g.neigh.resize(static_cast<std::size_t>(g.offsets_.back()));
    for (const Edge &e : edges) {
        if (e.u == e.v)
            continue;
        g.neigh[static_cast<std::size_t>(
            g.offsets_[static_cast<std::size_t>(e.u)]++)] = e.v;
        g.neigh[static_cast<std::size_t>(
            g.offsets_[static_cast<std::size_t>(e.v)]++)] = e.u;
    }

    // Sort and deduplicate each row, compacting the rows leftwards and
    // rebasing offsets_[u] to the start of the compacted row u.
    NodeId *const adj = g.neigh.data();
    std::int64_t read = 0;
    std::int64_t write = 0;
    for (std::size_t u = 0; u < static_cast<std::size_t>(num_nodes);
         ++u) {
        const std::int64_t end = g.offsets_[u];
        std::sort(adj + read, adj + end);
        NodeId *const last = std::unique(adj + read, adj + end);
        g.offsets_[u] = write;
        if (write != read)
            std::copy(adj + read, last, adj + write);
        write += last - (adj + read);
        read = end;
    }
    g.offsets_.back() = write;
    g.neigh.resize(static_cast<std::size_t>(write));
    g.neigh.shrink_to_fit();
    return g;
}

std::uint64_t
CsrGraph::serializedBytes() const
{
    // GAPBS .sg layout: directed flag + edge count + node count, then
    // the offsets and adjacency arrays; .wsg appends the weights.
    return 3 * sizeof(std::int64_t) +
           offsets_.size() * sizeof(std::int64_t) +
           neigh.size() * sizeof(NodeId) +
           weight_values.size() * sizeof(std::int32_t);
}

void
CsrGraph::generateWeights(std::uint64_t seed)
{
    weight_values.resize(neigh.size());
    for (NodeId u = 0; u < n; ++u) {
        const auto begin = offsets_[static_cast<std::size_t>(u)];
        const auto end = offsets_[static_cast<std::size_t>(u) + 1];
        for (std::int64_t e = begin; e < end; ++e) {
            const NodeId v = neigh[static_cast<std::size_t>(e)];
            // Symmetric hash of the endpoint pair -> both directions of
            // an undirected edge get the same weight.
            const std::uint64_t lo =
                static_cast<std::uint64_t>(std::min(u, v));
            const std::uint64_t hi =
                static_cast<std::uint64_t>(std::max(u, v));
            SplitMix64 h(seed ^ (lo << 32 | hi));
            weight_values[static_cast<std::size_t>(e)] =
                static_cast<std::int32_t>(h.next() % 255 + 1);
        }
    }
}

}  // namespace memtier
