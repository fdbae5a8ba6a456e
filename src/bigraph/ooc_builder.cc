#include "bigraph/ooc_builder.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>

#include "base/logging.h"
#include "base/rng.h"
#include "bigraph/segmented_csr.h"
#include "graph/generators.h"
#include "graph/stream_load.h"
#include "runtime/sim_file.h"

namespace memtier {

namespace {

/** Pack a directed edge for sorting: lexicographic (u, v) order of
 *  nonnegative NodeIds equals numeric order of the packed word. */
inline std::uint64_t
packPair(NodeId u, NodeId v)
{
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u))
            << 32) |
           static_cast<std::uint32_t>(v);
}

inline NodeId
pairU(std::uint64_t p)
{
    return static_cast<NodeId>(p >> 32);
}

inline NodeId
pairV(std::uint64_t p)
{
    return static_cast<NodeId>(p & 0xffffffffULL);
}

/** RAII stdio handle. */
struct FileCloser
{
    void
    operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/** Pairs per host I/O buffer (256 KiB). */
constexpr std::size_t kBufPairs = 1 << 15;

/** Close a file written to, failing if its buffered tail is lost
 *  (ENOSPC, EIO): a short bucket would silently drop edges. */
void
closeWritten(FilePtr &f, const std::string &path)
{
    if (std::fclose(f.release()) != 0)
        fatal("bigraph: cannot flush %s", path.c_str());
}

std::string
specKey(const BigraphSpec &s)
{
    return std::string(bigraphKindName(s.kind)) +
           std::to_string(s.scale) + "d" + std::to_string(s.degree) +
           "s" + std::to_string(s.seed) + "x" +
           std::to_string(s.segments);
}

/** Process-wide artifact cache, keyed by spec identity. */
std::map<std::string, BigraphArtifacts> &
artifactCache()
{
    static std::map<std::string, BigraphArtifacts> cache;
    return cache;
}

void
writeAll(std::FILE *f, const std::uint64_t *data, std::size_t count,
         const std::string &path)
{
    if (count == 0)
        return;
    const std::size_t written =
        std::fwrite(data, sizeof(std::uint64_t), count, f);
    if (written != count)
        fatal("bigraph: short write to %s", path.c_str());
}

/** Call @p fn on every packed pair of @p path, streamed through
 *  @p buf. */
template <typename Fn>
void
forEachPair(const std::string &path, std::vector<std::uint64_t> &buf,
            Fn &&fn)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        fatal("bigraph: cannot open %s", path.c_str());
    std::size_t got;
    while ((got = std::fread(buf.data(), sizeof(std::uint64_t),
                             buf.size(), f.get())) > 0) {
        for (std::size_t i = 0; i < got; ++i)
            fn(buf[i]);
    }
    if (std::ferror(f.get()))
        fatal("bigraph: cannot read %s", path.c_str());
}

/**
 * Phase 1: stream the generator once, scattering both directions of
 * every non-loop edge into the owning segment's bucket file through
 * small host buffers.
 */
void
spillEdges(const BigraphSpec &spec, BigraphArtifacts &art)
{
    const std::uint32_t s_count = art.segments;
    const NodeId rows_per = art.rowsPerSegment;

    std::vector<FilePtr> files(s_count);
    for (std::uint32_t k = 0; k < s_count; ++k) {
        files[k].reset(std::fopen(art.segFiles[k].c_str(), "wb"));
        if (!files[k])
            fatal("bigraph: cannot create %s", art.segFiles[k].c_str());
    }

    std::vector<std::vector<std::uint64_t>> bufs(s_count);
    for (auto &b : bufs)
        b.reserve(kBufPairs);

    std::vector<std::uint64_t> spilled(s_count, 0);
    const auto bucketOf = [&](NodeId u) {
        return std::min<std::uint32_t>(
            static_cast<std::uint32_t>(u / rows_per), s_count - 1);
    };
    const auto push = [&](NodeId u, NodeId v) {
        const std::uint32_t k = bucketOf(u);
        bufs[k].push_back(packPair(u, v));
        if (bufs[k].size() >= kBufPairs) {
            writeAll(files[k].get(), bufs[k].data(), bufs[k].size(),
                     art.segFiles[k]);
            spilled[k] += bufs[k].size();
            bufs[k].clear();
        }
    };
    const auto emit = [&](NodeId u, NodeId v) {
        if (u == v)
            return;  // Drop self loops, as fromEdgeList does.
        push(u, v);
        push(v, u);
    };

    if (spec.kind == BigraphKind::Kron)
        forEachKronEdge(spec.scale, spec.degree, spec.seed, emit);
    else
        forEachUrandEdge(spec.scale, spec.degree, spec.seed, emit);

    for (std::uint32_t k = 0; k < s_count; ++k) {
        writeAll(files[k].get(), bufs[k].data(), bufs[k].size(),
                 art.segFiles[k]);
        closeWritten(files[k], art.segFiles[k]);
        spilled[k] += bufs[k].size();
        art.maxSpillBytes =
            std::max(art.maxSpillBytes,
                     spilled[k] * sizeof(std::uint64_t));
    }
}

/**
 * Phase 2: per bucket, counting-sort the pairs by source row, sort and
 * deduplicate each row, rewrite the bucket in (u, v) order and record
 * the edge counts -- global dedup falls out of per-bucket dedup because
 * a directed edge's bucket is a function of its source. Host memory is
 * one 32-bit destination per pair plus one offset per row.
 */
void
sortAndDedup(BigraphArtifacts &art)
{
    std::vector<std::uint64_t> buf(kBufPairs);
    std::vector<std::int64_t> row_start;
    std::vector<NodeId> adj;
    for (std::uint32_t k = 0; k < art.segments; ++k) {
        const std::string &path = art.segFiles[k];
        const NodeId first = static_cast<NodeId>(
            static_cast<std::int64_t>(k) * art.rowsPerSegment);
        const auto rows = static_cast<std::size_t>(
            std::min<std::int64_t>(art.rowsPerSegment,
                                   art.nodes - first));

        // Pass 1: row counts, prefix-summed into row starts.
        row_start.assign(rows + 1, 0);
        forEachPair(path, buf, [&](std::uint64_t p) {
            const auto r =
                static_cast<std::size_t>(pairU(p) - first);
            MEMTIER_ASSERT(r < rows, "bigraph: pair outside its bucket");
            ++row_start[r + 1];
        });
        for (std::size_t r = 1; r <= rows; ++r)
            row_start[r] += row_start[r - 1];

        // Pass 2: scatter destinations, using row_start[r] as row r's
        // write cursor; afterwards it holds the end of row r.
        adj.resize(static_cast<std::size_t>(row_start[rows]));
        forEachPair(path, buf, [&](std::uint64_t p) {
            const auto r =
                static_cast<std::size_t>(pairU(p) - first);
            adj[static_cast<std::size_t>(row_start[r]++)] = pairV(p);
        });

        FilePtr f(std::fopen(path.c_str(), "wb"));
        if (!f)
            fatal("bigraph: cannot rewrite %s", path.c_str());
        std::size_t fill = 0;
        std::int64_t kept = 0;
        NodeId *const row = adj.data();
        std::int64_t begin = 0;
        for (std::size_t r = 0; r < rows; ++r) {
            const std::int64_t end = row_start[r];
            std::sort(row + begin, row + end);
            const NodeId *const last = std::unique(row + begin, row + end);
            const NodeId u = first + static_cast<NodeId>(r);
            for (const NodeId *v = row + begin; v != last; ++v) {
                buf[fill++] = packPair(u, *v);
                if (fill == buf.size()) {
                    writeAll(f.get(), buf.data(), fill, path);
                    fill = 0;
                }
            }
            kept += last - (row + begin);
            begin = end;
        }
        writeAll(f.get(), buf.data(), fill, path);
        closeWritten(f, path);
        art.edgeCounts[k] = kept;
    }
    art.edgeBases.assign(art.segments + 1, 0);
    for (std::uint32_t k = 0; k < art.segments; ++k)
        art.edgeBases[k + 1] = art.edgeBases[k] + art.edgeCounts[k];
    art.totalEdges = art.edgeBases[art.segments];
}

/** FNV-1a over a 64-bit word. */
inline std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (word >> (i * 8)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

}  // namespace

const char *
bigraphKindName(BigraphKind kind)
{
    return kind == BigraphKind::Kron ? "kron" : "urand";
}

std::string
bigraphSpillDir()
{
    std::string dir = ".bigraph_spill";
    if (const char *env = std::getenv("MEMTIER_SPILL_DIR"); env && *env)
        dir = env;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        fatal("bigraph: cannot create spill dir %s", dir.c_str());
    return dir;
}

const BigraphArtifacts &
prepareBigraph(const BigraphSpec &spec)
{
    MEMTIER_ASSERT(spec.scale > 0 && spec.scale < 32,
                   "bigraph scale out of range");
    MEMTIER_ASSERT(spec.segments >= 1, "bigraph needs >= 1 segment");

    const std::string key = specKey(spec);
    auto &cache = artifactCache();
    if (const auto it = cache.find(key); it != cache.end())
        return it->second;

    BigraphArtifacts art;
    art.key = key;
    art.nodes = 1LL << spec.scale;
    // Even row split; the last segment may be short. Recompute the
    // effective count so no trailing segment is empty.
    const std::uint32_t requested = std::min<std::uint32_t>(
        spec.segments, static_cast<std::uint32_t>(art.nodes));
    art.rowsPerSegment = static_cast<NodeId>(
        (art.nodes + requested - 1) / requested);
    art.segments = static_cast<std::uint32_t>(
        (art.nodes + art.rowsPerSegment - 1) / art.rowsPerSegment);

    const std::string dir = bigraphSpillDir();
    art.segFiles.resize(art.segments);
    art.edgeCounts.assign(art.segments, 0);
    for (std::uint32_t k = 0; k < art.segments; ++k) {
        art.segFiles[k] =
            dir + "/" + key + ".seg" + std::to_string(k) + ".pairs";
    }

    inform("bigraph: spilling %s scale %d into %u segment buckets",
           bigraphKindName(spec.kind), spec.scale, art.segments);
    spillEdges(spec, art);
    sortAndDedup(art);
    inform("bigraph: %lld directed edges across %u segments "
           "(max bucket %llu MiB)",
           static_cast<long long>(art.totalEdges), art.segments,
           static_cast<unsigned long long>(art.maxSpillBytes >> 20));

    return cache.emplace(key, std::move(art)).first->second;
}

void
clearBigraphArtifacts()
{
    for (auto &[key, art] : artifactCache()) {
        for (const std::string &path : art.segFiles) {
            std::error_code ec;
            std::filesystem::remove(path, ec);
        }
    }
    artifactCache().clear();
}

SegmentedCsrGraph
SegmentedCsrGraph::generate(Engine &engine, SimHeap &heap,
                            ThreadContext &t, const BigraphSpec &spec,
                            const std::string &name)
{
    const BigraphArtifacts &art = prepareBigraph(spec);
    const std::uint64_t wseed = spec.seed ^ 0x5eed;

    SegmentedCsrGraph g;
    g.nodes_ = art.nodes;
    g.edges_ = art.totalEdges;
    g.rowsPer_ = art.rowsPerSegment;
    g.weighted_ = spec.weighted;
    g.segs_.resize(art.segments);
    g.checksums_.assign(art.segments, 0);

    std::vector<std::uint32_t> order(art.segments);
    for (std::uint32_t k = 0; k < art.segments; ++k)
        order[k] = spec.reverseBuild ? art.segments - 1 - k : k;

    // Host staging, reused across segments: the build's RSS bound is
    // one segment's arrays plus the stream buffer, never the whole
    // graph.
    std::vector<std::uint64_t> buf(kBufPairs);
    std::vector<std::int64_t> idx;
    std::vector<NodeId> adj;
    std::vector<std::int32_t> wts;

    for (const std::uint32_t k : order) {
        CsrSegment &seg = g.segs_[k];
        seg.firstRow = static_cast<NodeId>(
            static_cast<std::int64_t>(k) * art.rowsPerSegment);
        seg.rowEnd = static_cast<NodeId>(
            std::min<std::int64_t>(static_cast<std::int64_t>(k + 1) *
                                       art.rowsPerSegment,
                                   art.nodes));
        seg.edgeBase = art.edgeBases[k];
        seg.edgeEnd = art.edgeBases[k + 1];
        const auto rows = static_cast<std::uint64_t>(seg.rowCount());
        const auto cnt = static_cast<std::size_t>(art.edgeCounts[k]);

        // One streamed pass over the bucket, which sortAndDedup left in
        // (u, v) order: count each row and fill the adjacency (and
        // weights) in place. The index then prefix-sums the counts
        // onto the segment's global edge base.
        idx.assign(rows + 1, 0);
        adj.resize(cnt);
        wts.resize(spec.weighted ? cnt : 0);
        std::size_t i = 0;
        forEachPair(art.segFiles[k], buf, [&](std::uint64_t p) {
            MEMTIER_ASSERT(i < cnt, "bigraph: spill file changed size");
            const NodeId u = pairU(p);
            const NodeId v = pairV(p);
            ++idx[static_cast<std::uint64_t>(u - seg.firstRow) + 1];
            adj[i] = v;
            if (spec.weighted) {
                // Symmetric endpoint hash: both directions of an
                // undirected edge get the same weight (matches
                // CsrGraph::generateWeights).
                const auto lo =
                    static_cast<std::uint64_t>(std::min(u, v));
                const auto hi =
                    static_cast<std::uint64_t>(std::max(u, v));
                SplitMix64 h(wseed ^ (lo << 32 | hi));
                wts[i] =
                    static_cast<std::int32_t>(h.next() % 255 + 1);
            }
            ++i;
        });
        MEMTIER_ASSERT(i == cnt, "bigraph: spill file changed size");
        idx[0] = seg.edgeBase;
        for (std::uint64_t r = 1; r <= rows; ++r)
            idx[r] += idx[r - 1];

        std::uint64_t sum = 0xcbf29ce484222325ULL;
        for (const std::int64_t o : idx)
            sum = fnv1a(sum, static_cast<std::uint64_t>(o));
        for (const NodeId v : adj)
            sum = fnv1a(sum, static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(v)));
        g.checksums_[k] = sum;

        // Timed materialization, mirroring the monolithic loader's
        // layout per segment: header + index + adjacency (+ weights)
        // streamed through the page cache into fresh mmap objects.
        const std::uint64_t file_bytes =
            3 * sizeof(std::int64_t) +
            (rows + 1) * sizeof(std::int64_t) + cnt * sizeof(NodeId) +
            (spec.weighted ? cnt * sizeof(std::int32_t) : 0);
        SimFile file(engine, name + ".seg" + std::to_string(k) + ".sg",
                     file_bytes);
        file.read(t, 0, 3 * sizeof(std::int64_t));
        std::uint64_t file_pos = 3 * sizeof(std::int64_t);

        const std::string suffix = "." + std::to_string(k);
        seg.index = heap.alloc<std::int64_t>(t, "csr.index" + suffix,
                                             rows + 1);
        streamInto(file, t, file_pos, seg.index, idx.data(), rows + 1);
        file_pos += (rows + 1) * sizeof(std::int64_t);

        if (cnt > 0) {
            seg.adj =
                heap.alloc<NodeId>(t, "csr.adj" + suffix, cnt);
            streamInto(file, t, file_pos, seg.adj, adj.data(), cnt);
            file_pos += cnt * sizeof(NodeId);
            if (spec.weighted) {
                seg.weights = heap.alloc<std::int32_t>(
                    t, "csr.wts" + suffix, cnt);
                streamInto(file, t, file_pos, seg.weights, wts.data(),
                           cnt);
            }
        }
        g.footprint_ += (rows + 1) * sizeof(std::int64_t) +
                        cnt * sizeof(NodeId) +
                        (spec.weighted ? cnt * sizeof(std::int32_t)
                                       : 0);
    }
    return g;
}

}  // namespace memtier
