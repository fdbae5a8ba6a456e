/**
 * @file
 * The benchmark's three workloads, built from the memtier layers'
 * public functions and timed from outside: each instance constructs a
 * fresh machine, builds its input (setup), runs its timed phase, then
 * checks its outputs. Simulated statistics of an instance depend only
 * on (workload, seed, sizes); host times are measured around the calls.
 */
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "apps/bfs.h"
#include "bigraph/segmented_csr.h"
#include "trace.h"

namespace perfbench {

/** The benchmark's workloads. */
enum class Workload : std::uint8_t { PrKron, BfsUrandOoc, KvZipf };

/** Parse "pr_kron" / "bfs_urand_ooc" / "kv_zipf". */
bool parseWorkload(const std::string &name, Workload *out);

/** Name of @p w as the benchmark spells it. */
const char *workloadName(Workload w);

/** Input sizes. The defaults are the benchmark's; tests shrink them. */
struct Sizes
{
    int prScale = 16;               ///< log2 vertices of the Kronecker graph.
    int prIterations = 3;           ///< PageRank power iterations.
    int bfsScale = 16;              ///< log2 vertices of the urand graph.
    std::uint32_t bfsSegments = 4;  ///< Out-of-core CSR segments.
    int bfsSources = 8;             ///< BFS calls per instance.
    int kvScale = 16;               ///< log2 keys of the KV store.
    std::uint64_t kvRequests = 125'000;  ///< Replayed requests.
    /** Access records captured for the traced layer replays. */
    std::uint64_t captureRecords = 1ULL << 18;
};

/** Everything one instance (setup + timed phase + checks) produced. */
struct InstanceResult
{
    /**
     * Simulated statistics, keyed by metric name. Deterministic: two
     * instances of one (workload, seed, sizes) must match exactly,
     * traced or not.
     */
    std::map<std::string, double> sim;
    /** Digest of every output the instance checked. Deterministic. */
    std::uint64_t outputDigest = 0;
    /** Host measurements (seconds unless the name says otherwise). */
    std::map<std::string, double> host;
    /** Host nanoseconds per access of the standalone layer replays
     *  (capturing instances only). */
    std::map<std::string, double> replay;
    /** Host peak RSS in MiB, read after the timed phase, before checks. */
    double peakRssMb = 0.0;
    std::uint64_t attempted = 0;  ///< Operations run.
    std::uint64_t failed = 0;     ///< Operations with a wrong output.
    /** Access observers the benchmark attached for the timed phase. */
    int timedObservers = 0;
};

/**
 * Output checks memoized across the instances of one process: an
 * output whose digest already passed the full check is known good, so
 * repeated instances cost one digest compare instead of a re-check.
 */
struct Checker
{
    std::set<std::uint64_t> verified;      ///< Digests that passed.
    std::vector<std::uint64_t> kvExpected; ///< Host-replay digest per
                                           ///< KV request (+ checksum).
};

/**
 * Build and run one instance of @p w. With @p tracer enabled the
 * instance also records layer spans and times the sampler. With
 * @p capture_slice it attaches one more observer to the timed phase,
 * which captures a slice of the access stream, and afterwards replays
 * that slice through standalone cache, TLB and page-table models. An
 * observer moves the engine off its observer-free fast path, so the
 * capturing instance's own host times measure a different program: the
 * benchmark takes only the replay times from it. Neither option
 * changes simulated results.
 */
InstanceResult runInstance(Workload w, std::uint64_t seed,
                           const Sizes &sizes, Tracer &tracer,
                           Checker &checker, bool capture_slice = false);

/**
 * GAPBS-style BFS verifier: recompute depths from @p source with a
 * host BFS over the segmented graph's raw contents (no host copy of
 * the graph), then require that the source is its own parent, every
 * other reached vertex's parent is a neighbor one level closer,
 * reachability agrees, and the reached count matches.
 */
bool verifyBfsTree(const memtier::SegmentedCsrView &g,
                   memtier::NodeId source, const memtier::BfsOutput &out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
