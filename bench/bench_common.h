/**
 * @file
 * Shared helpers for the table/figure reproduction benches.
 *
 * Every bench accepts the MEMTIER_SCALE environment variable (log2
 * vertices, default 18) so the suite can be run faster (16) or at
 * higher fidelity (19-20) without recompiling.
 */

#ifndef MEMTIER_BENCH_BENCH_COMMON_H_
#define MEMTIER_BENCH_BENCH_COMMON_H_

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <string>

#include "base/logging.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "profile/analysis.h"

namespace memtier {

/**
 * Parse @p text as a base-10 integer in [@p lo, @p hi]. Garbage,
 * trailing junk and out-of-range values are fatal, naming @p what (the
 * flag or environment variable), so a typo never runs a default.
 */
template <typename T>
T
parseIntArg(const char *what, const std::string &text, T lo, T hi)
{
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno == ERANGE ||
        v < static_cast<long long>(lo) || v > static_cast<long long>(hi)) {
        fatal("%s=\"%s\": expected an integer in [%lld, %lld]", what,
              text.c_str(), static_cast<long long>(lo),
              static_cast<long long>(hi));
    }
    return static_cast<T>(v);
}

/** Experiment scale: MEMTIER_SCALE env var in [10, 24], default 18. */
inline int
benchScale()
{
    if (const char *env = std::getenv("MEMTIER_SCALE"))
        return parseIntArg("MEMTIER_SCALE", env, 10, 24);
    return 18;
}

/**
 * Sparse sampling period used by the per-page touch/reuse analyses
 * (Figures 4 and 5). The paper samples a ~250 GB footprint with a few
 * million samples -- well under one sample per page; the default dense
 * period would count every page dozens of times and hide the
 * single-touch behaviour the paper reports.
 */
inline constexpr std::uint32_t kSparseSamplerPeriod = 8191;

/**
 * Tier capacity scaled with the workload so the footprint:DRAM pressure
 * is scale-invariant (base values are for the default scale 18).
 */
inline std::uint64_t
scaledCapacity(std::uint64_t base_at_18, int scale)
{
    return scale >= 18 ? base_at_18 << (scale - 18)
                       : base_at_18 >> (18 - scale);
}

/**
 * One paper workload on the scale-sized testbed under the default
 * autonuma policy, sampled every @p sampler_period accesses.
 */
inline RunConfig
benchConfig(const WorkloadSpec &w, std::uint32_t sampler_period = 61,
            bool thp = false)
{
    RunConfig rc;
    rc.workload = w;
    rc.sampler.period = sampler_period;
    rc.sys.dram = makeDramParams(scaledCapacity(24 * kMiB, w.scale));
    rc.sys.nvm = makeNvmParams(scaledCapacity(96 * kMiB, w.scale));
    rc.sys.thp.enabled = thp;
    return rc;
}

/** Run @p rc, announcing it on stderr. */
inline RunResult
runBench(const RunConfig &rc)
{
    std::cerr << "running " << rc.workload.name() << " ["
              << (rc.policy.empty() ? "vanilla" : rc.policy)
              << (rc.placement ? ", placement plan" : "")
              << (rc.sys.thp.enabled ? ", thp" : "")
              << "] scale=" << rc.workload.scale << "...\n";
    return runWorkload(rc);
}

/**
 * Consume a leading `--thp` argument if present (shared by the benches
 * that report a THP column). Returns true and shifts argv when found.
 */
inline bool
consumeThpFlag(int &argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--thp") {
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
            return true;
        }
    }
    return false;
}

/** Header block naming the experiment. */
inline void
benchHeader(const std::string &what, const std::string &paper_ref)
{
    std::cout << "memtier reproduction: " << what << "\n"
              << "paper reference:      " << paper_ref << "\n"
              << "scale:                2^" << benchScale()
              << " vertices (set MEMTIER_SCALE to change)\n";
}

}  // namespace memtier

#endif  // MEMTIER_BENCH_BENCH_COMMON_H_
