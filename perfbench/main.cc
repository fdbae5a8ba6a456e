/**
 * @file
 * The perfbench binary: runs fresh instances of one workload until the
 * requested seconds have passed (and at least a minimum number ran),
 * checks that every instance's simulated statistics are bit-identical,
 * and prints the metrics as one JSON line.
 *
 *   perfbench --workload pr_kron --seed 1 --seconds 10 --trace 0
 *
 * --trace 0 prints the end-to-end metrics: simulated values of any
 * instance, and host times averaged over the five fastest instances,
 * scaled to the reference host speed (see calibrate.h). Other tenants
 * of a shared host only ever add time: the fastest instances are the
 * ones they disturbed least, and the fastest calibrations between
 * instances say how fast the host could go during the run.
 * --trace 1 first runs one instance that captures a slice of the
 * access stream for the layer replays, then alternates untraced and
 * traced instances; it prints the per-layer metrics from the traced
 * ones plus the tracing overhead, and writes every span to --trace-out
 * when given.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "base/logging.h"
#include "calibrate.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::InstanceResult;

struct Metric
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, printed with --trace 0. */
const std::vector<Metric> kEndToEnd = {
    {"wall_s", "s"},         {"setup_s", "s"},  {"accesses_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},  {"sim_s", "s"},
};

/** Per-layer metrics, printed with --trace 1. */
const std::vector<Metric> kPerLayer = {
    {"sim.engine_init_s", "s"},
    {"sim.ns_per_access", "ns"},
    {"sim.accesses", "count"},
    {"cache.l1_hit_frac", "frac"},
    {"cache.lfb_frac", "frac"},
    {"cache.l2_hit_frac", "frac"},
    {"cache.l3_hit_frac", "frac"},
    {"cache.replay_access_ns", "ns"},
    {"tlb.miss_frac", "frac"},
    {"tlb.replay_lookup_ns", "ns"},
    {"os.pgfault", "count"},
    {"os.pgdemote", "count"},
    {"os.migrate_fail", "count"},
    {"os.page_cache_drops", "count"},
    {"os.pagetable_replay_find_ns", "ns"},
    {"autonuma.hint_faults", "count"},
    {"autonuma.promote_candidates", "count"},
    {"autonuma.promote_rate_limited", "count"},
    {"autonuma.pgpromote", "count"},
    {"autonuma.dram_frac", "frac"},
    {"mem.copy_mb", "MiB"},
    {"mem.copy_sim_ms", "ms"},
    {"graph.generate_s", "s"},
    {"graph.load_s", "s"},
    {"graph.load_sim_s", "s"},
    {"bigraph.build_s", "s"},
    {"bigraph.load_sim_s", "s"},
    {"apps.pagerank_s", "s"},
    {"apps.bfs_call_s", "s"},
    {"apps.bfs_calls", "count"},
    {"serve.prefill_s", "s"},
    {"serve.replay_s", "s"},
    {"serve.ns_per_request", "ns"},
    {"serve.probes_per_request", "count"},
    {"serve.requests", "count"},
    {"sim_p50_us", "us"},
    {"sim_p99_us", "us"},
    {"sim_p999_us", "us"},
    {"slo_violation_frac", "frac"},
    {"profile.sampler_s", "s"},
    {"profile.samples", "count"},
    {"failed_frac", "frac"},
    {"trace.overhead_s", "s"},
};

/** Knobs that would change what is measured; the binary refuses them. */
const char *const kForbiddenEnvironment[] = {
    "MEMTIER_HOST_THREADS",     "MEMTIER_THP",
    "MEMTIER_SCALAR_PATH",      "MEMTIER_CHECK_INVARIANTS",
    "MEMTIER_COPY_THREADS",     "MEMTIER_DATASET_CACHE_MB",
    "MEMTIER_SCALE",
};

/** Instances per kind (untraced, traced) a run makes at least. */
constexpr int kMinInstances = 3;

/** Host times and calibrations are averaged over this many of the
 *  fastest: one lucky instance weighs less than with the single best. */
constexpr std::size_t kFastest = 5;

/** Mean of the (up to) kFastest smallest of @p values (0 when empty). */
double
fastestMean(std::vector<double> values)
{
    const std::size_t k = std::min(kFastest, values.size());
    if (k == 0)
        return 0.0;
    std::partial_sort(values.begin(), values.begin() + k, values.end());
    double sum = 0.0;
    for (std::size_t i = 0; i < k; ++i)
        sum += values[i];
    return sum / static_cast<double>(k);
}

/** Host measurements are times, except the rates named "*_per_s". */
bool
isRate(const std::string &key)
{
    return key.size() > 6 && key.compare(key.size() - 6, 6, "_per_s") == 0;
}

/**
 * Best value of host measurement @p key over @p reps: the mean over the
 * fastest instances, which have the largest rate or the smallest time
 * (0 when none has it).
 */
double
hostBest(const std::vector<const InstanceResult *> &reps,
         const std::string &key)
{
    std::vector<double> times;
    for (const InstanceResult *r : reps) {
        if (const auto it = r->host.find(key); it != r->host.end())
            times.push_back(isRate(key) ? 1.0 / it->second : it->second);
    }
    const double best = fastestMean(times);
    return isRate(key) && best > 0 ? 1.0 / best : best;
}

/** Name the first simulated statistic on which @p b differs from @p a. */
std::string
firstDifference(const InstanceResult &a, const InstanceResult &b)
{
    if (a.outputDigest != b.outputDigest)
        return "output digest";
    for (const auto &[key, value] : a.sim) {
        const auto it = b.sim.find(key);
        if (it == b.sim.end() || it->second != value)
            return key;
    }
    return a.sim.size() == b.sim.size() ? "" : "statistic set";
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "pr_kron|bfs_urand_ooc|kv_zipf --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n",
                 msg);
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::string trace_out;
    long long seed = -1;
    double seconds = -1;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            workload_name = value;
        else if (flag == "--seed")
            seed = std::atoll(value);
        else if (flag == "--seconds")
            seconds = std::atof(value);
        else if (flag == "--trace")
            trace = std::atoi(value);
        else if (flag == "--trace-out")
            trace_out = value;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    perfbench::Workload workload;
    if (!perfbench::parseWorkload(workload_name, &workload))
        return usage("unknown or missing --workload");
    if (argc % 2 == 0 || seed < 0 || seconds <= 0 ||
        (trace != 0 && trace != 1)) {
        return usage("--seed, --seconds and --trace are required");
    }
    for (const char *name : kForbiddenEnvironment) {
        if (std::getenv(name) != nullptr) {
            std::fprintf(stderr,
                         "perfbench: %s is set; it would change what is "
                         "measured\n",
                         name);
            return 2;
        }
    }
    memtier::setLogLevel(memtier::LogLevel::Quiet);

    // Instances run back to back until the time is up, with a
    // calibration before the first and after each. A traced run starts
    // with the capturing instance, then alternates untraced/traced, so
    // the best of each kind gives the tracing overhead and every traced
    // instance is compared with an untraced one. No instance starts
    // once another of the slowest seen so far would end past the hard
    // cap.
    constexpr double kHardCapSeconds = 150.0;
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    const perfbench::Sizes sizes;
    perfbench::Checker checker;
    std::vector<InstanceResult> reps;
    std::vector<perfbench::Tracer> tracers;
    std::vector<const InstanceResult *> untraced_reps;
    std::vector<const InstanceResult *> traced_reps;
    std::vector<double> calibrations = {perfbench::calibrationSeconds()};
    double slowest = 0.0;
    const auto enough = [&] {
        return static_cast<int>(untraced_reps.size()) >= kMinInstances &&
               (trace == 0 ||
                static_cast<int>(traced_reps.size()) >= kMinInstances) &&
               elapsed() >= seconds;
    };
    reps.reserve(1024);  // Keeps the pointers above valid.
    const auto run = [&](bool tracing, bool capture) {
        const double t0 = elapsed();
        tracers.emplace_back(tracing);
        reps.push_back(perfbench::runInstance(
            workload, static_cast<std::uint64_t>(seed), sizes,
            tracers.back(), checker, capture));
        const double calibration = perfbench::calibrationSeconds();
        calibrations.push_back(calibration);
        const InstanceResult &r = reps.back();
        std::fprintf(stderr,
                     "perfbench: instance %zu%s: setup %.4f s, wall %.4f s, "
                     "then calibration %.4f s\n",
                     reps.size() - 1,
                     capture ? " (capture)" : tracing ? " (traced)" : "",
                     r.host.at("setup_s"), r.host.at("wall_s"), calibration);
        slowest = std::max(slowest, elapsed() - t0);
    };
    if (trace == 1)
        run(false, true);
    const InstanceResult *capture_rep = trace == 1 ? &reps[0] : nullptr;
    while (!enough() && reps.size() < reps.capacity()) {
        if (!reps.empty() && elapsed() + slowest > kHardCapSeconds)
            break;
        const bool tracing =
            trace == 1 && untraced_reps.size() > traced_reps.size();
        run(tracing, false);
        (tracing ? traced_reps : untraced_reps).push_back(&reps.back());
    }
    // Host times at the reference host speed.
    const double fastest_calibration = fastestMean(calibrations);
    const double host_scale =
        perfbench::kReferenceCalibrationSeconds / fastest_calibration;

    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        attempted += reps[i].attempted;
        failed += reps[i].failed;
        const std::string diff = firstDifference(reps[0], reps[i]);
        if (!diff.empty()) {
            std::fprintf(stderr,
                         "perfbench: instance %zu differs from instance 0 "
                         "in %s\n",
                         i, diff.c_str());
            correct = false;
        }
    }
    if (failed != 0) {
        std::fprintf(stderr, "perfbench: %llu of %llu operations failed\n",
                     static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(attempted));
        correct = false;
    }

    const InstanceResult &first = reps[0];
    const auto scaled = [&](const std::string &key, double v) {
        return isRate(key) ? v / host_scale : v * host_scale;
    };
    const auto value = [&](const std::string &name) -> double {
        if (name == "peak_rss_mb")
            return first.peakRssMb;
        if (name == "failed_frac")
            return attempted ? double(failed) / double(attempted) : 0.0;
        if (name == "trace.overhead_s") {
            return scaled(name, hostBest(traced_reps, "wall_s") -
                                    hostBest(untraced_reps, "wall_s"));
        }
        if (const auto it = first.sim.find(name); it != first.sim.end())
            return it->second;
        if (capture_rep != nullptr) {
            if (const auto it = capture_rep->replay.find(name);
                it != capture_rep->replay.end())
                return scaled(name, it->second);
        }
        return scaled(name,
                      hostBest(trace ? traced_reps : untraced_reps, name));
    };

    if (!trace_out.empty() && trace == 1) {
        std::ofstream os(trace_out);
        os << "{\"workload\": \"" << workload_name << "\", \"seed\": "
           << seed << ", \"instances\": [\n";
        bool comma = false;
        for (std::size_t i = 0; i < tracers.size(); ++i) {
            if (!tracers[i].enabled())
                continue;
            os << (comma ? ",\n" : "");
            tracers[i].writeJson(os);
            comma = true;
        }
        os << "]}\n";
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    const std::vector<Metric> &metrics = trace ? kPerLayer : kEndToEnd;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name,
                    value(metrics[i].name), metrics[i].unit);
    }
    std::printf("}}\n");
    std::fprintf(stderr,
                 "perfbench: %s seed %lld: %zu instances (%zu traced), "
                 "calibration %.4f s (mean of the fastest)\n",
                 workload_name.c_str(), seed, reps.size(),
                 traced_reps.size(), fastest_calibration);
    return correct ? 0 : 1;
}
