/**
 * @file
 * Graceful-degradation characterization: the KV serving scenario
 * replayed under escalating ECC error rates, per tiering policy. Each
 * erosion level arms the ecc_ce/ecc_ue fault points with a higher
 * probability; correctable errors past the retirement threshold
 * soft-offline DRAM frames (the tier shrinks under the workload) and
 * uncorrectable errors kill in-flight requests. The sweep reports, per
 * (policy, level): the fraction of DRAM retired by the end of the run,
 * p99 completion latency, SLO-violation fraction, and availability --
 * the robustness counterpart of serving_tail's healthy-machine sweep.
 *
 * Usage:
 *   degradation_sweep [--policies=P1,P2,...] [--levels=p1,p2,...]
 *                     [--trials=N] [--out=PATH.json] [--csv=PATH.csv]
 *
 * --levels gives the per-touch CE probability of each erosion level
 * (the UE probability rides along at 1/8 of it); level 0.0 is the
 * healthy baseline and is always included.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "base/logging.h"
#include "bench_common.h"
#include "fault/fault_plan.h"
#include "policy/policy_registry.h"

using namespace memtier;

namespace {

/** Fraction of the DRAM tier retired by the end of the run. */
double
dramRetiredFraction(const RunResult &r)
{
    const NumaStatSnapshot &numa = r.finalNumastat;
    const int d = static_cast<int>(MemNode::DRAM);
    const std::uint64_t total = numa.appPages[d] + numa.cachePages[d] +
                                numa.freePages[d] + numa.retiredPages[d];
    if (total == 0)
        return 0.0;
    return static_cast<double>(numa.retiredPages[d]) /
           static_cast<double>(total);
}

}  // namespace

int
main(int argc, char **argv)
{
    const int scale = std::max(12, benchScale() - 4);

    std::vector<std::string> policies = {"autonuma", "exchange",
                                         "dram-only", "interleave"};
    // Per-touch CE probabilities. Touches happen on TLB misses only
    // and a frame retires after its third CE, so erosion grows
    // superlinearly across the levels. Zero = healthy baseline.
    std::vector<double> levels = {0.0, 0.02, 0.08, 0.25};
    int trials = 2;
    std::string out_path = "BENCH_degradation.json";
    std::string csv_path = "results/degradation_sweep.csv";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--policies=", 0) == 0) {
            policies = splitCommas(arg.substr(11));
        } else if (arg.rfind("--levels=", 0) == 0) {
            levels.clear();
            for (const std::string &l : splitCommas(arg.substr(9)))
                levels.push_back(std::atof(l.c_str()));
        } else if (arg.rfind("--trials=", 0) == 0) {
            trials = parseIntArg("--trials", arg.substr(9), 1, 1000000);
        } else if (arg.rfind("--out=", 0) == 0) {
            out_path = arg.substr(6);
        } else if (arg.rfind("--csv=", 0) == 0) {
            csv_path = arg.substr(6);
        } else {
            std::cerr << "usage: degradation_sweep [--policies=P1,...]"
                         " [--levels=p1,p2,...] [--trials=N]"
                         " [--out=PATH.json] [--csv=PATH.csv]\n";
            return 2;
        }
    }
    if (policies.empty() || levels.empty()) {
        std::cerr << "degradation_sweep: bad sweep parameters\n";
        return 2;
    }
    for (const std::string &p : policies) {
        if (!PolicyRegistry::instance().contains(p))
            fatal("unknown policy '%s'", p.c_str());
    }
    // The healthy baseline anchors every degradation curve.
    if (std::find(levels.begin(), levels.end(), 0.0) == levels.end())
        levels.insert(levels.begin(), 0.0);
    std::sort(levels.begin(), levels.end());

    benchHeader("tail latency and availability under memory failures",
                "robustness extension: hwpoison-style ECC errors "
                "eroding the DRAM tier during the serving replay");
    std::cout << "serving scale:        2^" << scale << " keys, "
              << trials * 5000 << " requests, kv, thp off\n"
              << "erosion levels:       " << levels.size()
              << " (CE probability 0";
    for (std::size_t i = 1; i < levels.size(); ++i)
        std::cout << " -> " << levels[i];
    std::cout << ")\n";

    ServingSpec ref_spec;  // For the SLO threshold only.
    const Cycles slo = ref_spec.sloCycles();

    TextTable table({"policy", "ce prob", "dram retired", "p50 (us)",
                     "p99 (us)", "slo viol", "availability", "errors"});
    BenchRecord rec;
    rec.set("bench", "degradation_sweep")
        .set("scale", scale)
        .set("requests", trials * 5000)
        .set("slo_usec", ref_spec.sloMicros);
    for (const std::string &policy : policies) {
        for (const double ce : levels) {
            WorkloadSpec w;
            w.app = App::KV;
            w.kind = GraphKind::Kron;  // Zipfian keys.
            w.scale = scale;
            w.trials = trials;

            RunConfig rc;
            rc.workload = w;
            rc.policy = policy;
            rc.sampling = false;
            rc.sys.dram =
                makeDramParams(scaledCapacity(24 * kMiB, scale));
            rc.sys.nvm =
                makeNvmParams(scaledCapacity(96 * kMiB, scale));
            const double ue = ce > 0.0 ? ce / 8.0 : 0.0;
            if (ce > 0.0) {
                rc.sys.faults.at(FaultPoint::EccCorrectable)
                    .probability = ce;
                rc.sys.faults.at(FaultPoint::EccUncorrectable)
                    .probability = ue;
                rc.sys.faults.seed = 7;
            }
            std::cerr << "running kv [" << policy << ", ce=" << ce
                      << "]...\n";
            const RunResult r = runWorkload(rc);
            MEMTIER_ASSERT(r.hasServing, "serving run produced no report");

            const ServingReport &s = r.serving;
            const VmStat &v = r.vmstat;
            table.addRow({policy, num(ce, 6),
                          num(dramRetiredFraction(r), 4),
                          num(usec(s.latency.percentile(0.50)), 2),
                          num(usec(s.latency.percentile(0.99)), 2),
                          num(s.sloViolationFraction(slo), 4),
                          num(s.availability(), 6),
                          num(static_cast<double>(s.errors), 0)});
            rec.addRow("cells")
                .set("policy", policy)
                .set("ce_prob", ce)
                .set("ue_prob", ue)
                .set("requests", s.requests)
                .set("errors", s.errors)
                .set("availability", s.availability())
                .set("dram_retired_fraction", dramRetiredFraction(r))
                .set("frames_retired", v.hwpoisonFramesRetired)
                .set("soft_offline", v.hwpoisonSoftOffline)
                .set("soft_offline_fail", v.hwpoisonSoftOfflineFail)
                .set("sigbus", v.hwpoisonSigbus)
                .set("cache_dropped", v.hwpoisonCacheDropped)
                .set("p50_usec", usec(s.latency.percentile(0.50)))
                .set("p99_usec", usec(s.latency.percentile(0.99)))
                .set("p999_usec", usec(s.latency.percentile(0.999)))
                .set("slo_violation", s.sloViolationFraction(slo))
                .set("total_sec", r.totalSeconds);
        }
    }
    table.print(std::cout);
    rec.writeCsv("cells", csv_path);
    rec.writeJson(out_path);

    std::cout << "\nwrote " << out_path << " and " << csv_path << " ("
              << table.rows() << " cells)\n";
    return 0;
}
