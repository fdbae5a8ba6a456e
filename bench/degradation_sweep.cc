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
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.h"
#include "bench_common.h"
#include "fault/fault_plan.h"
#include "policy/policy_registry.h"

using namespace memtier;

namespace {

/** Simulated cycles -> microseconds. */
double
usec(double cycles)
{
    return cycles * 1e6 / static_cast<double>(kCyclesPerSecond);
}

/** One (policy, erosion level) measurement. */
struct Cell
{
    std::string policy;
    double ceProb = 0.0;
    double ueProb = 0.0;
    RunResult r;
};

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

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
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

    std::vector<Cell> cells;
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
            if (ce > 0.0) {
                rc.sys.faults.at(FaultPoint::EccCorrectable)
                    .probability = ce;
                rc.sys.faults.at(FaultPoint::EccUncorrectable)
                    .probability = ce / 8.0;
                rc.sys.faults.seed = 7;
            }
            std::cerr << "running kv [" << policy << ", ce=" << ce
                      << "]...\n";

            Cell c;
            c.policy = policy;
            c.ceProb = ce;
            c.ueProb = ce > 0.0 ? ce / 8.0 : 0.0;
            c.r = runWorkload(rc);
            MEMTIER_ASSERT(c.r.hasServing,
                           "serving run produced no report");
            cells.push_back(std::move(c));
        }
    }

    TextTable table({"policy", "ce prob", "dram retired", "p50 (us)",
                     "p99 (us)", "slo viol", "availability", "errors"});
    for (const Cell &c : cells) {
        const ServingReport &s = c.r.serving;
        table.addRow({c.policy, num(c.ceProb, 6),
                      num(dramRetiredFraction(c.r), 4),
                      num(usec(s.latency.percentile(0.50)), 2),
                      num(usec(s.latency.percentile(0.99)), 2),
                      num(s.sloViolationFraction(slo), 4),
                      num(s.availability(), 6),
                      num(static_cast<double>(s.errors), 0)});
    }
    table.print(std::cout);

    std::ofstream csv(csv_path);
    if (!csv)
        fatal("cannot open %s", csv_path.c_str());
    csv << "policy,ce_prob,ue_prob,requests,errors,availability,"
           "dram_retired_fraction,frames_retired,soft_offline,"
           "soft_offline_fail,sigbus,cache_dropped,p50_usec,p99_usec,"
           "p999_usec,slo_violation,total_sec\n";
    for (const Cell &c : cells) {
        const ServingReport &s = c.r.serving;
        const VmStat &v = c.r.vmstat;
        csv << c.policy << "," << c.ceProb << "," << c.ueProb << ","
            << s.requests << "," << s.errors << "," << s.availability()
            << "," << dramRetiredFraction(c.r) << ","
            << v.hwpoisonFramesRetired << "," << v.hwpoisonSoftOffline
            << "," << v.hwpoisonSoftOfflineFail << ","
            << v.hwpoisonSigbus << "," << v.hwpoisonCacheDropped << ","
            << usec(s.latency.percentile(0.50)) << ","
            << usec(s.latency.percentile(0.99)) << ","
            << usec(s.latency.percentile(0.999)) << ","
            << s.sloViolationFraction(slo) << "," << c.r.totalSeconds
            << "\n";
    }
    csv.close();

    std::ofstream json(out_path);
    if (!json)
        fatal("cannot open %s", out_path.c_str());
    json << "{\n"
         << "  \"bench\": \"degradation_sweep\",\n"
         << "  \"scale\": " << scale << ",\n"
         << "  \"requests\": " << trials * 5000 << ",\n"
         << "  \"slo_usec\": " << ref_spec.sloMicros << ",\n"
         << "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        const ServingReport &s = c.r.serving;
        const VmStat &v = c.r.vmstat;
        json << "    {\"policy\": \"" << c.policy
             << "\", \"ce_prob\": " << c.ceProb
             << ", \"ue_prob\": " << c.ueProb << ",\n"
             << "     \"dram_retired_fraction\": "
             << dramRetiredFraction(c.r)
             << ", \"frames_retired\": " << v.hwpoisonFramesRetired
             << ", \"sigbus\": " << v.hwpoisonSigbus << ",\n"
             << "     \"requests\": " << s.requests
             << ", \"errors\": " << s.errors
             << ", \"availability\": " << s.availability() << ",\n"
             << "     \"p50_usec\": " << usec(s.latency.percentile(0.50))
             << ", \"p99_usec\": " << usec(s.latency.percentile(0.99))
             << ", \"p999_usec\": "
             << usec(s.latency.percentile(0.999))
             << ", \"slo_violation\": " << s.sloViolationFraction(slo)
             << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";

    std::cout << "\nwrote " << out_path << " and " << csv_path << " ("
              << cells.size() << " cells)\n";
    return 0;
}
