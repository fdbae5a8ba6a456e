/**
 * @file
 * Tail-latency characterization of the data-serving tier: the KV and
 * LSM applications replayed under the registry's tiering policies,
 * with and without THP, reporting p50/p99/p999 completion latency and
 * SLO-violation fractions per traffic phase (off-peak / peak /
 * connection storm).
 *
 * This is the serving-scenario counterpart of the paper's graph
 * sweeps: graph analytics measures throughput (execution time), a
 * data-serving tier lives and dies by its tail, which is exactly where
 * NVM-resident hot pages and migration stalls surface first.
 *
 * Usage:
 *   serving_tail [--apps=kv,lsm] [--policies=P1,P2,...] [--no-thp]
 *                [--faults PLAN] [--trials=N]
 *                [--out=PATH.json] [--csv=PATH.csv]
 */

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

/** One (app, policy, thp) measurement. */
struct Cell
{
    std::string workload;
    std::string policy;
    bool thp = false;
    RunResult r;
};

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
    // Serving stores are denser than graphs: a keyspace four scales
    // below the graph default keeps the same footprint:DRAM pressure.
    const int scale = std::max(12, benchScale() - 4);

    std::vector<std::string> apps = {"kv", "lsm"};
    std::vector<std::string> policies = {"autonuma", "exchange",
                                         "dram-only", "interleave"};
    std::vector<bool> thp_values = {false, true};
    FaultPlan faults;
    int trials = 2;
    std::string out_path = "BENCH_serving.json";
    std::string csv_path = "results/serving_tail.csv";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--apps=", 0) == 0) {
            apps = splitCommas(arg.substr(7));
        } else if (arg.rfind("--policies=", 0) == 0) {
            policies = splitCommas(arg.substr(11));
        } else if (arg == "--no-thp") {
            thp_values = {false};
        } else if (arg.rfind("--trials=", 0) == 0) {
            trials = parseIntArg("--trials", arg.substr(9), 1, 1000000);
        } else if (arg == "--faults" && i + 1 < argc) {
            faults = FaultPlan::parseOrDie(argv[++i]);
        } else if (arg.rfind("--faults=", 0) == 0) {
            faults = FaultPlan::parseOrDie(arg.substr(9));
        } else if (arg.rfind("--out=", 0) == 0) {
            out_path = arg.substr(6);
        } else if (arg.rfind("--csv=", 0) == 0) {
            csv_path = arg.substr(6);
        } else {
            std::cerr << "usage: serving_tail [--apps=kv,lsm]"
                         " [--policies=P1,...] [--no-thp]"
                         " [--faults PLAN] [--trials=N]"
                         " [--out=PATH.json] [--csv=PATH.csv]\n";
            return 2;
        }
    }
    if (apps.empty() || policies.empty()) {
        std::cerr << "serving_tail: bad sweep parameters\n";
        return 2;
    }
    for (const std::string &p : policies) {
        if (!PolicyRegistry::instance().contains(p))
            fatal("unknown policy '%s'", p.c_str());
    }

    benchHeader("data-serving tail latency under tiering policies",
                "serving-scenario extension of the paper's workload "
                "matrix (Section 4.1)");
    std::cout << "serving scale:        2^" << scale << " keys, "
              << trials * 5000 << " requests, "
              << (thp_values.size() > 1 ? "thp off+on" : "thp off")
              << "\n";
    if (faults.anyEnabled())
        std::cout << "fault plan:           " << faults.summary() << "\n";

    ServingSpec ref_spec;  // For the SLO threshold only.
    const Cycles slo = ref_spec.sloCycles();

    std::vector<Cell> cells;
    for (const std::string &app : apps) {
        for (const bool thp : thp_values) {
            for (const std::string &policy : policies) {
                WorkloadSpec w;
                if (app == "kv") {
                    w.app = App::KV;
                } else if (app == "lsm") {
                    w.app = App::LSM;
                } else {
                    fatal("unknown serving app '%s'", app.c_str());
                }
                w.kind = GraphKind::Kron;  // Zipfian keys.
                w.scale = scale;
                w.trials = trials;

                RunConfig rc;
                rc.workload = w;
                rc.policy = policy;
                rc.sampling = false;
                rc.sys.thp.enabled = thp;
                rc.sys.faults = faults;
                rc.sys.dram =
                    makeDramParams(scaledCapacity(24 * kMiB, scale));
                rc.sys.nvm =
                    makeNvmParams(scaledCapacity(96 * kMiB, scale));
                std::cerr << "running " << w.name() << " [" << policy
                          << (thp ? ", thp" : "") << "]...\n";

                Cell c;
                c.workload = w.name();
                c.policy = policy;
                c.thp = thp;
                c.r = runWorkload(rc);
                MEMTIER_ASSERT(c.r.hasServing,
                               "serving run produced no report");
                cells.push_back(std::move(c));
            }
        }
    }

    TextTable table({"workload", "policy", "thp", "p50 (us)", "p99 (us)",
                     "p999 (us)", "slo viol", "storm p99", "storm viol"});
    for (const Cell &c : cells) {
        const ServingReport &s = c.r.serving;
        const auto &storm =
            s.phaseLatency[static_cast<int>(ServePhase::Storm)];
        table.addRow(
            {c.workload, c.policy, c.thp ? "on" : "off",
             num(usec(s.latency.percentile(0.50)), 2),
             num(usec(s.latency.percentile(0.99)), 2),
             num(usec(s.latency.percentile(0.999)), 2),
             num(s.sloViolationFraction(slo), 4),
             num(usec(storm.percentile(0.99)), 2),
             num(storm.violationFraction(slo), 4)});
    }
    table.print(std::cout);

    std::ofstream csv(csv_path);
    if (!csv)
        fatal("cannot open %s", csv_path.c_str());
    csv << "workload,policy,thp,requests,p50_usec,p99_usec,p999_usec,"
           "mean_usec,max_usec,slo_violation,offpeak_p99_usec,"
           "peak_p99_usec,storm_p99_usec,offpeak_violation,"
           "peak_violation,storm_violation,prefill_sec,total_sec,"
           "checksum\n";
    for (const Cell &c : cells) {
        const ServingReport &s = c.r.serving;
        csv << c.workload << "," << c.policy << ","
            << (c.thp ? 1 : 0) << "," << s.requests << ","
            << usec(s.latency.percentile(0.50)) << ","
            << usec(s.latency.percentile(0.99)) << ","
            << usec(s.latency.percentile(0.999)) << ","
            << usec(s.latency.mean()) << ","
            << usec(static_cast<double>(s.latency.max())) << ","
            << s.sloViolationFraction(slo);
        for (int ph = 0; ph < kNumServePhases; ++ph)
            csv << "," << usec(s.phaseLatency[ph].percentile(0.99));
        for (int ph = 0; ph < kNumServePhases; ++ph)
            csv << "," << s.phaseLatency[ph].violationFraction(slo);
        csv << "," << s.prefillSeconds << "," << c.r.totalSeconds << ","
            << c.r.outputChecksum << "\n";
    }
    csv.close();

    std::ofstream json(out_path);
    if (!json)
        fatal("cannot open %s", out_path.c_str());
    json << "{\n"
         << "  \"bench\": \"serving_tail\",\n"
         << "  \"scale\": " << scale << ",\n"
         << "  \"requests\": " << trials * 5000 << ",\n"
         << "  \"slo_usec\": " << ref_spec.sloMicros << ",\n"
         << "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        const ServingReport &s = c.r.serving;
        json << "    {\"workload\": \"" << c.workload
             << "\", \"policy\": \"" << c.policy << "\", \"thp\": "
             << (c.thp ? "true" : "false") << ",\n"
             << "     \"p50_usec\": " << usec(s.latency.percentile(0.50))
             << ", \"p99_usec\": " << usec(s.latency.percentile(0.99))
             << ", \"p999_usec\": "
             << usec(s.latency.percentile(0.999)) << ",\n"
             << "     \"mean_usec\": " << usec(s.latency.mean())
             << ", \"slo_violation\": " << s.sloViolationFraction(slo)
             << ", \"checksum\": " << c.r.outputChecksum << ",\n"
             << "     \"phases\": {";
        for (int ph = 0; ph < kNumServePhases; ++ph) {
            const auto &h = s.phaseLatency[ph];
            json << (ph ? ", " : "") << "\""
                 << servePhaseName(static_cast<ServePhase>(ph))
                 << "\": {\"requests\": " << h.count()
                 << ", \"p99_usec\": " << usec(h.percentile(0.99))
                 << ", \"violation\": " << h.violationFraction(slo)
                 << "}";
        }
        json << "}}" << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";

    std::cout << "\nwrote " << out_path << " and " << csv_path << " ("
              << cells.size() << " cells)\n";
    return 0;
}
