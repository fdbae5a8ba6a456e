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

#include <iostream>
#include <string>
#include <vector>

#include "base/logging.h"
#include "bench_common.h"
#include "fault/fault_plan.h"
#include "policy/policy_registry.h"

using namespace memtier;

namespace {

/** One (app, policy, thp) measurement. */
struct Cell
{
    std::string workload;
    std::string policy;
    bool thp = false;
    RunResult r;
};

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

    BenchRecord rec;
    rec.set("bench", "serving_tail")
        .set("scale", scale)
        .set("requests", trials * 5000)
        .set("slo_usec", ref_spec.sloMicros);
    for (const Cell &c : cells) {
        const ServingReport &s = c.r.serving;
        BenchRecord &row = rec.addRow("cells");
        row.set("workload", c.workload)
            .set("policy", c.policy)
            .set("thp", c.thp)
            .set("requests", s.requests)
            .set("p50_usec", usec(s.latency.percentile(0.50)))
            .set("p99_usec", usec(s.latency.percentile(0.99)))
            .set("p999_usec", usec(s.latency.percentile(0.999)))
            .set("mean_usec", usec(s.latency.mean()))
            .set("max_usec", usec(static_cast<double>(s.latency.max())))
            .set("slo_violation", s.sloViolationFraction(slo));
        for (int ph = 0; ph < kNumServePhases; ++ph) {
            const auto &h = s.phaseLatency[ph];
            const std::string name =
                servePhaseName(static_cast<ServePhase>(ph));
            row.set(name + "_p99_usec", usec(h.percentile(0.99)))
                .set(name + "_violation", h.violationFraction(slo));
        }
        row.set("prefill_sec", s.prefillSeconds)
            .set("total_sec", c.r.totalSeconds)
            .set("checksum", c.r.outputChecksum);
        for (int ph = 0; ph < kNumServePhases; ++ph) {
            const auto &h = s.phaseLatency[ph];
            row.object("phases")
                .object(servePhaseName(static_cast<ServePhase>(ph)))
                .set("requests", h.count())
                .set("p99_usec", usec(h.percentile(0.99)))
                .set("violation", h.violationFraction(slo));
        }
    }
    rec.writeCsv("cells", csv_path);
    rec.writeJson(out_path);

    std::cout << "\nwrote " << out_path << " and " << csv_path << " ("
              << cells.size() << " cells)\n";
    return 0;
}
