/**
 * @file
 * Tuned-vs-default comparison for the online autotune policy: every
 * workload runs twice from the same construction-time configuration --
 * once under plain "autonuma", once under "autotune" wrapping autonuma
 * -- and the bench reports end-to-end speedup plus the tuner's
 * trajectory counters and the effective (post-tuning) tunable values.
 * This is the "From Good to Great" experiment run online: the starting
 * point is the stock configuration and the hill climber has to find
 * the better scan cadence / promotion budget while the workload runs.
 *
 * Usage:
 *   autotune_sweep [--workload APP:KIND]... [--trials=N] [--seed=S]
 *                  [--epoch-ms=MS] [--out=PATH.json] [--csv=PATH.csv]
 */

#include <climits>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.h"
#include "bench_common.h"
#include "policy/policy_registry.h"

using namespace memtier;

namespace {

/** One workload measured under both arms. */
struct Cell
{
    std::string workload;
    RunResult def;    ///< Plain autonuma, stock tunables.
    RunResult tuned;  ///< autotune wrapping autonuma, same start.
};

std::uint64_t
counter(const RunResult &r, const std::string &key)
{
    for (const auto &[name, value] : r.policyCounters) {
        if (name == key)
            return value;
    }
    return 0;
}

std::string
joinedEffective(const RunResult &r)
{
    std::string out;
    for (const auto &[key, value] : r.effectiveTunables) {
        if (!out.empty())
            out += ";";
        out += key + "=" + value;
    }
    return out;
}

}  // namespace

int
main(int argc, char **argv)
{
    const int scale = std::max(12, benchScale() - 4);

    std::vector<std::string> workload_names;
    int trials = 8;
    std::uint64_t seed = 42;
    double epoch_ms = 0.5;
    std::string out_path = "BENCH_autotune.json";
    std::string csv_path = "results/autotune_sweep.csv";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value_of = [&](const std::string &flag) -> std::string {
            if (arg.size() > flag.size() && arg[flag.size()] == '=')
                return arg.substr(flag.size() + 1);
            if (i + 1 >= argc)
                fatal("%s needs a value", flag.c_str());
            return argv[++i];
        };
        if (arg.rfind("--workload", 0) == 0) {
            workload_names.push_back(value_of("--workload"));
        } else if (arg.rfind("--trials", 0) == 0) {
            trials = parseIntArg("--trials", value_of("--trials"), 1, 1000000);
        } else if (arg.rfind("--seed", 0) == 0) {
            seed = parseIntArg("--seed", value_of("--seed"), 0LL, LLONG_MAX);
        } else if (arg.rfind("--epoch-ms", 0) == 0) {
            epoch_ms = std::stod(value_of("--epoch-ms"));
        } else if (arg.rfind("--out", 0) == 0) {
            out_path = value_of("--out");
        } else if (arg.rfind("--csv", 0) == 0) {
            csv_path = value_of("--csv");
        } else {
            std::cerr << "usage: autotune_sweep [--workload APP:KIND]..."
                         " [--trials=N] [--seed=S] [--epoch-ms=MS]"
                         " [--out=PATH.json] [--csv=PATH.csv]\n";
            return 2;
        }
    }
    if (workload_names.empty()) {
        workload_names = {"pr:kron", "bc:kron", "cc:kron", "kv:kron",
                          "lsm:kron"};
    }

    // Both arms start from the identical mistuned configuration -- a
    // sluggish scan and a starved promotion budget, the kind of stock
    // setting "From Good to Great" shows admins actually run with. The
    // tuned arm may then move any of the base's registered tunables
    // while the workload runs; the default arm is stuck with them.
    const std::vector<std::string> base_tunables = {
        "scan_period_ms=2", "adjust_period_ms=2", "rate_limit_kib=128"};
    std::ostringstream meta;
    meta << "epoch_ms=" << epoch_ms;
    const std::string epoch_assignment = meta.str();

    benchHeader("online autotuning vs. the stock configuration",
                "parameter-tuning methodology for tiered-memory "
                "kernels, applied online");
    std::cout << "tuner:                base=autonuma, " << epoch_assignment
              << ", seed=" << seed << "\n";

    std::vector<Cell> cells;
    for (const std::string &name : workload_names) {
        const WorkloadSpec w = parseWorkload(name, scale, trials);

        RunConfig rc;
        rc.workload = w;
        rc.sampling = false;
        // One third of the standard testbed's DRAM: placement quality
        // has to matter for parameter tuning to have any headroom, so
        // this sweep runs under real capacity pressure.
        rc.sys.dram = makeDramParams(scaledCapacity(8 * kMiB, scale));
        rc.sys.nvm = makeNvmParams(scaledCapacity(96 * kMiB, scale));

        Cell c;
        c.workload = w.name();

        std::cerr << "running " << c.workload << " [autonuma]...\n";
        rc.policy = "autonuma";
        rc.tunables = base_tunables;
        c.def = runWorkload(rc);

        std::cerr << "running " << c.workload << " [autotune]...\n";
        rc.policy = "autotune";
        rc.tunables = base_tunables;
        rc.tunables.push_back("base=autonuma");
        rc.tunables.push_back(epoch_assignment);
        rc.tunables.push_back("seed=" + std::to_string(seed));
        // Aggressive climb: the mistuned start is far from the optimum
        // (the promotion budget alone is off by an order of magnitude),
        // so take coarse steps and accept any measurable gain.
        rc.tunables.push_back("step=0.5");
        rc.tunables.push_back("min_gain=0.01");
        c.tuned = runWorkload(rc);

        MEMTIER_ASSERT(c.def.outputChecksum == c.tuned.outputChecksum,
                       "tuning changed application output");
        cells.push_back(std::move(c));
    }

    TextTable table({"workload", "default (s)", "tuned (s)", "speedup",
                     "applied", "accepted", "reverted"});
    for (const Cell &c : cells) {
        const double speedup = c.def.totalSeconds / c.tuned.totalSeconds;
        table.addRow({c.workload, num(c.def.totalSeconds, 4),
                      num(c.tuned.totalSeconds, 4), num(speedup, 3),
                      fmtCount(counter(c.tuned, "tuner_applied")),
                      fmtCount(counter(c.tuned, "tuner_accepted")),
                      fmtCount(counter(c.tuned, "tuner_reverted"))});
    }
    table.print(std::cout);

    BenchRecord rec;
    rec.set("bench", "autotune_sweep")
        .set("scale", scale)
        .set("seed", seed)
        .set("epoch_ms", epoch_ms);
    for (const Cell &c : cells) {
        const std::string effective = joinedEffective(c.tuned);
        // Readers know the post-tuning values under two names:
        // effective_tunables in the CSV, effective in the JSON.
        rec.addRow("cells")
            .set("workload", c.workload)
            .set("default_seconds", c.def.totalSeconds)
            .set("tuned_seconds", c.tuned.totalSeconds)
            .set("speedup", c.def.totalSeconds / c.tuned.totalSeconds)
            .set("tuner_epochs", counter(c.tuned, "tuner_epochs"))
            .set("tuner_applied", counter(c.tuned, "tuner_applied"))
            .set("tuner_accepted", counter(c.tuned, "tuner_accepted"))
            .set("tuner_reverted", counter(c.tuned, "tuner_reverted"))
            .set("effective_tunables", effective)
            .set("effective", effective);
    }
    rec.writeCsv("cells", csv_path);
    rec.writeJson(out_path);

    std::cout << "\nwrote " << out_path << " and " << csv_path << " ("
              << cells.size() << " cells)\n";
    return 0;
}
