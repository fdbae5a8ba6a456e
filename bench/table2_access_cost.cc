/**
 * @file
 * Reproduces Table 2: the share of total external access *cost* (sum of
 * sampled latencies, in cycles) spent on DRAM vs. NVM per workload.
 *
 * Paper values (DRAM cost / NVM cost):
 *   bc_kron 37.53 / 62.47     bc_urand 62.95 / 37.05
 *   bfs_kron 79.81 / 20.19    bfs_urand 28.20 / 71.80
 *   cc_kron 89.51 / 10.49     cc_urand 80.30 / 19.70
 */

#include <algorithm>
#include <vector>

#include "bench_common.h"

using namespace memtier;

int
main()
{
    benchHeader("Table 2 -- external access cost split",
                "Section 6.1, Table 2");

    struct Row
    {
        std::string name;
        CostSplit cost;
        ExternalSplit access;
    };
    std::vector<Row> rows;
    for (const WorkloadSpec &w : paperWorkloads(benchScale())) {
        const RunResult r = runBench(benchConfig(w));
        rows.push_back({w.name(), externalCostSplit(r.samples),
                        externalSplit(r.samples)});
    }
    // The paper orders Table 2 by descending NVM cost share.
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        return a.cost.nvmCostFrac > b.cost.nvmCostFrac;
    });

    TextTable table({"Application", "DRAM Access Cost", "NVM Access Cost",
                     "NVM access share", "cost amplification"});
    for (const Row &row : rows) {
        const double amp =
            row.access.nvmFrac > 0.0
                ? row.cost.nvmCostFrac / row.access.nvmFrac
                : 0.0;
        table.addRow({row.name, pct(row.cost.dramCostFrac, 2),
                      pct(row.cost.nvmCostFrac, 2),
                      pct(row.access.nvmFrac, 2), num(amp, 2) + "x"});
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: the NVM cost share always exceeds "
                 "the NVM access share\n(the paper's bc_kron/bfs_urand "
                 "spend >half their external cost on ~1/3 of\naccesses) "
                 "-- the amplification column must be > 1x everywhere.\n";
    return 0;
}
