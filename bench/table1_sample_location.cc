/**
 * @file
 * Reproduces Table 1: for each of the six workloads, the percentage of
 * memory samples that hit outside the caches, and the DRAM/NVM split of
 * those external samples, under AutoNUMA.
 *
 * Paper values for comparison (outside / DRAM / NVM):
 *   bc_kron 49.1 / 67.69 / 32.31      bc_urand 28.5 / 78.18 / 21.82
 *   bfs_kron 37.4 / 93.87 / 6.13      bfs_urand 27.1 / 68.83 / 31.17
 *   cc_kron 46.9 / 95.08 / 4.92       cc_urand 48.6 / 91.48 / 8.52
 */

#include "bench_common.h"

using namespace memtier;

int
main()
{
    benchHeader("Table 1 -- where external samples hit",
                "Section 6.1, Table 1");

    TextTable table({"Workload", "Outside Cache", "Pages in DRAM",
                     "Pages in NVM", "ext samples"});
    for (const WorkloadSpec &w : paperWorkloads(benchScale())) {
        const RunResult r = runBench(benchConfig(w));
        const LevelShares ls = levelShares(r.samples);
        const ExternalSplit es = externalSplit(r.samples);
        table.addRow({w.name(), pct(ls.externalFrac), pct(es.dramFrac, 2),
                      pct(es.nvmFrac, 2), fmtCount(es.externalSamples)});
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: every workload has a significant "
                 "external fraction (paper: 27-49%),\nDRAM holds the "
                 "majority of external hits, and the NVM share depends "
                 "on the\napplication-dataset combination rather than "
                 "either alone.\n";
    return 0;
}
