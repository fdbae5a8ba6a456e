/**
 * @file
 * Reproduces Figure 3: the distribution of memory samples across the
 * memory-hierarchy levels (L1/LFB/L2/L3/DRAM/NVM) for each workload,
 * with AutoNUMA enabled. The paper's claim: at least ~25% of samples
 * (up to ~50%) land outside the caches for these graph workloads.
 */

#include "bench_common.h"

using namespace memtier;

int
main()
{
    benchHeader("Figure 3 -- sample distribution across memory levels",
                "Section 5.1, Figure 3");

    TextTable table({"Workload", "L1", "LFB", "L2", "L3", "DRAM", "NVM",
                     "DRAM+NVM"});
    for (const WorkloadSpec &w : paperWorkloads(benchScale())) {
        const RunResult r = runBench(benchConfig(w));
        const LevelShares ls = levelShares(r.samples);
        table.addRow(
            {w.name(), pct(ls.frac[static_cast<int>(MemLevel::L1)]),
             pct(ls.frac[static_cast<int>(MemLevel::LFB)]),
             pct(ls.frac[static_cast<int>(MemLevel::L2)]),
             pct(ls.frac[static_cast<int>(MemLevel::L3)]),
             pct(ls.frac[static_cast<int>(MemLevel::DRAM)]),
             pct(ls.frac[static_cast<int>(MemLevel::NVM)]),
             pct(ls.externalFrac)});
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: the DRAM+NVM column sits in the "
                 "paper's 25-50% band,\nreflecting the poor cache "
                 "locality of graph analytics.\n";
    return 0;
}
