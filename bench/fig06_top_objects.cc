/**
 * @file
 * Reproduces Figure 6: for bc_kron, the top-10 memory objects ranked by
 * external samples on DRAM (6a) and on NVM (6b), as a percentage of all
 * mapped external samples on that node plus the absolute count.
 *
 * Finding 2's check: very few objects concentrate the majority of NVM
 * accesses (the paper's bc_kron has one object with ~65% of NVM
 * samples; bfs_urand/cc_urand reach 90%).
 */

#include <algorithm>

#include "bench_common.h"

using namespace memtier;

namespace {

void
printTop(const std::vector<ObjectAccessCount> &counts, bool nvm)
{
    std::vector<ObjectAccessCount> sorted = counts;
    std::sort(sorted.begin(), sorted.end(),
              [nvm](const ObjectAccessCount &a,
                    const ObjectAccessCount &b) {
                  return (nvm ? a.nvmSamples : a.dramSamples) >
                         (nvm ? b.nvmSamples : b.dramSamples);
              });
    std::uint64_t total = 0;
    for (const auto &c : sorted)
        total += nvm ? c.nvmSamples : c.dramSamples;

    TextTable table({"rank", "object", "site", "size",
                     nvm ? "% of NVM samples" : "% of DRAM samples",
                     "samples"});
    for (std::size_t i = 0; i < std::min<std::size_t>(10, sorted.size());
         ++i) {
        const auto &c = sorted[i];
        const std::uint64_t n = nvm ? c.nvmSamples : c.dramSamples;
        if (n == 0)
            break;
        table.addRow({std::to_string(i), std::to_string(c.object),
                      c.site, fmtBytes(c.bytes),
                      pct(static_cast<double>(n) /
                          static_cast<double>(std::max<std::uint64_t>(
                              total, 1))),
                      fmtCount(n)});
    }
    table.print(std::cout);
}

}  // namespace

int
main()
{
    benchHeader("Figure 6 -- top-10 objects by DRAM/NVM samples "
                "(bc_kron)",
                "Section 6.2, Figures 6a/6b + Finding 2");

    WorkloadSpec w;
    w.app = App::BC;
    w.kind = GraphKind::Kron;
    w.scale = benchScale();
    w.trials = 3;
    const RunResult r = runBench(benchConfig(w));
    const auto counts = objectAccessCounts(r.samples, r.tracker);

    std::cout << "\n(a) DRAM: top 10 objects with most samples\n";
    printTop(counts, /*nvm=*/false);
    std::cout << "\n(b) NVM: top 10 objects with most samples\n";
    printTop(counts, /*nvm=*/true);

    std::cout << "\nExpected shape: a handful of objects concentrate "
                 "the NVM samples, and the\nhottest NVM object also "
                 "ranks high on DRAM (the paper's object 0 led both).\n";
    return 0;
}
