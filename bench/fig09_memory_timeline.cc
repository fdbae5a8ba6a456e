/**
 * @file
 * Reproduces Figure 9: for bc_kron over time -- (top) memory allocated
 * on DRAM and NVM split into application and page-cache pages, (middle)
 * demotion and promotion counter deltas, (bottom) CPU utilization --
 * plus Finding 5 (page cache halved by demotion) and Finding 6
 * (promotions far below the rate limit).
 */

#include "bench_common.h"

using namespace memtier;

int
main()
{
    benchHeader("Figure 9 -- memory usage, migrations, CPU over time "
                "(bc_kron)",
                "Section 6.5/6.6, Figure 9 + Findings 5, 6");

    WorkloadSpec w;
    w.app = App::BC;
    w.kind = GraphKind::Kron;
    w.scale = benchScale();
    w.trials = 3;
    const RunResult r = runBench(benchConfig(w));

    TextTable table({"t (s)", "DRAM app", "DRAM cache", "NVM app",
                     "NVM cache", "demote d", "promote d", "CPU"});
    VmStat prev;
    std::size_t printed = 0;
    const std::size_t stride =
        std::max<std::size_t>(1, r.timeline.size() / 32);
    for (std::size_t i = 0; i < r.timeline.size(); i += stride) {
        const TimelinePoint &p = r.timeline[i];
        const VmStat d = p.vm.delta(prev);
        prev = p.vm;
        table.addRow(
            {num(p.sec, 2), fmtBytes(p.numa.appPages[0] * kPageSize),
             fmtBytes(p.numa.cachePages[0] * kPageSize),
             fmtBytes(p.numa.appPages[1] * kPageSize),
             fmtBytes(p.numa.cachePages[1] * kPageSize),
             fmtCount(d.pgdemoteKswapd + d.pgdemoteDirect),
             fmtCount(d.pgpromoteSuccess), pct(p.cpuUtil, 0)});
        ++printed;
    }
    table.print(std::cout);

    // Finding 5: peak vs final DRAM page cache.
    std::uint64_t peak_cache = 0;
    for (const auto &p : r.timeline)
        peak_cache = std::max(peak_cache, p.numa.cachePages[0]);
    const std::uint64_t final_cache =
        r.timeline.empty() ? 0 : r.timeline.back().numa.cachePages[0];

    std::cout << "\ntotals: demotions kswapd="
              << fmtCount(r.vmstat.pgdemoteKswapd)
              << " direct=" << fmtCount(r.vmstat.pgdemoteDirect)
              << " promotions=" << fmtCount(r.vmstat.pgpromoteSuccess)
              << " promote-then-demote="
              << fmtCount(r.vmstat.pgpromoteDemoted) << "\n";
    std::cout << "Finding 5: DRAM page cache peak "
              << fmtBytes(peak_cache * kPageSize) << " -> final "
              << fmtBytes(final_cache * kPageSize)
              << " (demotion reclaimed the input-reading phase's "
                 "cache).\n";
    std::cout << "Finding 6: promotions ("
              << fmtCount(r.vmstat.pgpromoteSuccess)
              << " pages over " << num(r.totalSeconds, 2)
              << " s) stay below the configured rate limit budget of "
              << fmtBytes(static_cast<std::uint64_t>(
                     512.0 * 1024.0 * r.totalSeconds))
              << ".\n";
    std::cout << "Expected shape: DRAM fills early (app + page cache), "
                 "new allocations then go\nto NVM, demotions exceed "
                 "promotions, and CPU is low during the read phase "
                 "then\nhigh during compute.\n";
    return 0;
}
