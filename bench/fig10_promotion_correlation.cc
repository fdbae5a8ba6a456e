/**
 * @file
 * Reproduces Figure 10: DRAM load samples over time vs. pages promoted
 * to DRAM over time for bc_kron, plus the (low) correlation between the
 * two series (Finding 7: promoted pages explain little of the DRAM
 * traffic; most DRAM-resident pages were simply allocated there).
 */

#include <cmath>
#include <vector>

#include "bench_common.h"

using namespace memtier;

namespace {

double
pearson(const std::vector<double> &x, const std::vector<double> &y)
{
    const std::size_t n = std::min(x.size(), y.size());
    if (n < 3)
        return 0.0;
    double mx = 0.0;
    double my = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        mx += x[i];
        my += y[i];
    }
    mx /= static_cast<double>(n);
    my /= static_cast<double>(n);
    double sxy = 0.0;
    double sxx = 0.0;
    double syy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sxy += (x[i] - mx) * (y[i] - my);
        sxx += (x[i] - mx) * (x[i] - mx);
        syy += (y[i] - my) * (y[i] - my);
    }
    if (sxx == 0.0 || syy == 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

}  // namespace

int
main()
{
    benchHeader("Figure 10 -- DRAM load samples vs. promotions over "
                "time (bc_kron)",
                "Section 6.7, Figure 10 + Finding 7");

    WorkloadSpec w;
    w.app = App::BC;
    w.kind = GraphKind::Kron;
    w.scale = benchScale();
    w.trials = 3;
    const RunResult r = runBench(benchConfig(w));

    // Bucket DRAM load samples by timeline interval.
    std::vector<double> dram_loads(r.timeline.size(), 0.0);
    const double period =
        r.timeline.size() >= 2
            ? r.timeline[1].sec - r.timeline[0].sec
            : 1.0;
    for (const auto &s : r.samples) {
        if (s.level != MemLevel::DRAM)
            continue;
        const auto bucket =
            static_cast<std::size_t>(s.seconds() / period);
        if (bucket < dram_loads.size())
            dram_loads[bucket] += 1.0;
    }
    // Promotion deltas per interval.
    std::vector<double> promotions;
    VmStat prev;
    for (const auto &p : r.timeline) {
        promotions.push_back(static_cast<double>(
            p.vm.delta(prev).pgpromoteSuccess));
        prev = p.vm;
    }

    TextTable table({"t (s)", "DRAM load samples", "pages promoted"});
    const std::size_t stride =
        std::max<std::size_t>(1, r.timeline.size() / 32);
    for (std::size_t i = 0; i < r.timeline.size(); i += stride) {
        table.addRow({num(r.timeline[i].sec, 2),
                      fmtCount(static_cast<std::uint64_t>(
                          dram_loads[i])),
                      fmtCount(static_cast<std::uint64_t>(
                          promotions[i]))});
    }
    table.print(std::cout);

    const double corr = pearson(dram_loads, promotions);
    std::uint64_t total_promo = r.vmstat.pgpromoteSuccess;
    std::uint64_t dram_total = 0;
    for (const double d : dram_loads)
        dram_total += static_cast<std::uint64_t>(d);
    std::cout << "\nPearson correlation(DRAM load samples, promotions) "
              << "= " << num(corr, 3) << "\n";
    std::cout << "total DRAM load samples: " << fmtCount(dram_total)
              << ", total promoted pages: " << fmtCount(total_promo)
              << "\n";
    std::cout << "Expected shape: promotions are small and weakly "
                 "correlated with DRAM traffic\n(Finding 7) -- DRAM "
                 "hits come overwhelmingly from initial placement, "
                 "not from\npromotion.\n";
    return 0;
}
