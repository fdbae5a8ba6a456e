/**
 * @file
 * Reproduces Figure 8: the access pattern of the hottest-on-NVM object
 * of bc_kron -- sampled (time, page-within-object) points over the full
 * run, then zoomed into a short window where the apparent structure
 * dissolves into random access (Finding 4).
 *
 * Instead of a scatter plot we print coarse occupancy rasters plus a
 * quantitative randomness check: the mean absolute page stride between
 * consecutive samples inside the zoom window.
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_common.h"

using namespace memtier;

namespace {

/** Print a time x page-bucket raster of sample density. */
void
raster(const std::vector<MemorySample> &samples,
       const AllocationRecord &rec, double t0, double t1, int cols,
       int rows)
{
    const std::uint64_t pages = roundUpPages(rec.bytes);
    std::vector<std::vector<int>> grid(
        static_cast<std::size_t>(rows),
        std::vector<int>(static_cast<std::size_t>(cols), 0));
    for (const auto &s : samples) {
        const double t = s.seconds();
        if (t < t0 || t >= t1)
            continue;
        if (s.vaddr < rec.start || s.vaddr >= rec.start + rec.bytes)
            continue;
        const auto col = static_cast<std::size_t>(
            (t - t0) / (t1 - t0) * cols);
        const auto row = static_cast<std::size_t>(
            static_cast<double>(pageOf(s.vaddr) - pageOf(rec.start)) /
            static_cast<double>(pages) * rows);
        ++grid[std::min<std::size_t>(row, rows - 1)]
              [std::min<std::size_t>(col, cols - 1)];
    }
    for (int row = rows - 1; row >= 0; --row) {
        std::cout << "  |";
        for (int col = 0; col < cols; ++col) {
            const int density = grid[static_cast<std::size_t>(row)]
                                    [static_cast<std::size_t>(col)];
            std::cout << (density == 0 ? ' '
                                       : (density < 3 ? '.'
                                                      : (density < 10
                                                             ? 'o'
                                                             : '#')));
        }
        std::cout << "|\n";
    }
    std::cout << "   t=" << num(t0, 3) << "s"
              << std::string(static_cast<std::size_t>(
                                 std::max(0, cols - 18)),
                             ' ')
              << "t=" << num(t1, 3) << "s  (rows: page range 0.."
              << pages << ")\n";
}

}  // namespace

int
main()
{
    benchHeader("Figure 8 -- access pattern of the hottest NVM object "
                "(bc_kron)",
                "Section 6.4, Figures 8a/8b + Finding 4");

    WorkloadSpec w;
    w.app = App::BC;
    w.kind = GraphKind::Kron;
    w.scale = benchScale();
    w.trials = 3;
    const RunResult r = runBench(benchConfig(w));

    const auto counts = objectAccessCounts(r.samples, r.tracker);
    const ObjectId hottest = hottestNvmObject(counts);
    const AllocationRecord *rec =
        hottest != kNoObject ? r.tracker.find(hottest) : nullptr;
    if (rec == nullptr) {
        std::cout << "no NVM-sampled object found\n";
        return 0;
    }
    std::cout << "\nhottest NVM object: id " << hottest << " (site "
              << rec->site << ", " << fmtBytes(rec->bytes) << ")\n";

    const double start = cyclesToSeconds(rec->allocTime);
    const double end = rec->live() ? r.totalSeconds
                                   : cyclesToSeconds(rec->freeTime);
    std::cout << "\n(a) full lifetime raster:\n";
    raster(r.samples, *rec, start, end, 64, 16);

    // Zoom window: 10% of the lifetime, centred.
    const double mid = 0.5 * (start + end);
    const double half = 0.05 * (end - start);
    std::cout << "\n(b) zoom into [" << num(mid - half, 3) << ", "
              << num(mid + half, 3) << ") s:\n";
    raster(r.samples, *rec, mid - half, mid + half, 64, 16);

    // Quantitative randomness: mean |stride| between consecutive
    // same-object samples in the zoom window, in pages.
    std::vector<std::uint64_t> zoom_pages;
    for (const auto &s : r.samples) {
        const double t = s.seconds();
        if (t < mid - half || t >= mid + half)
            continue;
        if (s.vaddr < rec->start || s.vaddr >= rec->start + rec->bytes)
            continue;
        zoom_pages.push_back(pageOf(s.vaddr) - pageOf(rec->start));
    }
    double stride_sum = 0.0;
    for (std::size_t i = 1; i < zoom_pages.size(); ++i) {
        stride_sum += std::abs(static_cast<double>(zoom_pages[i]) -
                               static_cast<double>(zoom_pages[i - 1]));
    }
    const double mean_stride =
        zoom_pages.size() > 1
            ? stride_sum / static_cast<double>(zoom_pages.size() - 1)
            : 0.0;
    const double object_pages =
        static_cast<double>(roundUpPages(rec->bytes));
    std::cout << "\nzoom-window samples: " << zoom_pages.size()
              << ", mean |page stride| between consecutive samples: "
              << num(mean_stride, 1) << " of " << object_pages
              << " pages (" << pct(mean_stride / object_pages)
              << " of the object)\n";
    std::cout << "\nExpected shape: the full-lifetime raster looks "
                 "banded/structured, but the\nzoom shows accesses "
                 "scattered across the whole page range -- a random "
                 "walk with\na mean stride a large fraction of the "
                 "object (Finding 4: pages of the hottest\nobjects "
                 "cannot be characterized as hot).\n";
    return 0;
}
