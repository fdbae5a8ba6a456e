/**
 * @file
 * Reproduces Figure 7: the allocation timeline of bc_kron -- current
 * live application bytes over time -- annotated with the allocation of
 * the hottest-on-NVM object, showing that it is mapped right after a
 * sizeable release by another object (Finding 3: pages land in DRAM
 * because space happens to be free, not because they are hot).
 */

#include "bench_common.h"

using namespace memtier;

int
main()
{
    benchHeader("Figure 7 -- object allocation timeline (bc_kron)",
                "Section 6.3, Figure 7 + Finding 3");

    WorkloadSpec w;
    w.app = App::BC;
    w.kind = GraphKind::Kron;
    w.scale = benchScale();
    w.trials = 3;
    const RunResult r = runBench(benchConfig(w));

    const auto counts = objectAccessCounts(r.samples, r.tracker);
    const ObjectId hottest = hottestNvmObject(counts);
    const AllocationRecord *hot_rec =
        hottest != kNoObject ? r.tracker.find(hottest) : nullptr;

    std::cout << "\nLive application bytes over time (downsampled):\n";
    TextTable table({"t (s)", "live bytes", "live"});
    const TimeSeries live = r.tracker.liveBytesSeries().downsampled(40);
    for (const auto &p : live.points()) {
        table.addRow({num(p.time, 3),
                      fmtBytes(static_cast<std::uint64_t>(p.value)),
                      std::string(
                          static_cast<std::size_t>(
                              40.0 * p.value /
                              std::max(1.0,
                                       r.tracker.liveBytesSeries()
                                           .max())),
                          '#')});
    }
    table.print(std::cout);

    std::cout << "\nAllocation/free events around the hottest NVM "
                 "object:\n";
    if (hot_rec != nullptr) {
        std::cout << "hottest NVM object: id " << hottest << " (site "
                  << hot_rec->site << ", " << fmtBytes(hot_rec->bytes)
                  << ") allocated at t=" << num(
                         cyclesToSeconds(hot_rec->allocTime), 3)
                  << " s\n";
        // Find the releases immediately preceding its allocation.
        std::uint64_t freed_before = 0;
        for (const auto &rec : r.tracker.records()) {
            if (!rec.live() && rec.freeTime <= hot_rec->allocTime &&
                rec.freeTime + secondsToCycles(0.25) >
                    hot_rec->allocTime) {
                freed_before += rec.bytes;
                std::cout << "  preceding release: object " << rec.object
                          << " (site " << rec.site << ", "
                          << fmtBytes(rec.bytes) << ") freed at t="
                          << num(cyclesToSeconds(rec.freeTime), 3)
                          << " s\n";
            }
        }
        std::cout << "  bytes released in the 0.25 s before the "
                     "allocation: "
                  << fmtBytes(freed_before) << "\n";
    } else {
        std::cout << "no NVM samples were mapped to an object\n";
    }

    std::cout << "\nExpected shape: the timeline shows the recurring "
                 "per-source allocate/free\npattern, and the hottest "
                 "NVM object is allocated shortly after space is "
                 "freed --\nso part of it lands on DRAM by accident of "
                 "timing (Finding 3).\n";
    return 0;
}
