/**
 * @file
 * Copy-worker scaling of the simulated parallel migration copy engine:
 * the effective bandwidth of a deterministic huge-promotion storm at
 * 1/2/4/8 copy workers (simulated GB/s -- identical on any machine,
 * which is what the CI gate keys on: >= 2x at 4 workers).
 *
 * Usage:
 *   parallel_scaling [--out=PATH.json]
 *
 * --out writes a machine-readable JSON record (BENCH_parallel.json in
 * the CI flow).
 */

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "base/logging.h"
#include "bench_common.h"
#include "os/kernel.h"
#include "os/physical_memory.h"

using namespace memtier;

namespace {

/** Huge pages promoted per storm. */
constexpr std::uint64_t kHuge = 32;

/** Shootdown sink for the kernel-level migration storm. */
class NullShootdown : public TlbShootdownClient
{
  public:
    void tlbShootdown(PageNum) override {}
    void tlbShootdownHuge(PageNum) override {}
};

/**
 * Deterministic huge-promotion storm (same shape the CopyEngineVmstat
 * test asserts on): kHuge huge pages faulted onto NVM behind a DRAM
 * filler, then promoted one by one with the pool draining in between.
 * Returns the copy engine's effective bandwidth in bytes per simulated
 * second -- a pure function of the worker count.
 */
double
migrationStormBandwidth(std::uint32_t copy_workers)
{
    KernelParams kp;
    kp.thp.enabled = true;
    kp.copyThreads = copy_workers;
    PhysicalMemory phys(
        makeDramParams((kHuge + 8) * kPagesPerHuge * kPageSize),
        makeNvmParams(2 * kHuge * kPagesPerHuge * kPageSize));
    Kernel kern(phys, kp);
    NullShootdown sink;
    kern.setShootdownClient(&sink);

    const std::uint64_t filler_pages = (kHuge + 8) * kPagesPerHuge;
    const Addr filler =
        kern.mmap(0, filler_pages * kPageSize, 0, "filler");
    for (std::uint64_t i = 0; i < filler_pages; ++i)
        kern.touchPage(pageOf(filler) + i, 1000 + i, MemOp::Store);

    std::vector<PageNum> bases;
    for (std::uint64_t h = 0; h < kHuge; ++h) {
        const Addr a = kern.mmap(0, kHugePageSize, 1 + h, "huge");
        kern.touchPage(pageOf(a), 40000000 + h, MemOp::Store);
        if (!kern.isHugeMapped(pageOf(a)) ||
            kern.nodeOf(pageOf(a)) != MemNode::NVM) {
            fatal("parallel_scaling: storm setup failed to place a "
                  "huge page on NVM");
        }
        bases.push_back(pageOf(a));
    }
    kern.munmap(50000000, filler);

    Cycles now = 60000000;
    for (const PageNum base : bases) {
        if (kern.promotePage(base + 123, now) == 0)
            fatal("parallel_scaling: huge promotion failed mid-storm");
        now += 10000000;  // Pool drains fully between copies.
    }
    const CopyEngine &ce = kern.copyEngine();
    return static_cast<double>(ce.bytesCopied()) /
           cyclesToSeconds(ce.chargedCycles());
}

}  // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::uint32_t> workers = {1, 2, 4, 8};
    std::string out_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--out=", 0) == 0) {
            out_path = arg.substr(6);
        } else {
            std::cerr << "usage: parallel_scaling [--out=PATH.json]\n";
            return 2;
        }
    }

    std::cout << "parallel_scaling: huge-promotion storm, " << kHuge
              << " x 2 MiB\n";
    BenchRecord rec;
    rec.set("bench", "parallel_scaling")
        .set("workload", "huge_promotion_storm")
        .set("huge_pages", kHuge);
    std::vector<double> bps;
    for (const std::uint32_t w : workers) {
        bps.push_back(migrationStormBandwidth(w));
        std::cout << "  copy workers " << w << ": migration "
                  << bps.back() / 1e9 << " GB/s (" << bps.back() / bps[0]
                  << "x)\n";
        rec.addRow("per_workers")
            .set("workers", w)
            .set("migration_bytes_per_sec", bps.back())
            .set("migration_speedup", bps.back() / bps[0]);
    }

    if (!out_path.empty()) {
        rec.writeJson(out_path);
        std::cout << "  wrote " << out_path << "\n";
    }
    return 0;
}
