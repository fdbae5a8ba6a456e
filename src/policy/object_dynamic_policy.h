/**
 * @file
 * Dynamic object-level tiering ("object-dynamic") -- the natural online
 * extension of the paper's static proposal (its conclusion suggests
 * moving from offline profiling to runtime object management). Instead
 * of a one-shot plan, this policy watches external accesses per live
 * object, re-ranks objects by accesses-per-byte over a decaying window
 * every interval, and migrates whole objects between tiers under a
 * per-interval budget.
 *
 * Objects are the kernel's own application VMAs (one per mmap), so the
 * policy needs no profiler attached. It never marks pages for hint
 * faults; it reuses the kernel's reclaim/migration machinery and
 * counters.
 */

#ifndef MEMTIER_POLICY_OBJECT_DYNAMIC_POLICY_H_
#define MEMTIER_POLICY_OBJECT_DYNAMIC_POLICY_H_

#include <cstdint>
#include <unordered_map>

#include "os/kernel.h"
#include "os/kernel_hooks.h"
#include "sim/access_observer.h"

namespace memtier {

/** Observable statistics of the dynamic object policy. */
struct ObjectDynamicStats
{
    std::uint64_t rebalances = 0;
    std::uint64_t pagesMovedUp = 0;    ///< Toward DRAM.
    std::uint64_t pagesMovedDown = 0;  ///< Toward NVM.
};

/** The online object-level tiering policy. */
class ObjectDynamicPolicy : public TieringPolicy, private AccessObserver
{
  public:
    /**
     * @param kernel the kernel whose objects this policy manages.
     * @param interval cycles between rebalances.
     */
    ObjectDynamicPolicy(Kernel &kernel, Cycles interval);

    const char *name() const override { return "object-dynamic"; }

    /** No scanner marks pages, so hint faults never happen; no-op. */
    Cycles
    onHintFault(PageNum vpn, Cycles now, PageMeta &meta) override
    {
        (void)vpn;
        (void)now;
        (void)meta;
        return 0;
    }

    /** Rebalance: rank objects, migrate mismatched ones, decay. */
    void scanTick(Cycles now) override;

    Cycles scanPeriod() const override { return interval; }

    /** Counts external accesses per object. */
    AccessObserver *accessObserver() override { return this; }

    std::vector<PolicyCounter> snapshotStats() const override;

    /** Register interval_ms as a live tunable. */
    void registerTunables(TunableRegistry &registry) override;

    /** Policy statistics. */
    const ObjectDynamicStats &stats() const { return stat; }

  private:
    void onAccess(const AccessRecord &record) override;

    Kernel &kernel;
    Cycles interval;
    ObjectDynamicStats stat;
    std::unordered_map<ObjectId, double> windowCounts;
};

}  // namespace memtier

#endif  // MEMTIER_POLICY_OBJECT_DYNAMIC_POLICY_H_
