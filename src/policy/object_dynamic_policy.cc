#include "policy/object_dynamic_policy.h"

#include <algorithm>
#include <vector>

#include "policy/tunable_registry.h"

namespace memtier {

namespace {

/** Pages migrated per rebalance at most. */
constexpr std::uint32_t kMigrationBudgetPages = 1024;

/** DRAM fraction reserved for kernel/page cache. */
constexpr double kDramReserveFrac = 0.12;

/** Exponential decay applied to window counts each rebalance. */
constexpr double kDecay = 0.5;

/** An application object: a VMA the kernel mapped for a tracked id. */
bool
isAppObject(const Vma &vma)
{
    return !vma.pageCache && vma.object >= 0;
}

}  // namespace

ObjectDynamicPolicy::ObjectDynamicPolicy(Kernel &kernel, Cycles interval)
    : kernel(kernel), interval(interval)
{
    kernel.setTieringPolicy(this);
}

void
ObjectDynamicPolicy::onAccess(const AccessRecord &record)
{
    if (!isExternalLevel(record.level))
        return;
    const Vma *vma = kernel.addressSpace().find(record.vaddr);
    if (vma == nullptr || !isAppObject(*vma))
        return;
    windowCounts[vma->object] += 1.0;
}

void
ObjectDynamicPolicy::scanTick(Cycles now)
{
    ++stat.rebalances;

    // Rank live objects by windowed accesses per requested byte (the
    // static planner's score, computed online).
    struct Ranked
    {
        const Vma *vma;
        double score;
    };
    std::vector<Ranked> ranked;
    for (const auto &[start, vma] : kernel.addressSpace().vmas()) {
        if (!isAppObject(vma))
            continue;
        auto it = windowCounts.find(vma.object);
        const double count =
            it == windowCounts.end() ? 0.0 : it->second;
        ranked.push_back({&vma, count / static_cast<double>(vma.bytes)});
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked &a, const Ranked &b) {
                  if (a.score != b.score)
                      return a.score > b.score;
                  return a.vma->object < b.vma->object;
              });

    // Greedy DRAM budget fill, then migrate mismatched objects under
    // the per-interval page budget -- demotions first so promotions
    // have room to land.
    const auto budget_bytes = static_cast<std::uint64_t>(
        static_cast<double>(
            kernel.physicalMemory().dram().params().capacityBytes) *
        (1.0 - kDramReserveFrac));
    std::uint64_t planned = 0;
    std::vector<const Vma *> want_dram;
    std::vector<const Vma *> want_nvm;
    for (const Ranked &r : ranked) {
        if (r.score > 0.0 && planned + r.vma->bytes <= budget_bytes) {
            planned += r.vma->bytes;
            want_dram.push_back(r.vma);
        } else {
            want_nvm.push_back(r.vma);
        }
    }

    std::uint32_t budget = kMigrationBudgetPages;
    for (const Vma *vma : want_nvm) {
        if (budget == 0)
            break;
        const std::uint32_t moved =
            kernel.migratePages(vma->start, vma->start + vma->bytes,
                                MemNode::NVM, budget, now);
        stat.pagesMovedDown += moved;
        budget -= moved;
    }
    for (const Vma *vma : want_dram) {
        if (budget == 0)
            break;
        const std::uint32_t moved =
            kernel.migratePages(vma->start, vma->start + vma->bytes,
                                MemNode::DRAM, budget, now);
        stat.pagesMovedUp += moved;
        budget -= moved;
    }

    // Decay the window so the ranking tracks phase changes.
    for (auto &[obj, count] : windowCounts)
        count *= kDecay;
}

std::vector<PolicyCounter>
ObjectDynamicPolicy::snapshotStats() const
{
    return {
        {"rebalances", stat.rebalances},
        {"pages_moved_up", stat.pagesMovedUp},
        {"pages_moved_down", stat.pagesMovedDown},
    };
}

void
ObjectDynamicPolicy::registerTunables(TunableRegistry &registry)
{
    registry.add({"interval_ms", "cycles between object rebalances (ms)",
                  name(), 0.05, 1000.0, false, /*rearmScan=*/true,
                  [this] { return cyclesToSeconds(interval) * 1e3; },
                  [this](double v) {
                      interval = secondsToCycles(v / 1000.0);
                  }});
}

}  // namespace memtier
