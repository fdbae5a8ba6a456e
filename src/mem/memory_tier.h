/**
 * @file
 * One memory tier = frame pool + timing device + usage accounting.
 */

#ifndef MEMTIER_MEM_MEMORY_TIER_H_
#define MEMTIER_MEM_MEMORY_TIER_H_

#include <array>
#include <cstdint>
#include <optional>

#include "base/types.h"
#include "mem/frame_allocator.h"
#include "mem/tier_device.h"
#include "mem/tier_params.h"

namespace memtier {

/** Who owns a physical frame, for numastat/free-style reporting. */
enum class FrameOwner : std::uint8_t {
    App = 0,       ///< Anonymous application pages (mmap-backed objects).
    PageCache,     ///< File page-cache pages from the input-reading phase.
};

/** Number of FrameOwner categories. */
inline constexpr int kNumFrameOwners = 2;

/**
 * A complete memory tier: capacity management plus device timing, with
 * per-owner page accounting so the harness can reproduce the paper's
 * numastat/free breakdowns (Figure 9).
 */
class MemoryTier
{
  public:
    /** @param params static tier configuration. */
    explicit MemoryTier(const TierParams &params);

    /** Allocate one frame charged to @p owner; nullopt when full. */
    std::optional<FrameNum> allocate(FrameOwner owner);

    /** Free a frame previously charged to @p owner. */
    void free(FrameNum frame, FrameOwner owner);

    /**
     * Allocate a naturally aligned 512-frame block (one 2 MiB huge
     * frame) charged to @p owner; nullopt when no block is fully free.
     */
    std::optional<FrameNum> allocateHuge(FrameOwner owner);

    /** Free an unsplit huge frame previously charged to @p owner. */
    void freeHuge(FrameNum base, FrameOwner owner);

    /**
     * Permanently retire a frame previously charged to @p owner
     * (memory-failure path). The owner's accounting drops by one page
     * but the frame stays allocated in the pool forever, so the tier's
     * effective capacity shrinks.
     */
    void retire(FrameNum frame, FrameOwner owner);

    /** True when @p frame has been retired. */
    bool
    isRetired(FrameNum frame) const
    {
        return allocator_.isRetired(frame);
    }

    /** Pages permanently retired on this tier. */
    std::uint64_t
    retiredPages() const
    {
        return allocator_.retiredFrames();
    }

    /** Capacity still backed by healthy frames. */
    std::uint64_t
    healthyPages() const
    {
        return totalPages() - retiredPages();
    }

    /** Record one correctable ECC error; returns the frame's total. */
    std::uint32_t
    recordCorrectable(FrameNum frame)
    {
        return allocator_.recordCorrectable(frame);
    }

    /** Forget a frame's correctable-error history. */
    void
    clearCorrectable(FrameNum frame)
    {
        allocator_.clearCorrectable(frame);
    }

    /** Timing access to this tier (delegates to the device model). */
    Cycles
    access(Cycles now, MemOp op, bool sequential)
    {
        return device_.access(now, op, sequential);
    }

    /** Pages currently allocated to @p owner. */
    std::uint64_t ownerPages(FrameOwner owner) const;

    /** Total pages allocated across owners. */
    std::uint64_t usedPages() const { return allocator_.usedFrames(); }

    /** Pages still free. */
    std::uint64_t freePages() const { return allocator_.freeFrames(); }

    /** Total capacity in pages. */
    std::uint64_t totalPages() const { return allocator_.totalFrames(); }

    /** Bytes currently allocated across owners. */
    std::uint64_t usedBytes() const { return usedPages() * kPageSize; }

    /** Successful 2 MiB frame allocations on this tier. */
    std::uint64_t hugeAllocs() const { return allocator_.hugeAllocs(); }

    /** 2 MiB frame allocations defeated by fragmentation. */
    std::uint64_t
    hugeAllocFails() const
    {
        return allocator_.hugeAllocFails();
    }

    /** The underlying timing device (for bandwidth/queue statistics). */
    const TierDevice &device() const { return device_; }

    /** Static parameters. */
    const TierParams &params() const { return cfg; }

  private:
    TierParams cfg;
    FrameAllocator allocator_;
    TierDevice device_;
    std::array<std::uint64_t, kNumFrameOwners> owner_pages{};
};

}  // namespace memtier

#endif  // MEMTIER_MEM_MEMORY_TIER_H_
