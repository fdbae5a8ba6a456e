#include "calibrate.h"

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace perfbench {

namespace {

/** One LRU set-associative level with 64-byte lines, over storage it
 *  does not own. */
class LruLevel
{
  public:
    LruLevel(std::uint64_t *tags, std::uint32_t *ages, std::uint64_t lines,
             int ways)
        : tags_(tags), ages_(ages), lines_(lines), ways_(ways),
          sets_(lines / static_cast<std::uint64_t>(ways))
    {
        std::fill(tags_, tags_ + lines_, ~std::uint64_t{0});
        std::fill(ages_, ages_ + lines_, 0u);
    }

    bool
    access(std::uint64_t line)
    {
        const std::uint64_t base = (line % sets_) * ways_;
        std::uint64_t *tags = &tags_[base];
        std::uint32_t *ages = &ages_[base];
        ++clock_;
        int victim = 0;
        for (int w = 0; w < ways_; ++w) {
            if (tags[w] == line) {
                ages[w] = clock_;
                return true;
            }
            if (ages[w] < ages[victim])
                victim = w;
        }
        tags[victim] = line;
        ages[victim] = clock_;
        return false;
    }

  private:
    std::uint64_t *tags_;
    std::uint32_t *ages_;
    std::uint64_t lines_;
    int ways_;
    std::uint64_t sets_;
    std::uint32_t clock_ = 0;
};

constexpr std::uint64_t kL1Lines = (std::uint64_t{32} << 10) / 64;
constexpr std::uint64_t kL2Lines = (std::uint64_t{1} << 20) / 64;
std::uint64_t g_l1Tags[kL1Lines];
std::uint32_t g_l1Ages[kL1Lines];
std::uint64_t g_l2Tags[kL2Lines];
std::uint32_t g_l2Ages[kL2Lines];

/** Keeps the kernel's result observable. */
volatile std::uint64_t g_calibrationSink = 0;

}  // namespace

double
calibrationSeconds()
{
    LruLevel l1(g_l1Tags, g_l1Ages, kL1Lines, 8);
    LruLevel l2(g_l2Tags, g_l2Ages, kL2Lines, 16);
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t x = 5;
    std::uint64_t hits = 0;
    for (int i = 0; i < 3'000'000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::uint64_t r = x >> 40;
        // Seven in eight lookups go to a 1 MiB hot region, the rest
        // anywhere in 1 GiB.
        const std::uint64_t line = (r & 7) != 0 ? (r & 0x3fff) : r;
        hits += l1.access(line) || l2.access(line);
    }
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    g_calibrationSink = hits;
    return seconds;
}

}  // namespace perfbench
