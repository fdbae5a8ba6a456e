#include "base/rng.h"

namespace memtier {

Rng::Rng(std::uint64_t seed)
{
    SplitMix64 sm(seed);
    for (auto &word : s)
        word = sm.next();
}

}  // namespace memtier
