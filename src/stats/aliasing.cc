#include "stats/aliasing.hh"

#include <algorithm>

#include "common/logging.hh"

namespace bpsim {

AliasTracker::AliasTracker(std::size_t entries)
    : lastPc(entries, untouched)
{
    bpsim_assert(entries > 0, "AliasTracker over zero entries");
}

void
AliasTracker::reset()
{
    std::fill(lastPc.begin(), lastPc.end(), untouched);
    accesses_ = 0;
    conflicts_ = 0;
    harmless_ = 0;
    touched_ = 0;
}

} // namespace bpsim
