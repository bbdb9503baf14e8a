/**
 * @file
 * Aliasing (interference) measurement for predictor tables.
 *
 * The paper's definition (Section 3): "Aliasing conflicts between branches
 * occur when consecutive branch instances accessing a particular counter
 * arise from distinct branches.  These conflicts correspond to the
 * conflicts in a direct mapped cache."
 *
 * The tracker shadows a table of 2^n entries with the address of the last
 * branch that touched each entry and counts accesses whose address differs
 * from the remembered one.  It additionally classifies a conflict as
 * *harmless* when the first-level history pattern in effect is all-ones --
 * the tight-loop pattern the paper singles out ("approximately a fifth of
 * the aliasing for the larger benchmarks was for the pattern with all
 * recorded branches taken", Section 3).
 */

#ifndef BPSIM_STATS_ALIASING_HH
#define BPSIM_STATS_ALIASING_HH

#include <cstdint>
#include <vector>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace bpsim {

/** Conflict tracker shadowing a direct-mapped structure of 2^n entries. */
class AliasTracker
{
  public:
    /** @param entries number of tracked slots (> 0). */
    explicit AliasTracker(std::size_t entries);

    /**
     * Record an access to @p slot by the branch at @p pc.
     *
     * @param slot table index being accessed
     * @param pc address of the accessing branch
     * @param all_ones_pattern whether the history pattern that selected
     *        this slot is the all-taken pattern (harmless-alias class)
     * @return true when the access conflicts (previous accessor differs)
     */
    bool
    access(std::size_t slot, Addr pc, bool all_ones_pattern = false)
    {
        bpsim_assert(slot < lastPc.size(), "slot ", slot,
                     " out of range ", lastPc.size());
        ++accesses_;
        const Addr prev = lastPc[slot];
        lastPc[slot] = pc;
        if (prev == untouched) {
            ++touched_;
            return false;
        }
        if (prev == pc)
            return false;
        ++conflicts_;
        if (all_ones_pattern)
            ++harmless_;
        return true;
    }

    /** Total accesses recorded. */
    std::uint64_t accesses() const { return accesses_; }

    /** Accesses whose slot was last touched by a different branch. */
    std::uint64_t conflicts() const { return conflicts_; }

    /** Conflicts that occurred under the all-ones history pattern. */
    std::uint64_t harmlessConflicts() const { return harmless_; }

    /** Conflicts / accesses, in [0,1]. */
    double aliasRate() const
    {
        return accesses_ ?
            static_cast<double>(conflicts_) / accesses_ : 0.0;
    }

    /** Harmless conflicts as a fraction of all conflicts. */
    double harmlessFraction() const
    {
        return conflicts_ ?
            static_cast<double>(harmless_) / conflicts_ : 0.0;
    }

    /** Number of distinct slots touched at least once. */
    std::uint64_t slotsTouched() const { return touched_; }

    std::size_t size() const { return lastPc.size(); }

    /** Forget all history and zero the counters. */
    void reset();

  private:
    /** Sentinel meaning "slot never accessed". */
    static constexpr Addr untouched = ~Addr{0};

    std::vector<Addr> lastPc;
    std::uint64_t accesses_ = 0;
    std::uint64_t conflicts_ = 0;
    std::uint64_t harmless_ = 0;
    std::uint64_t touched_ = 0;
};

} // namespace bpsim

#endif // BPSIM_STATS_ALIASING_HH
