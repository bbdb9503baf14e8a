/**
 * @file
 * Packed pattern-history table: 2-bit saturating counters stored four
 * per byte, with branchless predict-and-update.
 *
 * The fused sweep kernel (sim/sweep.cc) keeps one live table per
 * configuration in a job group -- more than a hundred tables for a full
 * paper sweep -- so table footprint decides whether the working set
 * stays cache-resident.  Packing quarters the footprint of the
 * std::vector<TwoBitCounter> layout, and the branchless update removes
 * the data-dependent branches that dominate the per-counter cost on
 * hard-to-predict outcome streams.
 *
 * Semantics are bit-identical to SatCounter<2> (tests/test_packed_pht
 * proves every transition): states 0..3, prediction = MSB, weakly-taken
 * (2) reset, saturation at both ends.
 */

#ifndef BPSIM_COMMON_PACKED_PHT_HH
#define BPSIM_COMMON_PACKED_PHT_HH

#include <cstdint>
#include <vector>

#include "common/sat_counter.hh"

namespace bpsim {

/** A table of 2-bit counters packed four per byte. */
class PackedPht
{
  public:
    /**
     * Padding bytes allocated past the last counter byte.  The
     * AVX-512 fused kernel reads table bytes with 4-byte hardware
     * gathers (vpgatherqd) at arbitrary byte offsets and writes the
     * update back with a 4-byte scatter (vpscatterqd) that round-trips
     * the three neighbour bytes unchanged -- so the highest counter
     * byte needs 3 readable *and writable* bytes after it.  The slack lives inside the table's own allocation; its
     * value is never interpreted.
     */
    static constexpr std::size_t kGatherSlack = 3;

    /** @param counters table size; every counter resets weakly taken. */
    explicit PackedPht(std::size_t counters)
        : size_(counters),
          // Four weakly-taken (0b10) counters per byte, plus gather
          // slack (never addressed as counters, value irrelevant).
          bytes_((counters + 3) / 4 + kGatherSlack, std::uint8_t{0xAA})
    {
    }

    std::size_t size() const { return size_; }

    /** @return counter @p idx's prediction (its MSB). */
    bool
    predict(std::size_t idx) const
    {
        return ((bytes_[idx >> 2] >> shiftOf(idx)) & 2u) != 0;
    }

    /** Raw 2-bit state of counter @p idx. */
    std::uint8_t
    counter(std::size_t idx) const
    {
        return (bytes_[idx >> 2] >> shiftOf(idx)) & 3u;
    }

    /** Train counter @p idx toward @p taken (branchless saturation). */
    void
    update(std::size_t idx, bool taken)
    {
        std::uint8_t &byte = bytes_[idx >> 2];
        const unsigned shift = shiftOf(idx);
        const unsigned v = (byte >> shift) & 3u;
        const unsigned next = step(v, taken);
        byte = static_cast<std::uint8_t>(
            (byte & ~(3u << shift)) | (next << shift));
    }

    /**
     * The fused-kernel hot path: predict, train, and report the
     * misprediction in one read-modify-write.
     * @return 1 when the prediction differed from @p taken, else 0.
     */
    std::uint64_t
    predictAndUpdate(std::size_t idx, bool taken)
    {
        return predictAndUpdateRaw(bytes_.data(), idx,
                                   static_cast<unsigned>(taken));
    }

    /**
     * Raw storage for the hot loop.  uint8_t writes may alias
     * anything, so an inner loop going through the member vector
     * reloads its data pointer on every store; hoisting data() into a
     * local lets the compiler keep it in a register.
     */
    std::uint8_t *data() { return bytes_.data(); }

    /** predictAndUpdate against a hoisted data() pointer; @p taken
     *  must be 0 or 1. */
    static std::uint64_t
    predictAndUpdateRaw(std::uint8_t *bytes, std::size_t idx,
                        unsigned taken)
    {
        std::uint8_t &byte = bytes[idx >> 2];
        const unsigned shift = shiftOf(idx);
        const unsigned v = (byte >> shift) & 3u;
        const unsigned next = step(v, taken != 0);
        byte = static_cast<std::uint8_t>(
            (byte & ~(3u << shift)) | (next << shift));
        return (v >> 1) ^ taken;
    }

  private:
    static unsigned shiftOf(std::size_t idx) { return (idx & 3u) << 1; }

    /** One SatCounter<2> transition, computed without branches. */
    static unsigned
    step(unsigned v, bool taken)
    {
        const unsigned t = static_cast<unsigned>(taken);
        return v + (t & static_cast<unsigned>(v != 3u)) -
               ((t ^ 1u) & static_cast<unsigned>(v != 0u));
    }

    std::size_t size_;
    std::vector<std::uint8_t> bytes_;
};

} // namespace bpsim

#endif // BPSIM_COMMON_PACKED_PHT_HH
