/**
 * @file
 * Sweep-optimised trace representation.
 *
 * The figure experiments replay the same trace through hundreds of
 * predictor configurations.  All first-level state evolves identically
 * regardless of the second-level configuration, so it can be computed
 * once per trace (or once per first-level configuration) and shared:
 *
 *  - the global outcome history before each branch (GAg/GAs/gshare rows
 *    for every r come from masking one 64-bit stream);
 *  - the path-history register before each branch (per bits-per-target);
 *  - the per-branch self history before each branch (perfect first
 *    level: one stream serves every row width, since narrower registers
 *    are the low bits of wider ones);
 *  - finite-BHT self history (per BHT configuration): one 64-bit pass
 *    records each branch's register and the outcomes shifted in since
 *    its entry's last reset, from which BhtNarrowing derives the
 *    register of any width, reset prefix included.
 *
 * Column layout is sized for replay throughput: outcomes are a packed
 * bit stream (one bit per branch, consumed 64 branches at a time by the
 * fused kernel), the fused narrow decode reads a 2-byte word-index
 * column (wordBits) instead of the 8-byte pc column, and the
 * path-history column stores only the low 16 successor word-index bits
 * per branch (pathHistoryStream never shifts in more -- bits_per_target
 * is capped at 16) instead of full 8-byte target addresses, and a
 * 4-byte dense branch-id column lets per-branch state (the interference
 * analyzer's private twins) live in vectors indexed by id instead of
 * hash maps keyed by pc.
 * bytesPerBranch() reports the resulting resident footprint so tests
 * can pin it.
 *
 * A test (SweepEquivalence, test_sweep.cc) pins the equivalence
 * between this fast path and the online TwoLevelPredictor.
 */

#ifndef BPSIM_SIM_PREPARED_TRACE_HH
#define BPSIM_SIM_PREPARED_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitutil.hh"
#include "predictor/bht.hh"
#include "trace/memory_trace.hh"

namespace bpsim {

/**
 * The finite-BHT self history of every branch, built by one pass of a
 * 64-bit SetAssocBht: 9 bytes per branch serve every register width.
 */
struct BhtHistory
{
    /** 64-bit history register BEFORE each instance. */
    std::vector<std::uint64_t> reg;
    /** BhtLookup::age of each instance (0..64). */
    std::vector<std::uint8_t> age;
    /** BHT tag miss rate (identical for every register width). */
    double missRate = 0.0;

    /** The register before instance @p i at @p width's width. */
    std::uint64_t
    at(std::size_t i, const BhtNarrowing &width) const
    {
        return width(reg[i], age[i]);
    }
};

/** Conditional-branch columns of a trace plus precomputed histories. */
class PreparedTrace
{
  public:
    /** Extract and precompute from a materialised trace. */
    explicit PreparedTrace(const MemoryTrace &trace);

    const std::string &name() const { return name_; }
    /** Number of conditional branch instances. */
    std::size_t size() const { return pcs.size(); }

    /** Branch address of conditional instance @p i. */
    Addr pc(std::size_t i) const { return pcs[i]; }

    /**
     * Low 16 bits of wordIndex(pc(i)), as a 2-byte column.  The fused
     * kernel's narrow decode masks the column index to 15 bits anyway,
     * so reading this instead of the 8-byte pc column cuts the decode
     * traffic per branch -- which matters more now that segment-
     * parallel shards each run their own decode pass (sweep.cc).
     */
    std::uint16_t wordBits(std::size_t i) const { return wordBits_[i]; }

    /**
     * Dense id of instance @p i's static branch: ids count up from 0
     * in order of first appearance, so each pc has exactly one id and
     * per-branch state can live in a vector of staticBranches().
     */
    std::uint32_t branchId(std::size_t i) const { return branchIds_[i]; }
    /** Distinct conditional branch addresses (one past the last id). */
    std::size_t staticBranches() const { return staticBranches_; }

    /** Outcome of conditional instance @p i. */
    bool
    taken(std::size_t i) const
    {
        return ((takenBits_[i >> 6] >> (i & 63)) & 1u) != 0;
    }

    /**
     * Outcomes of instances [64w, 64w+63], instance 64w in bit 0.
     * Bits past size() are zero.  The fused kernel consumes outcomes a
     * word at a time through this.
     */
    std::uint64_t takenWord(std::size_t w) const { return takenBits_[w]; }
    /** Number of takenWord() words ((size() + 63) / 64). */
    std::size_t takenWordCount() const { return takenBits_.size(); }

    /** Global outcome history BEFORE instance @p i (bit 0 newest). */
    std::uint64_t globalHistory(std::size_t i) const { return ghist[i]; }
    /** Perfect per-branch self history BEFORE instance @p i. */
    std::uint64_t selfHistory(std::size_t i) const { return shist[i]; }

    /**
     * Resident column bytes divided by branch count: 8 (pc) + 2 (word
     * bits) + 4 (branch id) + 2 (successor path bits) + 8 (ghist) + 8
     * (shist) + 1/8 (packed outcome bit) = 32.125.  Zero for an empty
     * trace.
     */
    double bytesPerBranch() const;

    /**
     * Path-history register value before each instance, shifting
     * @p bits_per_target successor-address bits per branch.
     */
    std::vector<std::uint64_t>
    pathHistoryStream(unsigned bits_per_target) const;

    /**
     * Self history through a finite BHT of @p entries entries (power
     * of two) and associativity @p assoc under @p policy, for every
     * register width at once.
     */
    BhtHistory bhtHistory(std::size_t entries, unsigned assoc,
                          BhtResetPolicy policy) const;

  private:
    std::string name_;
    std::vector<Addr> pcs;
    /** Low 16 word-index bits per branch (fused narrow decode). */
    std::vector<std::uint16_t> wordBits_;
    /** Dense static-branch id per branch. */
    std::vector<std::uint32_t> branchIds_;
    std::size_t staticBranches_ = 0;
    /** Low 16 successor word-index bits per branch (path schemes). */
    std::vector<std::uint16_t> succBits_;
    /** Packed outcomes, branch i at bit (i & 63) of word i / 64. */
    std::vector<std::uint64_t> takenBits_;
    std::vector<std::uint64_t> ghist;
    std::vector<std::uint64_t> shist;
};

} // namespace bpsim

#endif // BPSIM_SIM_PREPARED_TRACE_HH
