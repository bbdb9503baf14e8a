/**
 * @file
 * A compact tagged-geometric-history predictor (TAGE) [Seznec, Michaud
 * 2006] -- the scheme that displaced the two-level family this paper
 * studies, precisely because tagging changes the aliasing story.
 *
 * A bimodal base table backs N tagged components, each indexed by a
 * geometrically longer slice of global history.  The longest-history
 * component whose tag matches provides the prediction; a tag mismatch
 * falls through instead of silently training a stranger's counter, so
 * destructive aliasing is traded for allocation (cold/capacity) misses.
 * The interference machinery in src/sim/interference.* relies on that
 * distinction: a miss on a freshly allocated entry is a cold miss, not
 * aliasing.
 *
 * The model is deliberately compact and fully deterministic so the naive
 * reference model in src/verify/ can mirror it step for step:
 *  - SatCounter<3> prediction counters, 2-bit useful counters;
 *  - allocation picks the FIRST entry with u==0 above the provider
 *    (no randomized victim choice), else decrements every u above;
 *  - no periodic useful-bit reset sweep.
 */

#ifndef BPSIM_PREDICTOR_TAGE_HH
#define BPSIM_PREDICTOR_TAGE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitutil.hh"
#include "common/history_register.hh"
#include "common/sat_counter.hh"
#include "predictor/predictor.hh"

namespace bpsim {

/** Geometry of a TageModel. */
struct TageParams
{
    /** log2 entries of the bimodal base table. */
    unsigned baseBits = 12;
    /** log2 entries of EACH tagged component. */
    unsigned entryBits = 10;
    /** Tag width in bits (2..16). */
    unsigned tagBits = 8;
    /** History length per tagged component, strictly ascending, 1..64. */
    std::vector<unsigned> histories = {4, 8, 16, 32};

    /** bpsim_assert that the geometry is well-formed. */
    void validate() const;
};

/**
 * @name TAGE's key hash, written once
 * A tagged component's entry index is its history slice folded to the
 * entry width, xor the pc's word index folded the same way.  Its tag
 * folds the slice at the tag width and at one bit less, the second
 * shifted, so adjacent history lengths decorrelate, xor the pc folded
 * at the tag width.  TageModel::step(), the sweep's batched model
 * lanes and the interference analysis all hash through these; the
 * block forms fill the component-major key blocks stepWithKeys()
 * reads.
 */
///@{
/** The pc half of a key: @p word_index folded to @p bits. */
inline std::uint32_t
tagePcFold(std::uint64_t word_index, unsigned bits)
{
    return static_cast<std::uint32_t>(xorFold(word_index, bits));
}

/** Entry index of history slice @p hist for a pc folded to @p pc_fold. */
inline std::uint32_t
tageIndex(std::uint64_t hist, std::uint32_t pc_fold, unsigned entry_bits)
{
    return static_cast<std::uint32_t>(
        (xorFold(hist, entry_bits) ^ pc_fold) & mask(entry_bits));
}

/** Tag of history slice @p hist for a pc folded to @p pc_fold. */
inline std::uint16_t
tageTag(std::uint64_t hist, std::uint32_t pc_fold, unsigned tag_bits)
{
    return static_cast<std::uint16_t>(
        (pc_fold ^ xorFold(hist, tag_bits) ^
         (xorFold(hist, tag_bits - 1) << 1)) &
        mask(tag_bits));
}

/**
 * Block forms over @p m branches: component j of branch i lands at
 * out[j * stride + i].  ghist[i] is branch i's global history and
 * pc_fold[i * pc_stride] its pc fold at the key's width; pc_stride 0
 * serves the instances of one static branch, folded once.
 */
void tageIndexBlock(const std::vector<unsigned> &histories,
                    unsigned entry_bits, const std::uint64_t *ghist,
                    const std::uint32_t *pc_fold, std::size_t pc_stride,
                    std::size_t m, std::uint32_t *out, std::size_t stride);
void tageTagBlock(const std::vector<unsigned> &histories,
                  unsigned tag_bits, const std::uint64_t *ghist,
                  const std::uint32_t *pc_fold, std::size_t pc_stride,
                  std::size_t m, std::uint16_t *out, std::size_t stride);
///@}

/** What one predict-and-train step did (analysis and test hooks). */
struct TageStep
{
    /** The final prediction. */
    bool prediction = false;
    /** Provider component, 1-based; 0 means the base table provided. */
    unsigned provider = 0;
    /** The providing entry had never been trained before this step. */
    bool providerWasFresh = false;
    /** This step (re)allocated a tagged entry after a mispredict. */
    bool allocated = false;
};

/**
 * The replayable TAGE core: all state plus a step() that consumes an
 * externally maintained global history.  Both the online TagePredictor
 * and the sweep engine's per-config replay drive this one class, so the
 * two paths cannot drift.
 */
class TageModel
{
  public:
    /** One tagged-component entry (exposed for unit tests). */
    struct TaggedEntry
    {
        SatCounter<3> ctr{};
        std::uint16_t tag = 0;
        std::uint8_t useful = 0;
        bool valid = false;
    };

    explicit TageModel(const TageParams &params);

    /**
     * Predict and train on one branch.
     *
     * @param pc     branch address (word-aligned)
     * @param ghist  global outcome history BEFORE this branch, bit 0
     *               newest (HistoryRegister / PreparedTrace convention)
     * @param taken  the actual outcome
     */
    TageStep step(Addr pc, std::uint64_t ghist, bool taken);

    /**
     * Predict and train with externally computed hash keys: the base
     * index plus one (entry index, tag) pair per tagged component,
     * read strided so callers can keep them in component-major
     * structure-of-arrays blocks.  The batched model-lane replay
     * (sim/sweep.cc) computes the keys ONCE per branch for a whole
     * group of models sharing tagBits/histories and hands each model
     * its slice; step() itself delegates here after hashing, so the
     * two paths share every line of predict/train/allocate logic and
     * cannot drift.  The keys must equal baseIndex()/taggedIndex()/
     * taggedTag() for the stepped branch -- pinned by the model-batch
     * differential tests.
     *
     * @param base_idx    baseIndex(pc)
     * @param idx         idx[j * idx_stride] = taggedIndex(j, pc, ghist)
     * @param idx_stride  element stride between components
     * @param tag         tag[j * tag_stride] = taggedTag(j, pc, ghist)
     * @param tag_stride  element stride between components
     * @param taken       the actual outcome
     */
    TageStep stepWithKeys(std::size_t base_idx,
                          const std::uint32_t *idx,
                          std::size_t idx_stride,
                          const std::uint16_t *tag,
                          std::size_t tag_stride, bool taken);

    void reset();

    /**
     * Return every entry a stepWithKeys() with these keys may have
     * trained or allocated to its reset state; updates() is left
     * alone.  Undoing each step of a run this way restores the tables
     * reset() would, at the run's cost instead of the tables'.
     */
    void resetKeys(std::size_t base_idx, const std::uint32_t *idx,
                   std::size_t idx_stride);

    const TageParams &params() const { return params_; }

    /** Total prediction state: base counters + tagged entries. */
    std::size_t counterCount() const
    {
        return base_.size() + components_.size() * components_[0].size();
    }

    /** Number of step() calls since construction/reset. */
    std::uint64_t updates() const { return updates_; }

    /** @name Deterministic hash hooks, exposed for unit tests. */
    ///@{
    std::size_t baseIndex(Addr pc) const;
    std::size_t taggedIndex(unsigned comp, Addr pc,
                            std::uint64_t ghist) const;
    std::uint16_t taggedTag(unsigned comp, Addr pc,
                            std::uint64_t ghist) const;
    const TaggedEntry &entryAt(unsigned comp, std::size_t idx) const
    {
        return components_[comp][idx];
    }
    ///@}

  private:
    TageParams params_;
    std::vector<TwoBitCounter> base_;
    /** Base entries that have been trained at least once. */
    std::vector<std::uint8_t> baseTrained_;
    std::vector<std::vector<TaggedEntry>> components_;
    std::uint64_t updates_ = 0;
};

/** The online (BranchPredictor) wrapper: model + its own history. */
class TagePredictor : public BranchPredictor
{
  public:
    explicit TagePredictor(const TageParams &params);

    bool onBranch(const BranchRecord &rec) override;
    void reset() override;
    std::string name() const override;
    std::size_t counterCount() const override
    {
        return model_.counterCount();
    }

    const TageModel &model() const { return model_; }

  private:
    TageModel model_;
    HistoryRegister history_;
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_TAGE_HH
