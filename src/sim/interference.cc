#include "sim/interference.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/sat_counter.hh"
#include "common/thread_pool.hh"
#include "sim/first_level.hh"

namespace bpsim {

namespace {

/** What the two passes record of one instance, one bit each. */
enum TwinBit : std::uint8_t
{
    kTaken = 1,
    kSharedWrong = 2,
    /** The shared step was a first touch or an allocation (TAGE). */
    kSharedCold = 4,
    kPrivateWrong = 8,
    /** The private twin had never been trained (2-bit, perceptron). */
    kPrivateFresh = 16,
};

/** Classify every instance's twin bits. */
InterferenceResult
decompose(const std::vector<std::uint8_t> &bits)
{
    // Count each bit pattern, four tallies apart so that runs of one
    // pattern do not serialise on one counter, then classify the
    // patterns.
    std::uint64_t seen[4][32] = {};
    for (std::size_t i = 0; i < bits.size(); ++i)
        ++seen[i & 3][bits[i]];
    InterferenceResult out;
    out.instances = bits.size();
    for (unsigned s = 0; s < 32; ++s) {
        const std::uint64_t n = seen[0][s] + seen[1][s] + seen[2][s] +
                                seen[3][s];
        const bool shared_wrong = s & kSharedWrong;
        const bool private_wrong = s & kPrivateWrong;
        out.sharedMispredicts += shared_wrong ? n : 0;
        out.privateMispredicts += private_wrong ? n : 0;
        if (shared_wrong && !private_wrong)
            out.destructive += n;
        else if (!shared_wrong && private_wrong)
            out.constructive += n;
        else if (shared_wrong && (s & (kSharedCold | kPrivateFresh)))
            out.coldMispredicts += n;
        else if (shared_wrong)
            out.capacityMispredicts += n;
    }
    return out;
}

/**
 * Where the shared pass files each instance: a counting sort on
 * PreparedTrace::branchId.  Static branch b owns the contiguous slots
 * begin(b) .. begin(b + 1) - 1, filled in trace order as the shared
 * pass claims them with next(), so the private pass reads every
 * branch's instances in one run, in trace order.
 */
class BranchSlots
{
  public:
    explicit BranchSlots(const PreparedTrace &t)
        : start_(t.staticBranches() + 1, 0), pcs_(t.staticBranches())
    {
        for (std::size_t i = 0; i < t.size(); ++i) {
            const std::uint32_t b = t.branchId(i);
            if (start_[b + 1]++ == 0)
                pcs_[b] = t.pc(i);
        }
        for (std::size_t b = 1; b < start_.size(); ++b)
            start_[b] += start_[b - 1];
        next_.assign(start_.begin(), start_.end() - 1);
    }

    std::size_t branches() const { return pcs_.size(); }
    Addr pc(std::size_t b) const { return pcs_[b]; }
    /** Branch @p b's first slot; begin(branches()) is the slot count. */
    std::size_t begin(std::size_t b) const { return start_[b]; }

    /** Claim branch @p b's next slot (call in trace order). */
    std::size_t next(std::uint32_t b) { return next_[b]++; }

    /** The first branch whose slots start at or after slot @p k. */
    std::size_t
    branchAt(std::size_t k) const
    {
        return static_cast<std::size_t>(
            std::lower_bound(start_.begin(), start_.end() - 1, k) -
            start_.begin());
    }

  private:
    std::vector<std::size_t> start_;
    std::vector<Addr> pcs_;
    std::vector<std::size_t> next_;
};

/**
 * The private pass: every static branch replays alone, on a twin in
 * reset state, so branches split into contiguous ranges balanced by
 * instance count, one per executor.  Each range builds one twin with
 * @p make_twin and hands it, branch by branch, to
 * @p replay(twin, b, lo, hi) for b's slots [lo, hi), which ORs in the
 * private bits and leaves the twin reset again.  A branch's result
 * never depends on the range it lands in, so any thread count gives
 * the same bits.
 */
template <typename MakeTwin, typename ReplayFn>
void
privatePass(const BranchSlots &slots, unsigned threads, MakeTwin make_twin,
            ReplayFn replay)
{
    const std::size_t n = slots.begin(slots.branches());
    const std::size_t ranges = std::min<std::size_t>(
        ThreadPool::resolveThreads(threads), slots.branches());
    ThreadPool::shared().parallelFor(
        ranges, static_cast<unsigned>(ranges), [&](std::size_t r) {
            const std::size_t lo = slots.branchAt(r * n / ranges);
            const std::size_t hi = r + 1 == ranges
                                       ? slots.branches()
                                       : slots.branchAt((r + 1) * n / ranges);
            if (lo == hi)
                return;
            auto twin = make_twin();
            for (std::size_t b = lo; b < hi; ++b)
                replay(twin, b, slots.begin(b), slots.begin(b + 1));
        });
}

/**
 * One static branch's private 2-bit counters, one per row it reached:
 * an open-addressed table that clear() sizes to the branch and empties
 * between branches, so a branch costs its own instances, never the
 * row space.  When twice the branch's instances cover the row space,
 * every row is its own slot.
 */
class RowCounters
{
  public:
    /** Forget every row; make room for @p instances rows of @p row_bits. */
    void
    clear(std::size_t instances, unsigned row_bits)
    {
        const std::size_t rows =
            std::min<std::size_t>(instances, std::size_t{1} << row_bits);
        unsigned cap_bits = static_cast<unsigned>(std::bit_width(rows)) + 1;
        direct_ = cap_bits > row_bits;
        if (direct_)
            cap_bits = row_bits;
        shift_ = 64 - cap_bits;
        mask_ = (std::size_t{1} << cap_bits) - 1;
        if (slots_.size() <= mask_)
            slots_.resize(mask_ + 1);
        std::fill_n(slots_.begin(), mask_ + 1, Slot{});
    }

    /** Row @p row's counter, and whether this is its first touch. */
    std::pair<TwoBitCounter &, bool>
    at(std::uint32_t row)
    {
        std::size_t s = direct_ ? row
                                : static_cast<std::size_t>(
                                      (row * 0x9e3779b97f4a7c15ULL) >>
                                      shift_);
        while (slots_[s].used && slots_[s].row != row)
            s = (s + 1) & mask_;
        Slot &slot = slots_[s];
        const bool fresh = !slot.used;
        slot.used = true;
        slot.row = row;
        return {slot.ctr, fresh};
    }

  private:
    struct Slot
    {
        std::uint32_t row = 0;
        TwoBitCounter ctr{};
        bool used = false;
    };
    std::vector<Slot> slots_;
    bool direct_ = true;
    unsigned shift_ = 64;
    std::size_t mask_ = 0;
};

/** The outcome and shared bits a shared step files for one instance. */
std::uint8_t
sharedBits(bool taken, bool prediction, bool cold = false)
{
    return (taken ? kTaken : 0) | (prediction != taken ? kSharedWrong : 0) |
           (cold ? kSharedCold : 0);
}

/** The private bits of one step; @p s holds the instance's outcome. */
std::uint8_t
privateBits(std::uint8_t s, bool prediction, bool fresh = false)
{
    return (prediction != bool(s & kTaken) ? kPrivateWrong : 0) |
           (fresh ? kPrivateFresh : 0);
}

/**
 * The 2-bit schemes.  The shared table is indexed exactly as the sweep
 * indexes it.  The private twin gives every (row, static branch) pair
 * its own counter, which names the same counter as (table index, pc)
 * would, because a pc fixes its column; a pair's first touch is its
 * cold miss.
 */
void
twoBitTwins(const PreparedTrace &t, BranchSlots &slots, SchemeKind kind,
            unsigned row_bits, unsigned col_bits, const SweepOptions &opts,
            std::vector<std::uint8_t> &bits)
{
    bpsim_assert(row_bits <= 32, "interference rows must fit 32 bits");
    const FirstLevel in(t, opts, [kind](SchemeKind k) { return k == kind; });
    std::vector<std::uint32_t> rows(t.size());
    withRowSource(t, opts, in, kind, row_bits, [&](auto row_of, auto) {
        const std::uint64_t row_mask = mask(row_bits);
        const std::uint64_t col_mask = mask(col_bits);
        std::vector<TwoBitCounter> shared(std::size_t{1}
                                          << (row_bits + col_bits));
        for (std::size_t i = 0; i < t.size(); ++i) {
            const std::uint64_t row = row_of(i) & row_mask;
            const std::uint64_t col = wordIndex(t.pc(i)) & col_mask;
            const bool taken = t.taken(i);
            TwoBitCounter &sh = shared[(row << col_bits) | col];
            const std::size_t k = slots.next(t.branchId(i));
            rows[k] = static_cast<std::uint32_t>(row);
            bits[k] = sharedBits(taken, sh.predict());
            sh.update(taken);
        }
    });

    privatePass(
        slots, opts.threads, [] { return RowCounters(); },
        [&](RowCounters &twin, std::size_t, std::size_t lo,
            std::size_t hi) {
            twin.clear(hi - lo, row_bits);
            for (std::size_t k = lo; k < hi; ++k) {
                const auto [ctr, fresh] = twin.at(rows[k]);
                bits[k] |= privateBits(bits[k], ctr.predict(), fresh);
                ctr.update(bits[k] & kTaken);
            }
        });
}

/**
 * TAGE.  The shared pass hashes every instance's keys once, a block at
 * a time with each static branch's pc folded once, steps the shared
 * model on them and files them for the private twin; both step
 * through TageModel::stepWithKeys.  Tagged allocation misses land in
 * cold, never aliasing (see the header), so only the shared step's
 * cold bit counts.
 */
void
tageTwins(const PreparedTrace &t, BranchSlots &slots,
          const TageParams &params, unsigned threads,
          std::vector<std::uint8_t> &bits)
{
    TageModel shared(params);
    const std::size_t ncomp = params.histories.size();
    std::vector<std::size_t> base(slots.branches());
    std::vector<std::uint32_t> idx_fold(slots.branches());
    std::vector<std::uint32_t> tag_fold(slots.branches());
    for (std::size_t b = 0; b < slots.branches(); ++b) {
        const std::uint64_t widx = wordIndex(slots.pc(b));
        base[b] = static_cast<std::size_t>(widx & mask(params.baseBits));
        idx_fold[b] = tagePcFold(widx, params.entryBits);
        tag_fold[b] = tagePcFold(widx, params.tagBits);
    }

    // Filed keys, slot-major: component j of slot k at k * ncomp + j.
    std::vector<std::uint32_t> idx(t.size() * ncomp);
    std::vector<std::uint16_t> tag(t.size() * ncomp);
    constexpr std::size_t kBlock = 256;
    std::uint64_t gh[kBlock];
    std::uint32_t ifold[kBlock], tfold[kBlock];
    std::vector<std::uint32_t> bidx(ncomp * kBlock);
    std::vector<std::uint16_t> btag(ncomp * kBlock);
    for (std::size_t lo = 0; lo < t.size(); lo += kBlock) {
        const std::size_t m = std::min(kBlock, t.size() - lo);
        for (std::size_t i = 0; i < m; ++i) {
            gh[i] = t.globalHistory(lo + i);
            ifold[i] = idx_fold[t.branchId(lo + i)];
            tfold[i] = tag_fold[t.branchId(lo + i)];
        }
        tageIndexBlock(params.histories, params.entryBits, gh, ifold, 1, m,
                       bidx.data(), kBlock);
        tageTagBlock(params.histories, params.tagBits, gh, tfold, 1, m,
                     btag.data(), kBlock);
        for (std::size_t i = 0; i < m; ++i) {
            const std::uint32_t b = t.branchId(lo + i);
            const bool taken = t.taken(lo + i);
            const TageStep s =
                shared.stepWithKeys(base[b], bidx.data() + i, kBlock,
                                    btag.data() + i, kBlock, taken);
            const std::size_t k = slots.next(b);
            bits[k] = sharedBits(taken, s.prediction,
                                 s.providerWasFresh || s.allocated);
            for (std::size_t j = 0; j < ncomp; ++j) {
                idx[k * ncomp + j] = bidx[j * kBlock + i];
                tag[k * ncomp + j] = btag[j * kBlock + i];
            }
        }
    }

    privatePass(
        slots, threads, [&] { return TageModel(params); },
        [&](TageModel &twin, std::size_t b, std::size_t lo,
            std::size_t hi) {
            for (std::size_t k = lo; k < hi; ++k) {
                const TageStep s = twin.stepWithKeys(
                    base[b], idx.data() + k * ncomp, 1,
                    tag.data() + k * ncomp, 1, bits[k] & kTaken);
                bits[k] |= privateBits(bits[k], s.prediction);
            }
            for (std::size_t k = lo; k < hi; ++k)
                twin.resetKeys(base[b], idx.data() + k * ncomp, 1);
        });
}

/**
 * The perceptron.  A private miss is cold while its twin has not yet
 * trained on that branch.
 */
void
perceptronTwins(const PreparedTrace &t, BranchSlots &slots,
                const PerceptronParams &params, unsigned threads,
                std::vector<std::uint8_t> &bits)
{
    PerceptronModel shared(params);
    std::vector<std::uint64_t> histories(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        const bool taken = t.taken(i);
        const PerceptronStep s =
            shared.step(t.pc(i), t.globalHistory(i), taken);
        const std::size_t k = slots.next(t.branchId(i));
        histories[k] = t.globalHistory(i);
        bits[k] = sharedBits(taken, s.prediction);
    }

    privatePass(
        slots, threads, [&] { return PerceptronModel(params); },
        [&](PerceptronModel &twin, std::size_t b, std::size_t lo,
            std::size_t hi) {
            const Addr pc = slots.pc(b);
            const std::uint64_t untrained = twin.updates();
            for (std::size_t k = lo; k < hi; ++k) {
                const bool fresh = twin.updates() == untrained;
                const PerceptronStep s =
                    twin.step(pc, histories[k], bits[k] & kTaken);
                bits[k] |= privateBits(bits[k], s.prediction, fresh);
            }
            for (std::size_t k = lo; k < hi; ++k)
                twin.resetWeights(pc, histories[k]);
        });
}

} // namespace

InterferenceResult
analyzeInterference(const PreparedTrace &trace, SchemeKind kind,
                    unsigned row_bits, unsigned col_bits,
                    const SweepOptions &opts)
{
    BranchSlots slots(trace);
    std::vector<std::uint8_t> bits(trace.size());
    if (kind == SchemeKind::Tage)
        tageTwins(trace, slots, tageSweepParams(row_bits, col_bits, opts),
                  opts.threads, bits);
    else if (kind == SchemeKind::Perceptron)
        perceptronTwins(trace, slots,
                        perceptronSweepParams(row_bits, col_bits, opts),
                        opts.threads, bits);
    else
        twoBitTwins(trace, slots, kind, row_bits, col_bits, opts, bits);
    return decompose(bits);
}

} // namespace bpsim
