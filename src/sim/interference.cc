#include "sim/interference.hh"

#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "common/sat_counter.hh"
#include "sim/first_level.hh"

namespace bpsim {

namespace {

/** One instance as the shared table and its private twin saw it. */
struct TwinStep
{
    bool sharedWrong;
    bool privateWrong;
    /** A both-wrong miss here is a first-touch (cold) miss. */
    bool cold;
};

/** Classify the twin step of every instance of an @p n-branch trace. */
template <typename StepFn>
InterferenceResult
decompose(std::size_t n, StepFn step)
{
    InterferenceResult out;
    out.instances = n;
    for (std::size_t i = 0; i < n; ++i) {
        const TwinStep s = step(i);
        out.sharedMispredicts += s.sharedWrong;
        out.privateMispredicts += s.privateWrong;
        if (s.sharedWrong && !s.privateWrong)
            ++out.destructive;
        else if (!s.sharedWrong && s.privateWrong)
            ++out.constructive;
        else if (s.sharedWrong)
            ++(s.cold ? out.coldMispredicts : out.capacityMispredicts);
    }
    return out;
}

/**
 * The 2-bit schemes: the shared table is indexed exactly as the sweep
 * indexes it; the private table gives every (row, static branch) pair
 * its own counter, keyed (row << 32) | branch id.  That key names the
 * same counter as (table index, pc) would, because a pc fixes its
 * column.  A key's first touch is its cold miss.
 */
InterferenceResult
twoBitInterference(const PreparedTrace &trace, SchemeKind kind,
                   unsigned row_bits, unsigned col_bits,
                   const SweepOptions &opts)
{
    bpsim_assert(row_bits <= 32, "interference rows must pack into 32 bits");
    const FirstLevel in(trace, opts,
                        [kind](SchemeKind k) { return k == kind; });
    return withRowSource(
        trace, opts, in, kind, row_bits, [&](auto row_of, auto) {
            const std::uint64_t row_mask = mask(row_bits);
            const std::uint64_t col_mask = mask(col_bits);
            std::vector<TwoBitCounter> shared(std::size_t{1}
                                              << (row_bits + col_bits));
            std::unordered_map<std::uint64_t, TwoBitCounter> privates;
            privates.reserve(trace.size() / 16 + 16);
            return decompose(trace.size(), [&](std::size_t i) {
                const std::uint64_t row = row_of(i) & row_mask;
                const std::uint64_t col =
                    wordIndex(trace.pc(i)) & col_mask;
                const bool taken = trace.taken(i);
                TwoBitCounter &sh = shared[(row << col_bits) | col];
                const bool shared_wrong = sh.predict() != taken;
                sh.update(taken);
                const auto [it, fresh] =
                    privates.try_emplace((row << 32) | trace.branchId(i));
                const bool private_wrong = it->second.predict() != taken;
                it->second.update(taken);
                return TwinStep{shared_wrong, private_wrong, fresh};
            });
        });
}

/**
 * The multi-table zoo in lock-step: the shared model aliases across
 * branches exactly as deployed; the private twin gives every static
 * branch (by id) its own full model trained on the same stream.
 * @p cold_of classifies a both-wrong miss from (shared step, private
 * model freshness before the step).
 */
template <typename Model, typename Params, typename ColdFn>
InterferenceResult
modelInterference(const PreparedTrace &trace, const Params &params,
                  ColdFn cold_of)
{
    Model shared(params);
    std::vector<Model> privates(trace.staticBranches(), Model(params));
    return decompose(trace.size(), [&](std::size_t i) {
        const Addr pc = trace.pc(i);
        const std::uint64_t ghist = trace.globalHistory(i);
        const bool taken = trace.taken(i);
        Model &priv = privates[trace.branchId(i)];
        const bool private_fresh = priv.updates() == 0;
        const auto shared_step = shared.step(pc, ghist, taken);
        const auto private_step = priv.step(pc, ghist, taken);
        return TwinStep{shared_step.prediction != taken,
                        private_step.prediction != taken,
                        cold_of(shared_step, private_fresh)};
    });
}

} // namespace

InterferenceResult
analyzeInterference(const PreparedTrace &trace, SchemeKind kind,
                    unsigned row_bits, unsigned col_bits,
                    const SweepOptions &opts)
{
    // Tagged allocation misses land in cold, never aliasing (see
    // header).
    if (kind == SchemeKind::Tage) {
        return modelInterference<TageModel>(
            trace, tageSweepParams(row_bits, col_bits, opts),
            [](const TageStep &s, bool) {
                return s.providerWasFresh || s.allocated;
            });
    }
    if (kind == SchemeKind::Perceptron) {
        return modelInterference<PerceptronModel>(
            trace, perceptronSweepParams(row_bits, col_bits, opts),
            [](const PerceptronStep &, bool private_fresh) {
                return private_fresh;
            });
    }
    return twoBitInterference(trace, kind, row_bits, col_bits, opts);
}

} // namespace bpsim
