/**
 * @file
 * The first-level inputs of the 2-bit schemes and the one definition
 * of each scheme's row and harmless-pattern source.  Both the sweep
 * replay (sweep.cc) and the interference analyzer (interference.cc)
 * read rows through withRowSource, so a scheme's row is defined once.
 * Internal to src/sim.
 */

#ifndef BPSIM_SIM_FIRST_LEVEL_HH
#define BPSIM_SIM_FIRST_LEVEL_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "sim/prepared_trace.hh"
#include "sim/sweep.hh"

namespace bpsim {

/**
 * The harmless-pattern source of a scheme whose rows carry no outcome
 * history (AddressIndexed, Path): its conflicts are never harmless.
 */
struct NoPattern
{
};

/**
 * First-level inputs built once and read by every replay of a trace:
 * the path-history stream when a Path scheme runs, and the one BHT
 * history every PAsFinite row width derives from.
 */
struct FirstLevel
{
    std::vector<std::uint64_t> path;
    BhtHistory bht;

    /** Build the inputs of every kind that @p planned accepts. */
    template <typename Planned>
    FirstLevel(const PreparedTrace &t, const SweepOptions &opts,
               Planned planned)
    {
        if (planned(SchemeKind::Path))
            path = t.pathHistoryStream(opts.pathBitsPerTarget);
        if (planned(SchemeKind::PAsFinite))
            bht = t.bhtHistory(opts.bhtEntries, opts.bhtAssoc,
                               opts.bhtResetPolicy);
    }
};

/**
 * Call @p fn(row_of, pattern_of) with 2-bit scheme @p kind's sources
 * and return its result.  row_of(i) is instance i's raw row value
 * (callers mask it to their row bits); pattern_of(i) is the outcome
 * history the row was built from -- for gshare the history, not the
 * address-hashed row -- or NoPattern.  @p row_bits picks the
 * PAs(bht) register width, whose reset prefix depends on it.
 */
template <typename Fn>
decltype(auto)
withRowSource(const PreparedTrace &t, const SweepOptions &opts,
              const FirstLevel &in, SchemeKind kind, unsigned row_bits,
              Fn &&fn)
{
    const auto global_history = [&t](std::size_t i) {
        return t.globalHistory(i);
    };
    const auto self_history = [&t](std::size_t i) {
        return t.selfHistory(i);
    };
    switch (kind) {
      case SchemeKind::AddressIndexed:
        return fn([](std::size_t) { return std::uint64_t{0}; },
                  NoPattern{});
      case SchemeKind::GAg:
      case SchemeKind::GAs:
        return fn(global_history, global_history);
      case SchemeKind::Gshare:
        return fn(
            [&t](std::size_t i) {
                return t.globalHistory(i) ^ wordIndex(t.pc(i));
            },
            global_history);
      case SchemeKind::Path:
        return fn([&in](std::size_t i) { return in.path[i]; },
                  NoPattern{});
      case SchemeKind::PAsPerfect:
        return fn(self_history, self_history);
      case SchemeKind::PAsFinite: {
        const BhtNarrowing width(opts.bhtResetPolicy, row_bits);
        const auto bht_history = [&](std::size_t i) {
            return in.bht.at(i, width);
        };
        return fn(bht_history, bht_history);
      }
      case SchemeKind::Tage:
      case SchemeKind::Perceptron:
        break;
    }
    bpsim_panic("withRowSource: ", schemeKindName(kind),
                " is not a 2-bit scheme");
}

} // namespace bpsim

#endif // BPSIM_SIM_FIRST_LEVEL_HH
