/**
 * @file
 * Differential cross-checking between the production predictors and the
 * naive reference model.
 *
 * Three layers of comparison, all seeded and reproducible:
 *
 *  - diffPredictors() runs one engine predictor (built through the
 *    factory spec grammar) and one reference predictor over the same
 *    trace, branch by branch, and reports the FIRST diverging
 *    conditional-branch instance with the full reference state.
 *  - referenceMispRate() lets callers hold the sweep engine
 *    (simulateConfig, a one-job sweep plan) to the reference's
 *    misprediction rate, closing the triangle online-engine /
 *    sweep-kernel / reference.
 *  - runDifferentialFuzzer() drives both checks over many randomized
 *    (trace, configuration) pairs spanning every scheme.
 */

#ifndef BPSIM_VERIFY_DIFFERENTIAL_HH
#define BPSIM_VERIFY_DIFFERENTIAL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace/memory_trace.hh"
#include "verify/reference_model.hh"

namespace bpsim::verify {

/** The first point where engine and reference disagree on a trace. */
struct DiffMismatch
{
    /** Factory spec of the engine predictor under test. */
    std::string spec;
    std::string traceName;
    /** Conditional-branch instance index of the divergence. */
    std::size_t index = 0;
    std::uint64_t pc = 0;
    bool taken = false;
    bool enginePredicted = false;
    bool referencePredicted = false;
    /** Reference model state at the moment of divergence. */
    std::string referenceState;

    /** One-paragraph report for assertion messages. */
    std::string describe() const;
};

/**
 * The factory spec string that builds the engine-side twin of a
 * reference configuration.  Throws std::invalid_argument for configs
 * the spec grammar cannot express (a PAsFinite with a non-default
 * reset policy -- those are covered by the fast-path check instead).
 */
std::string engineSpec(const RefConfig &config);

/**
 * Run the engine predictor for @p config and the reference model over
 * every conditional branch of @p trace, in lockstep.
 * @return the first divergence, or nullopt when they agree throughout.
 */
std::optional<DiffMismatch> diffPredictors(const RefConfig &config,
                                           const MemoryTrace &trace);

/** The reference model's misprediction rate over @p trace. */
double referenceMispRate(const RefConfig &config,
                         const MemoryTrace &trace);

/** Knobs for the randomized fuzzing campaign. */
struct FuzzOptions
{
    std::uint64_t seed = 1;
    /** Number of (trace, config) pairs to run. */
    std::size_t pairs = 200;
    /** Conditional-branch count range for generated traces. */
    std::uint64_t minBranches = 300;
    std::uint64_t maxBranches = 2500;
    /**
     * Also fuzz the variant predictors (SAs, agree, bi-mode, gskew,
     * tournament) and the non-default BHT reset policies on top of the
     * seven core SchemeKinds.
     */
    bool includeVariants = true;
    /**
     * For core-scheme pairs, additionally check the sweep engine -- a
     * one-lane simulateConfig probe, then one per SIMD target --
     * against the reference misprediction rate, and
     * the probe's alias lane against the online predictor's aliasing
     * and harmless rates.
     */
    bool crossCheckFastPath = true;
    /**
     * When non-empty, fuzz exactly these schemes instead of the core
     * rotation (includeVariants is then ignored).  Lets a campaign
     * concentrate its pair budget -- e.g. the slow-label TAGE +
     * perceptron campaign.
     */
    std::vector<RefScheme> onlySchemes;
};

/** Outcome of a fuzzing campaign. */
struct FuzzReport
{
    std::size_t pairsRun = 0;
    /** Distinct scheme names exercised at least once. */
    std::vector<std::string> schemesCovered;
    /** Online-predictor divergences (empty on success). */
    std::vector<DiffMismatch> mismatches;
    /** Sweep-kernel rate disagreements (empty on success). */
    std::vector<std::string> fastPathProblems;

    bool clean() const
    {
        return mismatches.empty() && fastPathProblems.empty();
    }

    /** Multi-line report of every problem found. */
    std::string summary() const;
};

/**
 * Run @p options.pairs seeded (trace, config) pairs.  Schemes rotate
 * round-robin so even a small campaign touches every family; trace
 * styles alternate between the synthetic workload builder, raw
 * random branch streams, and an adversarial aliasing-heavy stream.
 * Stops collecting after the first few mismatches per layer (the
 * reports are large), but always runs all pairs for coverage.
 */
FuzzReport runDifferentialFuzzer(const FuzzOptions &options);

} // namespace bpsim::verify

#endif // BPSIM_VERIFY_DIFFERENTIAL_HH
