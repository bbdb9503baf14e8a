/**
 * @file
 * Interference decomposition for two-level predictor tables.
 *
 * The paper stresses that "not all of this aliasing is destructive":
 * some conflicts are harmless (both branches want the same outcome) and
 * a few even help.  Young, Gloy and Smith (ISCA 1995), cited by the
 * paper, formalised this as destructive / neutral / constructive
 * interference.  This analyzer measures the decomposition exactly, by
 * replaying a trace through the real (shared) table and, in lock-step,
 * through an idealised table that gives every (row, static branch)
 * pair its own counter:
 *
 *   destructive: shared table wrong, private counter right
 *   constructive: shared table right, private counter wrong
 *   neutral: both agree (right or wrong together)
 *
 * The net aliasing damage is destructive - constructive mispredictions;
 * comparing it with the raw conflict rate of Figure 5 quantifies how
 * much of the paper's measured aliasing actually costs accuracy.
 *
 * The analyzer additionally partitions every SHARED misprediction into
 * the three-C-style classes the modern-predictor re-study needs:
 *
 *   aliasing: destructive (the private twin got it right)
 *   cold:     both twins wrong AND the miss is a first-touch /
 *             allocation event (see below)
 *   capacity: both twins wrong otherwise (the pattern simply had not
 *             converged, or the table is too small to hold it)
 *
 * so sharedMispredicts == aliasing + cold + capacity always holds.
 * "First-touch" is scheme-specific but deterministic:
 *
 *   - classic two-level schemes: the private (row, branch) counter
 *     had never been trained;
 *   - TAGE: the shared provider entry had never been trained, or the
 *     mispredict triggered a tagged-entry allocation -- the paper-era
 *     machinery would call these aliasing, but a tag mismatch never
 *     silently trains a stranger's counter, so they are compulsory
 *     (cold) misses, not interference;
 *   - perceptron: the private per-branch twin had never been trained.
 *
 * Layout.  The analysis makes two passes and one decomposition loop.
 * The shared pass steps the real table in trace order and files each
 * instance, with its outcome and whether the table was wrong (and,
 * for TAGE, cold), into its static branch's next slot: a counting
 * sort on PreparedTrace::branchId.  The private pass then replays
 * each static branch's slots alone on one reusable twin that is reset
 * between branches -- a small row -> counter table for the 2-bit
 * schemes, one TageModel or PerceptronModel for the zoo -- and adds
 * whether the twin was wrong and whether it was fresh.  The 2-bit
 * schemes read their rows through the sweep's own first-level inputs
 * and row definitions (first_level.hh), so the shared table is
 * indexed exactly as a sweep indexes it.  TAGE keys are hashed once
 * per instance, in the shared pass with each pc folded once per
 * static branch, and both twins step on them through
 * TageModel::stepWithKeys.  Every twin sees only its own branch, so
 * the private pass splits static branches into ranges balanced by
 * instance count across opts.threads executors; any thread count
 * gives the same result.
 */

#ifndef BPSIM_SIM_INTERFERENCE_HH
#define BPSIM_SIM_INTERFERENCE_HH

#include <cstdint>

#include "sim/prepared_trace.hh"
#include "sim/sweep.hh"

namespace bpsim {

/** Outcome of an interference decomposition run. */
struct InterferenceResult
{
    /** Conditional instances replayed. */
    std::uint64_t instances = 0;
    /** Mispredictions of the real (shared) table. */
    std::uint64_t sharedMispredicts = 0;
    /** Mispredictions of the idealised per-branch table. */
    std::uint64_t privateMispredicts = 0;
    /** Instances where sharing flipped a right answer to wrong. */
    std::uint64_t destructive = 0;
    /** Instances where sharing flipped a wrong answer to right. */
    std::uint64_t constructive = 0;
    /** Both twins wrong on a first-touch / allocation event. */
    std::uint64_t coldMispredicts = 0;
    /** Both twins wrong with trained state (capacity / convergence). */
    std::uint64_t capacityMispredicts = 0;

    /** @p count as a fraction of instances (0 for an empty run). */
    double
    rate(std::uint64_t count) const
    {
        return instances ? static_cast<double>(count) /
                               static_cast<double>(instances)
                         : 0.0;
    }

    double sharedMispRate() const { return rate(sharedMispredicts); }
    double privateMispRate() const { return rate(privateMispredicts); }
    /** Fraction of instances where sharing hurt. */
    double destructiveRate() const { return rate(destructive); }
    /** Fraction of instances where sharing helped. */
    double constructiveRate() const { return rate(constructive); }

    /** Net accuracy cost of sharing (can be negative). */
    double
    netDamage() const
    {
        return destructiveRate() - constructiveRate();
    }

    /**
     * Shared mispredictions attributable to interference: exactly the
     * destructive count, renamed for the three-way decomposition
     * (aliasing + cold + capacity == sharedMispredicts).
     */
    std::uint64_t aliasingMispredicts() const { return destructive; }
    double aliasingRate() const { return destructiveRate(); }
    double coldRate() const { return rate(coldMispredicts); }
    double capacityRate() const { return rate(capacityMispredicts); }
};

/**
 * Decompose the interference of one configuration of one scheme.
 * The private reference is unbounded (a counter per row and static
 * branch, or a model per static branch) and trains on exactly the
 * same stream.  2-bit rows must fit 32 bits.
 *
 * @param trace prepared conditional-branch stream
 * @param kind predictor family (first-level semantics as in sweep.hh)
 * @param row_bits, col_bits second-level geometry
 * @param opts per-scheme knobs (path bits, BHT geometry, TAGE and
 *        perceptron shape) and the private pass's thread count
 */
InterferenceResult
analyzeInterference(const PreparedTrace &trace, SchemeKind kind,
                    unsigned row_bits, unsigned col_bits,
                    const SweepOptions &opts = {});

} // namespace bpsim

#endif // BPSIM_SIM_INTERFERENCE_HH
