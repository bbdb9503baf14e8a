/**
 * @file
 * Correctness checks that run outside the timed region: surface
 * digests, and a seeded sample of configurations replayed through the
 * naive reference model (verify::makeReferencePredictor), which shares
 * no kernel code with the sweep engine.
 */

#ifndef PERFBENCH_HARNESS_CHECKS_HH
#define PERFBENCH_HARNESS_CHECKS_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/random.hh"
#include "harness/tally.hh"
#include "sim/interference.hh"
#include "sim/sweep.hh"
#include "trace/memory_trace.hh"
#include "trace/trace_hash.hh"
#include "trace/trace_stats.hh"
#include "verify/reference_model.hh"

namespace perfbench {

/** Sweep points rechecked through the reference model per pass. */
constexpr unsigned kReferenceSamples = 6;

/** Absorb every point (value bits included) of a surface. */
void absorb(bpsim::HashStream &h, const bpsim::Surface &surface);
/** The three surfaces and the BHT miss rate of a sweep. */
void absorb(bpsim::HashStream &h, const bpsim::SweepResult &result);
void absorb(bpsim::HashStream &h, const bpsim::InterferenceResult &r);
void absorb(bpsim::HashStream &h,
            const bpsim::TraceCharacterization &c);

/** The reference model's configuration for one sweep point, or
 *  nullopt when the scheme has no reference counterpart. */
std::optional<bpsim::verify::RefConfig>
referenceConfig(bpsim::SchemeKind kind, unsigned row_bits,
                unsigned col_bits, const bpsim::SweepOptions &options);

/**
 * Replay one randomly chosen point of @p misprediction through the
 * reference model over @p trace and require the exact same rate: one
 * Tally entry, or none when the scheme has no reference counterpart.
 */
void checkAgainstReference(const bpsim::MemoryTrace &trace,
                           bpsim::SchemeKind kind,
                           const bpsim::SweepOptions &options,
                           const bpsim::Surface &misprediction,
                           bpsim::Pcg32 &rng, Tally &tally);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_CHECKS_HH
