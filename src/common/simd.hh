/**
 * @file
 * Portable lane-batched SIMD layer for the fused sweep kernels.
 *
 * The fused replay (sim/sweep.cc) trains one packed pattern table per
 * configuration "lane", and every lane in a group updates a *disjoint*
 * table from the same per-branch fused record -- so the per-branch work
 * is trivially data-parallel across lanes.  The batched perceptron
 * replay has the same shape over int8 weight banks.  This header
 * exposes that parallelism behind a dispatch target chosen once at
 * runtime.  Kernels per target (2-bit replay / perceptron replay):
 *
 *   Scalar  2-bit and perceptron.  The reference implementations --
 *           the 2-bit loop is one load, one AND, one packed-counter
 *           RMW per lane.  Always available, and the semantics every
 *           vector kernel is held to, bit for bit (tests/test_simd.cc,
 *           tests/differential/test_fused_kernel.cc,
 *           tests/differential/test_model_batch.cc).
 *   SSE2    2-bit only, 4 lanes per 128-bit vector.  No variable
 *           per-element shifts exist in SSE2, so counter extraction
 *           and insertion go through power-of-two multiplies (pmullw);
 *           table bytes are moved with scalar loads/stores.
 *           Perceptron batches on an SSE2 target run scalar: an SSE2
 *           perceptron kernel measured 0.975x of scalar.
 *   AVX2    perceptron only, 8 lanes per 256-bit vector with hardware
 *           gathers (vpgatherqd on absolute byte addresses); stores
 *           remain scalar because x86 has no AVX2 scatter.  There is
 *           no AVX2 2-bit kernel -- one measured no faster than SSE2
 *           -- so 2-bit batches on an AVX2 target run the SSE2 kernel.
 *   AVX512  2-bit only, 16 lanes per 512-bit vector.  Two 8-wide
 *           vpgatherqd on absolute addresses; stores go through
 *           hardware scatters (vpscatterqd), which is safe precisely
 *           because lanes train disjoint tables -- the 4-byte scatter
 *           element only ever lands inside the owning lane's
 *           allocation (table bytes + PackedPht slack).
 *           Under-occupied 2-bit batches (8 or fewer lanes) drop to
 *           SSE2, and perceptron batches run the AVX2 kernel (a
 *           16-lane AVX-512 one measured 1.08x of scalar against
 *           AVX2's 1.12x).  Compiled only when the toolchain
 *           understands the avx512f target attribute (CMake probe ->
 *           BPSIM_HAVE_AVX512); otherwise the target reports
 *           unsupported and dispatch clamps to AVX2.
 *
 * Dispatch is runtime CPUID -- no ISA flags are baked into tier-1
 * builds, so one binary runs everywhere and selects the widest kernel
 * the host supports.  `BPSIM_SIMD=scalar|sse2|avx2|avx512` in the
 * environment overrides auto-detection (the sanitizer CI presets force
 * `scalar` so they stay green on hardware without AVX2); an explicit
 * `SweepOptions::simd` request beats the environment.  Requests wider
 * than the host supports clamp down to the widest available target.
 * A malformed BPSIM_SIMD value is reported two ways: kernels resolve
 * it leniently to Auto (a library deep inside a sweep must not abort),
 * while CLI boundaries call simdEnvStatus() and surface the structured
 * Status before any work starts.
 *
 * AVX2/AVX-512 gathers load 4 bytes at the addressed table byte -- and
 * the AVX-512 2-bit replay scatters 4 bytes back -- so every buffer a
 * LaneBatch or PerceptronBatch points at must carry
 * PackedPht::kGatherSlack padding bytes past its last addressable byte
 * (writable for LaneBatch; PackedPht allocates the slack itself).
 */

#ifndef BPSIM_COMMON_SIMD_HH
#define BPSIM_COMMON_SIMD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hh"

namespace bpsim {

/** A fused-kernel dispatch target. */
enum class SimdTarget
{
    Auto,   ///< pick the widest target the host supports
    Scalar, ///< reference loop, always available
    SSE2,   ///< 4 lanes per vector
    AVX2,   ///< 8 lanes per vector, hardware gathers
    AVX512, ///< 16 lanes per vector, hardware gathers and scatters
};

/** @return "auto", "scalar", "sse2", "avx2" or "avx512". */
const char *simdTargetName(SimdTarget target);

/**
 * Parse a target name as accepted by BPSIM_SIMD.  Unknown names are a
 * structured error naming the offending value and the accepted set;
 * tests pin the message (tests/test_simd.cc).
 */
Result<SimdTarget> parseSimdTargetName(const std::string &name);

/**
 * Validate the BPSIM_SIMD environment override.  Success when the
 * variable is unset, empty, or a recognised target name; otherwise the
 * same structured error parseSimdTargetName() raises.  CLI boundaries
 * (bench drivers, the sweep service) check this once at startup so a
 * typo'd override fails loudly instead of silently running Auto.
 * Reads the environment on every call so it observes setenv() from
 * tests; resolveSimdTarget() keeps its own first-use cache.
 */
Status simdEnvStatus();

/** @return whether this host can execute @p target (Auto: true). */
bool simdTargetSupported(SimdTarget target);

/** Widest target the host supports (CPUID probe, cached). */
SimdTarget detectSimdTarget();

/**
 * The target a kernel invocation actually runs: an explicit request
 * wins, then the BPSIM_SIMD environment override, then detection.
 * Unsupported requests clamp to the widest supported narrower target,
 * so the result is always executable.  Never returns Auto.
 */
SimdTarget resolveSimdTarget(SimdTarget requested = SimdTarget::Auto);

/** Every concrete target this host supports, narrowest first. */
std::vector<SimdTarget> supportedSimdTargets();

/**
 * One batch of fused-kernel lanes in structure-of-arrays form.  Lane l
 * trains the packed 2-bit counter table at pht[l] (a PackedPht data()
 * pointer -- the table carries PackedPht::kGatherSlack writable bytes
 * of padding for the AVX-512 gathers and scatters) with counter
 * index `record & totalMask[l]`; misses[l] accumulates its
 * mispredictions.  Live lanes must point at pairwise-disjoint
 * allocations: the AVX-512 replay kernel read-modify-writes a 4-byte
 * window around each addressed table byte, which is only race- and
 * clobber-free when no two lanes share bytes.
 */
struct LaneBatch
{
    static constexpr unsigned kMaxLanes = 16;
    std::uint32_t totalMask[kMaxLanes] = {};
    std::uint8_t *pht[kMaxLanes] = {};
    std::uint64_t misses[kMaxLanes] = {};
    /** Live lanes (1..kMaxLanes); vector kernels pad the rest. */
    unsigned lanes = 0;
};

/**
 * Replay @p n fused records through every lane of @p batch on
 * @p target.  A record carries the branch outcome in bit 31 and the
 * pre-shifted row|column index in bits 0..30 (see sim/sweep.cc); per
 * record each lane masks out its table index and performs one
 * predict-and-update, accumulating the misprediction into
 * batch.misses.  All targets are bit-identical: identical final table
 * bytes, identical miss counts.  @p target must be concrete
 * (resolveSimdTarget), not Auto.  @p target is a ceiling, not a
 * mandate: an under-occupied batch (fewer live lanes than a vector
 * kernel's break-even width) drops to the next narrower kernel,
 * because vector kernels pay for dead padding lanes.  Batches wider
 * than a kernel's native width are processed in native-width chunks
 * (16 lanes on an AVX2 host run as four 4-wide SSE2 calls).
 */
void replayLaneBatch(SimdTarget target, const std::uint32_t *records,
                     std::size_t n, LaneBatch &batch);

/**
 * One batch of hashed-perceptron model lanes in structure-of-arrays
 * form, for the batched zoo replay (sim/sweep.cc).  Lane l owns an
 * int8 weight bank at weights[l]: all of its tables concatenated, the
 * weight for (table t, entry e) at byte (t << entryBits) + e.  Banks
 * must be pairwise disjoint and carry PackedPht::kGatherSlack writable
 * padding bytes past the last weight (the AVX2/AVX-512 kernels gather
 * a 4-byte window at each addressed weight; updates are written back
 * as single-byte stores, so the padding is only ever read).  The bank
 * is int8 because the model clamps weights to [kWeightMin, kWeightMax]
 * -- the same constants as PerceptronModel, pinned by a static_assert
 * at the sweep integration point.
 */
struct PerceptronBatch
{
    static constexpr unsigned kMaxLanes = 16;
    static constexpr unsigned kMaxTables = 16;
    static constexpr int kWeightMin = -64;
    static constexpr int kWeightMax = 63;
    /** Live lanes (1..kMaxLanes); vector kernels pad the rest. */
    unsigned lanes = 0;
    /** Weight tables per lane -- shared across the batch (1..16). */
    unsigned tables = 0;
    std::int8_t *weights[kMaxLanes] = {};
    /** Per-lane integer training threshold ((193 * h) / 100 + 14). */
    std::int32_t theta[kMaxLanes] = {};
    /** Per-lane mispredict accumulators. */
    std::uint64_t misses[kMaxLanes] = {};
};

/**
 * Replay @p n branches through every lane of @p batch on @p target.
 * idx[(i * batch.tables + t) * PerceptronBatch::kMaxLanes + l] holds
 * lane l's PRE-OFFSET weight index for branch i and table t -- i.e.
 * (t << entryBits_l) + tableIndex -- so the kernel needs no per-lane
 * geometry: the weight read is weights[l][idx...].  taken[i] is the
 * branch outcome (0/1).  Per branch each lane sums its tables' signed
 * weights, predicts sum >= 0, counts a mispredict into batch.misses,
 * and on a mispredict or |sum| <= theta[l] trains every addressed
 * weight by +/-1 clamped to [kWeightMin, kWeightMax] -- exactly
 * PerceptronModel::step.  All targets are bit-identical: identical
 * final weight banks, identical miss counts (integer sums are
 * order-free and every update is a single-byte store).  @p target must
 * be concrete and is a ceiling as in replayLaneBatch: AVX2 and
 * AVX-512 targets run the 8-wide AVX2 kernel when 5 or more lanes are
 * live (wider batches in 8-lane chunks), and every other batch runs
 * the scalar loop.  @p n must stay below
 * 2^30 (per-call int32 miss accumulators); the sweep engine's block
 * tiles are 4 orders of magnitude smaller.
 */
void replayPerceptronBatch(SimdTarget target, const std::uint32_t *idx,
                           const std::uint8_t *taken, std::size_t n,
                           PerceptronBatch &batch);

} // namespace bpsim

#endif // BPSIM_COMMON_SIMD_HH
