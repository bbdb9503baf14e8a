/**
 * @file
 * Unit tests for the lane-batched SIMD layer: every operation on every
 * dispatch target this host supports must be bit-identical to a plain
 * scalar loop, on the boundary outcome patterns (all zeros, all ones,
 * alternating, saturating runs pinning counters at 0b00 and 0b11) and
 * under seeded fuzz across lane counts, masks and table sizes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/bitutil.hh"
#include "common/packed_pht.hh"
#include "common/random.hh"
#include "common/simd.hh"

using namespace bpsim;

namespace {

/** Fused record: outcome in bit 31, table index bits in 0..30. */
std::uint32_t
record(std::uint32_t index, bool taken)
{
    return (static_cast<std::uint32_t>(taken) << 31) |
           (index & 0x7FFFFFFFu);
}

struct LaneSetup
{
    std::vector<PackedPht> tables;
    LaneBatch batch;

    /** One lane per entry of @p counter_bits, each table 2^bits. */
    explicit LaneSetup(const std::vector<unsigned> &counter_bits)
    {
        tables.reserve(counter_bits.size());
        batch.lanes = static_cast<unsigned>(counter_bits.size());
        for (unsigned l = 0; l < batch.lanes; ++l) {
            tables.emplace_back(std::size_t{1} << counter_bits[l]);
            batch.totalMask[l] =
                static_cast<std::uint32_t>(mask(counter_bits[l]));
            batch.pht[l] = tables[l].data();
        }
    }
};

/** The independent reference loop the kernels are held to. */
void
referenceReplay(const std::vector<std::uint32_t> &records,
                LaneSetup &setup)
{
    for (unsigned l = 0; l < setup.batch.lanes; ++l) {
        for (std::uint32_t rc : records) {
            setup.batch.misses[l] += PackedPht::predictAndUpdateRaw(
                setup.batch.pht[l], rc & setup.batch.totalMask[l],
                rc >> 31);
        }
    }
}

/** Run @p records on @p target and on the reference; compare all
 *  counter states and miss counts exactly. */
void
expectBitIdentical(SimdTarget target,
                   const std::vector<std::uint32_t> &records,
                   const std::vector<unsigned> &counter_bits,
                   const char *what)
{
    LaneSetup actual(counter_bits);
    LaneSetup expected(counter_bits);
    replayLaneBatch(target, records.data(), records.size(),
                    actual.batch);
    referenceReplay(records, expected);

    for (unsigned l = 0; l < actual.batch.lanes; ++l) {
        EXPECT_EQ(actual.batch.misses[l], expected.batch.misses[l])
            << what << ": " << simdTargetName(target) << " lane " << l
            << " miss count";
        ASSERT_EQ(actual.tables[l].size(), expected.tables[l].size());
        for (std::size_t i = 0; i < actual.tables[l].size(); ++i) {
            ASSERT_EQ(actual.tables[l].counter(i),
                      expected.tables[l].counter(i))
                << what << ": " << simdTargetName(target) << " lane "
                << l << " counter " << i;
        }
    }
}

/** Mixed lane widths exercising every batch position. */
const std::vector<unsigned> kMixedLanes = {4, 6, 8, 5, 10, 7, 9, 12};

} // namespace

TEST(Simd, TargetNames)
{
    EXPECT_STREQ(simdTargetName(SimdTarget::Auto), "auto");
    EXPECT_STREQ(simdTargetName(SimdTarget::Scalar), "scalar");
    EXPECT_STREQ(simdTargetName(SimdTarget::SSE2), "sse2");
    EXPECT_STREQ(simdTargetName(SimdTarget::AVX2), "avx2");
    EXPECT_STREQ(simdTargetName(SimdTarget::AVX512), "avx512");
}

TEST(Simd, ParseTargetNameRoundTripsEveryName)
{
    for (SimdTarget t :
         {SimdTarget::Auto, SimdTarget::Scalar, SimdTarget::SSE2,
          SimdTarget::AVX2, SimdTarget::AVX512}) {
        Result<SimdTarget> parsed =
            parseSimdTargetName(simdTargetName(t));
        ASSERT_TRUE(parsed.ok()) << simdTargetName(t);
        EXPECT_EQ(parsed.value(), t);
    }
}

TEST(Simd, ParseTargetNameRejectsUnknownWithPinnedMessage)
{
    Result<SimdTarget> parsed = parseSimdTargetName("sse9");
    ASSERT_FALSE(parsed.ok());
    // The message is a user-facing contract (boundaries print it
    // verbatim on a typo'd BPSIM_SIMD): it must name the offender and
    // enumerate the accepted spellings.
    EXPECT_EQ(parsed.error().message(),
              "unrecognised SIMD target 'sse9' (expected scalar, "
              "sse2, avx2, avx512 or auto)");
    EXPECT_FALSE(parseSimdTargetName("").ok());
    EXPECT_FALSE(parseSimdTargetName("AVX2").ok());
}

TEST(Simd, EnvStatusFlagsMalformedOverride)
{
    // Preserve whatever the surrounding test run pinned.
    const char *prev = std::getenv("BPSIM_SIMD");
    const std::string saved = prev ? prev : "";

    ::unsetenv("BPSIM_SIMD");
    EXPECT_TRUE(simdEnvStatus().ok());

    ::setenv("BPSIM_SIMD", "scalar", 1);
    EXPECT_TRUE(simdEnvStatus().ok());

    ::setenv("BPSIM_SIMD", "neon", 1);
    Status bad = simdEnvStatus();
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().message(),
              "invalid BPSIM_SIMD value: unrecognised SIMD target "
              "'neon' (expected scalar, sse2, avx2, avx512 or auto)");

    if (prev)
        ::setenv("BPSIM_SIMD", saved.c_str(), 1);
    else
        ::unsetenv("BPSIM_SIMD");
}

TEST(Simd, ScalarAlwaysSupportedAndResolveNeverReturnsAuto)
{
    EXPECT_TRUE(simdTargetSupported(SimdTarget::Scalar));
    EXPECT_TRUE(simdTargetSupported(SimdTarget::Auto));
    EXPECT_NE(resolveSimdTarget(SimdTarget::Auto), SimdTarget::Auto);
    EXPECT_EQ(resolveSimdTarget(SimdTarget::Scalar),
              SimdTarget::Scalar);
    // Detection returns a concrete, supported target.
    EXPECT_NE(detectSimdTarget(), SimdTarget::Auto);
    EXPECT_TRUE(simdTargetSupported(detectSimdTarget()));
}

TEST(Simd, SupportedTargetsResolveToThemselves)
{
    const std::vector<SimdTarget> targets = supportedSimdTargets();
    ASSERT_FALSE(targets.empty());
    EXPECT_EQ(targets.front(), SimdTarget::Scalar);
    for (SimdTarget t : targets) {
        EXPECT_TRUE(simdTargetSupported(t));
        // An explicit supported request is honoured exactly (it must
        // beat any BPSIM_SIMD override in the environment too).
        EXPECT_EQ(resolveSimdTarget(t), t);
    }
}

TEST(Simd, UnsupportedRequestsClampDownNotUp)
{
    // On hosts without AVX2 the request clamps toward scalar; on hosts
    // with it, the request is honoured.  Either way the result is
    // supported and never wider than asked.
    const SimdTarget resolved = resolveSimdTarget(SimdTarget::AVX2);
    EXPECT_TRUE(simdTargetSupported(resolved));
    EXPECT_TRUE(resolved == SimdTarget::AVX2 ||
                resolved == SimdTarget::SSE2 ||
                resolved == SimdTarget::Scalar);
    if (simdTargetSupported(SimdTarget::AVX2)) {
        EXPECT_EQ(resolved, SimdTarget::AVX2);
    }
}

TEST(Simd, BoundaryPatternsBitIdenticalOnEveryTarget)
{
    // The ISSUE's boundary set.  "Saturating" drives one index with a
    // constant outcome so counters pin at 0b11 (taken) / 0b00 (not
    // taken) and every extra update exercises the saturation clamp.
    constexpr std::size_t n = 1024;
    std::vector<std::uint32_t> all_zeros(n, record(0, false));
    std::vector<std::uint32_t> all_ones(n, record(0x7FFFFFFFu, true));
    std::vector<std::uint32_t> alternating(n);
    std::vector<std::uint32_t> saturate_taken(n);
    std::vector<std::uint32_t> saturate_not_taken(n);
    for (std::size_t i = 0; i < n; ++i) {
        alternating[i] = record(
            (i & 1) ? 0x55555555u : 0x2AAAAAAAu, (i & 3) < 2);
        saturate_taken[i] = record(7, true);
        saturate_not_taken[i] = record(7, false);
    }

    for (SimdTarget target : supportedSimdTargets()) {
        expectBitIdentical(target, all_zeros, kMixedLanes,
                           "all-zeros");
        expectBitIdentical(target, all_ones, kMixedLanes, "all-ones");
        expectBitIdentical(target, alternating, kMixedLanes,
                           "alternating");
        expectBitIdentical(target, saturate_taken, kMixedLanes,
                           "saturating at 0b11");
        expectBitIdentical(target, saturate_not_taken, kMixedLanes,
                           "saturating at 0b00");
    }
}

TEST(Simd, SaturatedCountersLandOnTheRail)
{
    // Beyond agreeing with the reference, the saturating runs must
    // actually end on the rails -- guards against a reference bug
    // cancelling a kernel bug.
    for (SimdTarget target : supportedSimdTargets()) {
        std::vector<std::uint32_t> up(64, record(3, true));
        std::vector<std::uint32_t> down(64, record(3, false));
        LaneSetup taken({4, 4});
        LaneSetup not_taken({4, 4});
        replayLaneBatch(target, up.data(), up.size(), taken.batch);
        replayLaneBatch(target, down.data(), down.size(),
                        not_taken.batch);
        for (unsigned l = 0; l < 2; ++l) {
            EXPECT_EQ(taken.tables[l].counter(3), 3u)
                << simdTargetName(target);
            EXPECT_EQ(not_taken.tables[l].counter(3), 0u)
                << simdTargetName(target);
        }
    }
}

TEST(Simd, PartialBatchesLeaveTrailingLanesUntouched)
{
    // Vector kernels pad to their native width internally; the padding
    // must never leak into the caller's unused lane slots.
    std::vector<std::uint32_t> records;
    for (std::uint32_t i = 0; i < 500; ++i)
        records.push_back(record(i * 37, (i % 3) == 0));

    for (SimdTarget target : supportedSimdTargets()) {
        for (unsigned lanes = 1; lanes <= LaneBatch::kMaxLanes;
             ++lanes) {
            std::vector<unsigned> bits(lanes, 6u);
            expectBitIdentical(target, records, bits, "partial batch");

            LaneSetup setup(bits);
            replayLaneBatch(target, records.data(), records.size(),
                            setup.batch);
            for (unsigned l = lanes; l < LaneBatch::kMaxLanes; ++l) {
                EXPECT_EQ(setup.batch.misses[l], 0u)
                    << simdTargetName(target) << " lanes=" << lanes;
                EXPECT_EQ(setup.batch.pht[l], nullptr);
            }
        }
    }
}

TEST(Simd, FuzzedReplayBitIdenticalOnEveryTarget)
{
    Pcg32 rng(0x51D0CAFEULL, 23);
    for (int round = 0; round < 12; ++round) {
        const unsigned lanes =
            1 + static_cast<unsigned>(rng.nextBounded(
                    LaneBatch::kMaxLanes));
        std::vector<unsigned> bits;
        for (unsigned l = 0; l < lanes; ++l)
            bits.push_back(
                2 + static_cast<unsigned>(rng.nextBounded(12)));

        const std::size_t n = 500 + rng.nextBounded(4000);
        std::vector<std::uint32_t> records;
        records.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            records.push_back(record(
                static_cast<std::uint32_t>(rng.next()),
                rng.nextBounded(2) != 0));

        for (SimdTarget target : supportedSimdTargets())
            expectBitIdentical(target, records, bits, "fuzz");
    }
}

TEST(Simd, ReplayReachesTheLastTableByte)
{
    // The highest counter byte is exactly where the AVX-512 4-byte
    // gather and scatter need PackedPht::kGatherSlack padding: train
    // every lane's last counter on every target (a full 16-lane batch,
    // so the AVX-512 kernel engages) to prove the slack is there (ASan
    // would flag a miss) and that the slack bytes never leak into the
    // counters.
    std::vector<std::uint32_t> records(8, record(63, true));
    const std::vector<unsigned> bits(LaneBatch::kMaxLanes, 6u);
    for (SimdTarget target : supportedSimdTargets()) {
        expectBitIdentical(target, records, bits, "last byte");
        LaneSetup setup(bits);
        replayLaneBatch(target, records.data(), records.size(),
                        setup.batch);
        for (unsigned l = 0; l < setup.batch.lanes; ++l) {
            EXPECT_EQ(setup.tables[l].counter(63), 3u)
                << simdTargetName(target) << " lane " << l;
            EXPECT_EQ(setup.tables[l].counter(62), 2u)
                << simdTargetName(target) << " lane " << l;
        }
    }
}
