/**
 * @file
 * Tests for the finite set-associative branch history table (the PAs
 * first level), including the paper's 0xC3FF miss-reset policy and the
 * direct-mapped-conflict property claimed in DESIGN.md.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "predictor/bht.hh"
#include "stats/aliasing.hh"

using namespace bpsim;

TEST(SetAssocBht, Geometry)
{
    SetAssocBht bht(64, 4, 10);
    EXPECT_EQ(bht.entryCount(), 64u);
    EXPECT_EQ(bht.associativity(), 4u);
    EXPECT_EQ(bht.historyBits(), 10u);
}

TEST(SetAssocBht, FirstVisitMissesAndResetsToC3ff)
{
    SetAssocBht bht(16, 4, 10);
    BhtLookup r = bht.visit(0x400100);
    EXPECT_TRUE(r.miss);
    EXPECT_EQ(r.history, c3ffPrefix(10));
    EXPECT_EQ(bht.misses(), 1u);
    EXPECT_EQ(bht.visits(), 1u);
}

TEST(SetAssocBht, HitReturnsAccumulatedHistory)
{
    SetAssocBht bht(16, 4, 4);
    bht.visit(0x400100);
    bht.recordOutcome(0x400100, true);
    bht.recordOutcome(0x400100, false);
    BhtLookup r = bht.visit(0x400100);
    EXPECT_FALSE(r.miss);
    EXPECT_EQ(r.history, bits((c3ffPrefix(4) << 2) | 0b10, 4));
}

TEST(SetAssocBht, DistinctBranchesKeepDistinctHistories)
{
    SetAssocBht bht(16, 4, 4);
    bht.visit(0x400100);
    bht.visit(0x400200);
    bht.recordOutcome(0x400100, true);
    bht.recordOutcome(0x400200, false);
    EXPECT_NE(bht.visit(0x400100).history,
              bht.visit(0x400200).history);
}

TEST(SetAssocBht, LruEvictionWithinASet)
{
    // Direct construction of a conflict: one set (fully associative
    // with 2 entries), three branches.
    SetAssocBht bht(2, 2, 8);
    bht.visit(0x100); // A
    bht.visit(0x200); // B
    bht.visit(0x100); // touch A -> B becomes LRU
    bht.visit(0x300); // C evicts B
    EXPECT_FALSE(bht.visit(0x100).miss); // A still resident
    EXPECT_TRUE(bht.visit(0x200).miss);  // B was evicted
}

TEST(SetAssocBht, EvictionResetsHistoryToPrefix)
{
    SetAssocBht bht(1, 1, 8);
    bht.visit(0x100);
    bht.recordOutcome(0x100, true);
    bht.visit(0x200); // evicts 0x100
    // Re-fetch 0x100: fresh reset history again.
    BhtLookup r = bht.visit(0x100);
    EXPECT_TRUE(r.miss);
    EXPECT_EQ(r.history, c3ffPrefix(8));
}

TEST(SetAssocBht, DirectMappedUsesLowWordBits)
{
    SetAssocBht bht(4, 1, 4);
    // 0x400100 and 0x400110 differ in word-index bit 2 -> same set only
    // if (wordIndex & 3) matches.  wordIndex 0x100040 and 0x100044:
    // sets 0 and 0 (mod 4)... compute explicitly: choose addresses
    // whose word indices differ by exactly 4 (same set in a 4-set
    // table).
    bht.visit(0x400100);
    EXPECT_TRUE(bht.visit(0x400100 + 4 * 4).miss); // same set, new tag
    // The first branch was evicted (1-way): visiting it again misses.
    EXPECT_TRUE(bht.visit(0x400100).miss);
}

TEST(SetAssocBht, PeekDoesNotDisturbState)
{
    SetAssocBht bht(2, 2, 8);
    bht.visit(0x100);
    bht.visit(0x200);
    auto visits_before = bht.visits();
    // Peeks: no LRU churn, no counters.
    EXPECT_TRUE(bht.peek(0x100).has_value());
    EXPECT_FALSE(bht.peek(0x300).has_value());
    EXPECT_EQ(bht.visits(), visits_before);
    // LRU order unchanged: 0x100 is still LRU, evicted next.
    bht.visit(0x300);
    EXPECT_FALSE(bht.peek(0x100).has_value());
    EXPECT_TRUE(bht.peek(0x200).has_value());
}

TEST(SetAssocBht, MissRateTracksVisits)
{
    SetAssocBht bht(16, 4, 4);
    bht.visit(0x100); // miss
    bht.visit(0x100); // hit
    bht.visit(0x100); // hit
    bht.visit(0x200); // miss
    EXPECT_DOUBLE_EQ(bht.missRate(), 0.5);
}

TEST(SetAssocBht, ResetClearsEverything)
{
    SetAssocBht bht(16, 4, 4);
    bht.visit(0x100);
    bht.recordOutcome(0x100, true);
    bht.reset();
    EXPECT_EQ(bht.visits(), 0u);
    EXPECT_EQ(bht.misses(), 0u);
    EXPECT_FALSE(bht.peek(0x100).has_value());
    EXPECT_TRUE(bht.visit(0x100).miss);
}

TEST(SetAssocBhtDeathTest, NonPowerOfTwoEntriesRejected)
{
    EXPECT_DEATH(SetAssocBht(24, 4, 8), "power of two");
}

TEST(SetAssocBhtDeathTest, AssocMustDivideEntries)
{
    EXPECT_DEATH(SetAssocBht(16, 3, 8), "divide");
}

TEST(SetAssocBhtDeathTest, RecordWithoutVisitPanics)
{
    SetAssocBht bht(16, 4, 8);
    EXPECT_DEATH(bht.recordOutcome(0x100, true),
                 "without a preceding visit");
}

TEST(SetAssocBht, ZeroHistoryBitsDegenerate)
{
    SetAssocBht bht(4, 2, 0);
    BhtLookup r = bht.visit(0x100);
    EXPECT_EQ(r.history, 0u);
    bht.recordOutcome(0x100, true);
    EXPECT_EQ(bht.visit(0x100).history, 0u);
}

TEST(SetAssocBht, DesignClaimDirectMappedConflictsEqualAliasRate)
{
    // DESIGN.md: "the conflict rate of a direct-mapped first-level
    // table equals the aliasing rate of an address-indexed second-level
    // table of the same size" (paper, Section 5).  Drive both with an
    // identical access stream and compare.
    constexpr std::size_t entries = 64;
    SetAssocBht bht(entries, 1, 4);
    AliasTracker tracker(entries);

    Pcg32 rng(99);
    std::uint64_t bht_extra_misses = 0; // cold misses differ: count all
    for (int i = 0; i < 20'000; ++i) {
        Addr pc = 0x400000 + 4 * (rng.nextBounded(300));
        bool miss = bht.visit(pc).miss;
        bool conflict = tracker.access(
            static_cast<std::size_t>(wordIndex(pc) % entries), pc);
        // After warm-up, a miss in the 1-way BHT is exactly a conflict
        // in the tracker; cold (first-touch) misses are the only
        // divergence.
        if (miss != conflict)
            ++bht_extra_misses;
    }
    // Divergence bounded by the number of distinct branches (cold
    // misses).
    EXPECT_LE(bht_extra_misses, 300u);
    EXPECT_NEAR(bht.missRate(), tracker.aliasRate(), 300.0 / 20'000.0);
}

TEST(SetAssocBht, ResetPolicies)
{
    for (auto policy : {BhtResetPolicy::Zeros, BhtResetPolicy::Ones,
                        BhtResetPolicy::C3ffPrefix}) {
        SetAssocBht bht(4, 1, 8, policy);
        std::uint64_t expect =
            policy == BhtResetPolicy::Zeros ? 0
            : policy == BhtResetPolicy::Ones ? mask(8)
                                             : c3ffPrefix(8);
        EXPECT_EQ(bht.visit(0x400100).history, expect)
            << bhtResetPolicyName(policy);
        EXPECT_EQ(bht.resetPolicy(), policy);
    }
}

TEST(SetAssocBht, HoldPolicyKeepsVictimHistory)
{
    SetAssocBht bht(1, 1, 4, BhtResetPolicy::Hold);
    bht.visit(0x100);
    bht.recordOutcome(0x100, true);   // history ...0001
    BhtLookup r = bht.visit(0x200);   // evicts, but holds the bits
    EXPECT_TRUE(r.miss);
    EXPECT_EQ(r.history, 0b0001u);
}

TEST(SetAssocBht, ResetValueIsOneDefinitionPerPolicy)
{
    for (unsigned w : {0u, 1u, 4u, 16u, 20u, 64u}) {
        EXPECT_EQ(bhtResetValue(BhtResetPolicy::C3ffPrefix, w),
                  c3ffPrefix(w));
        EXPECT_EQ(bhtResetValue(BhtResetPolicy::Zeros, w), 0u);
        EXPECT_EQ(bhtResetValue(BhtResetPolicy::Ones, w), mask(w));
        // Hold installs nothing; 0 is every register's initial value.
        EXPECT_EQ(bhtResetValue(BhtResetPolicy::Hold, w), 0u);
    }
}

TEST(SetAssocBht, AgeCountsOutcomesSinceReset)
{
    for (auto policy : {BhtResetPolicy::C3ffPrefix, BhtResetPolicy::Hold}) {
        SetAssocBht bht(1, 1, 8, policy);
        EXPECT_EQ(bht.visit(0x100).age, 0u);
        for (int i = 0; i < 70; ++i)
            bht.recordOutcome(0x100, i % 3 == 0);
        // Saturates at 64: every register width is then fully shifted.
        EXPECT_EQ(bht.visit(0x100).age, 64u);
        // A miss resets the age with the history; Hold resets neither.
        const BhtLookup r = bht.visit(0x200);
        EXPECT_TRUE(r.miss);
        EXPECT_EQ(r.age, policy == BhtResetPolicy::Hold ? 64u : 0u)
            << bhtResetPolicyName(policy);
    }
}

TEST(SetAssocBht, PolicyNames)
{
    EXPECT_STREQ(bhtResetPolicyName(BhtResetPolicy::C3ffPrefix),
                 "0xC3FF-prefix");
    EXPECT_STREQ(bhtResetPolicyName(BhtResetPolicy::Zeros), "zeros");
    EXPECT_STREQ(bhtResetPolicyName(BhtResetPolicy::Ones), "ones");
    EXPECT_STREQ(bhtResetPolicyName(BhtResetPolicy::Hold), "hold");
}
