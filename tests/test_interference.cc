/**
 * @file
 * Tests for the destructive/neutral/constructive interference
 * decomposition.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "sim/interference.hh"
#include "workload/synthetic.hh"

using namespace bpsim;

namespace {

PreparedTrace &
workload()
{
    static MemoryTrace raw = [] {
        WorkloadParams p;
        p.name = "interference-unit";
        p.seed = 2024;
        p.staticBranches = 400;
        p.functionCount = 40;
        p.targetConditionals = 60'000;
        return generateTrace(p);
    }();
    static PreparedTrace t{raw};
    return t;
}

} // namespace

TEST(Interference, CountsAreConsistent)
{
    InterferenceResult r = analyzeInterference(
        workload(), SchemeKind::Gshare, 8, 0);
    EXPECT_EQ(r.instances, workload().size());
    EXPECT_LE(r.destructive, r.sharedMispredicts);
    EXPECT_LE(r.constructive, r.privateMispredicts);
    // Misprediction identities: shared = private + destr - constr.
    EXPECT_EQ(r.sharedMispredicts,
              r.privateMispredicts + r.destructive - r.constructive);
}

TEST(Interference, SharedMispRateMatchesSweep)
{
    SweepOptions o;
    o.trackAliasing = false;
    ConfigResult sweep =
        simulateConfig(workload(), SchemeKind::GAs, 6, 4, o);
    InterferenceResult r =
        analyzeInterference(workload(), SchemeKind::GAs, 6, 4, o);
    EXPECT_NEAR(r.sharedMispRate(), sweep.mispRate, 1e-12);
}

TEST(Interference, VanishesForPrivateEnoughTables)
{
    // With a huge address-indexed table nearly every branch has its own
    // counter, so sharing changes (almost) nothing.
    InterferenceResult r = analyzeInterference(
        workload(), SchemeKind::AddressIndexed, 0, 16);
    EXPECT_LT(r.destructiveRate(), 0.002);
    EXPECT_LT(r.constructiveRate(), 0.002);
}

TEST(Interference, SmallSharedTablesAreNetDestructive)
{
    // A 16-counter GAg shares wildly: the net damage must be clearly
    // positive and the private reference clearly better.
    InterferenceResult r =
        analyzeInterference(workload(), SchemeKind::GAg, 4, 0);
    EXPECT_GT(r.destructiveRate(), r.constructiveRate());
    EXPECT_GT(r.netDamage(), 0.01);
    EXPECT_LT(r.privateMispRate(), r.sharedMispRate());
}

TEST(Interference, DamageShrinksWithTableSize)
{
    InterferenceResult small =
        analyzeInterference(workload(), SchemeKind::Gshare, 6, 0);
    InterferenceResult big =
        analyzeInterference(workload(), SchemeKind::Gshare, 12, 0);
    EXPECT_LT(big.netDamage(), small.netDamage() + 1e-9);
}

TEST(Interference, ConstructiveInterferenceExists)
{
    // The paper's point that not all aliasing is destructive: on a real
    // workload some sharing helps (branches training each other's
    // counters toward the common direction).
    InterferenceResult r =
        analyzeInterference(workload(), SchemeKind::GAs, 5, 3);
    EXPECT_GT(r.constructive, 0u);
}

TEST(Interference, WorksForEveryScheme)
{
    SweepOptions o;
    o.bhtEntries = 64;
    for (SchemeKind kind :
         {SchemeKind::AddressIndexed, SchemeKind::GAg, SchemeKind::GAs,
          SchemeKind::Gshare, SchemeKind::Path, SchemeKind::PAsPerfect,
          SchemeKind::PAsFinite}) {
        unsigned rows = kind == SchemeKind::AddressIndexed ? 0 : 6;
        unsigned cols = kind == SchemeKind::GAg ? 0 : 3;
        InterferenceResult r =
            analyzeInterference(workload(), kind, rows, cols, o);
        EXPECT_EQ(r.instances, workload().size())
            << schemeKindName(kind);
        EXPECT_EQ(r.sharedMispredicts, r.privateMispredicts +
                                           r.destructive -
                                           r.constructive)
            << schemeKindName(kind);
    }
}

namespace {

/** A conditional branch at @p pc with a fixed taken target. */
BranchRecord
conditional(Addr pc, bool taken)
{
    BranchRecord rec;
    rec.pc = pc;
    rec.target = pc + 0x400;
    rec.type = BranchType::Conditional;
    rec.taken = taken;
    return rec;
}

/** A deterministic irregular outcome stream (xorshift bits). */
class Outcomes
{
  public:
    explicit Outcomes(std::uint64_t seed) : state(seed) {}

    bool
    next()
    {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return (state >> 11) % 3 != 0; // about two thirds taken
    }

  private:
    std::uint64_t state;
};

/** No sharing happened: nothing flips, both twins miss alike. */
void
expectNoInterference(const InterferenceResult &r, std::size_t n,
                     const std::string &what)
{
    EXPECT_EQ(r.instances, n) << what;
    EXPECT_EQ(r.destructive, 0u) << what;
    EXPECT_EQ(r.constructive, 0u) << what;
    EXPECT_EQ(r.sharedMispredicts, r.privateMispredicts) << what;
    EXPECT_GT(r.sharedMispredicts, 0u) << what;
    EXPECT_EQ(r.coldMispredicts + r.capacityMispredicts,
              r.sharedMispredicts)
        << what;
}

} // namespace

TEST(InterferenceOracle, OneStaticBranchNeverInterferes)
{
    // With one static branch the shared table and the per-branch twin
    // see the same branch on the same entries, so for every scheme
    // sharing can neither hurt nor help.
    MemoryTrace raw("one-branch");
    Outcomes outcomes(0x9e3779b97f4a7c15ULL);
    for (int i = 0; i < 4000; ++i)
        raw.append(conditional(0x4000, outcomes.next()));
    PreparedTrace t(raw);
    SweepOptions opts;
    opts.bhtEntries = 16;
    for (SchemeKind kind : kSchemeKinds) {
        const bool zoo =
            kind == SchemeKind::Tage || kind == SchemeKind::Perceptron;
        for (auto [rows, cols] : {std::pair{zoo ? 1u : 0u, 1u},
                                  std::pair{6u, zoo ? 1u : 0u},
                                  std::pair{8u, 3u}}) {
            expectNoInterference(
                analyzeInterference(t, kind, rows, cols, opts), t.size(),
                std::string(schemeKindName(kind)) + " r=" +
                    std::to_string(rows) + " c=" + std::to_string(cols));
        }
    }
}

TEST(InterferenceOracle, BranchesOnDistinctColumnsNeverInterfere)
{
    // Two branches whose word indices differ in bit 0: any table with
    // a column bit gives each its own counters, whatever the rows, so
    // the shared table already is the private one.
    MemoryTrace raw("two-branches");
    Outcomes a(12345), b(67890), order(424242);
    for (int i = 0; i < 6000; ++i) {
        if (order.next())
            raw.append(conditional(0x8000, a.next()));
        else
            raw.append(conditional(0x8004, b.next()));
    }
    PreparedTrace t(raw);
    ASSERT_EQ(t.staticBranches(), 2u);
    SweepOptions opts;
    opts.bhtEntries = 16;
    for (SchemeKind kind :
         {SchemeKind::AddressIndexed, SchemeKind::GAg, SchemeKind::GAs,
          SchemeKind::Gshare, SchemeKind::Path, SchemeKind::PAsPerfect,
          SchemeKind::PAsFinite}) {
        const unsigned rows = kind == SchemeKind::AddressIndexed ? 0 : 5;
        for (unsigned cols : {1u, 4u}) {
            expectNoInterference(
                analyzeInterference(t, kind, rows, cols, opts), t.size(),
                std::string(schemeKindName(kind)) + " c=" +
                    std::to_string(cols));
        }
    }
}

namespace {

/** Every scheme's counts on @p t at (4, 3), with @p threads executors. */
InterferenceResult
analyzeAt(const PreparedTrace &t, SchemeKind kind, unsigned threads)
{
    SweepOptions opts;
    opts.bhtEntries = 16;
    opts.threads = threads;
    return analyzeInterference(t, kind, 4, 3, opts);
}

void
expectSameCounts(const InterferenceResult &a, const InterferenceResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.instances, b.instances) << what;
    EXPECT_EQ(a.sharedMispredicts, b.sharedMispredicts) << what;
    EXPECT_EQ(a.privateMispredicts, b.privateMispredicts) << what;
    EXPECT_EQ(a.destructive, b.destructive) << what;
    EXPECT_EQ(a.constructive, b.constructive) << what;
    EXPECT_EQ(a.coldMispredicts, b.coldMispredicts) << what;
    EXPECT_EQ(a.capacityMispredicts, b.capacityMispredicts) << what;
}

} // namespace

TEST(InterferenceEdge, EmptyTraceGivesZeroCounts)
{
    MemoryTrace raw("empty");
    PreparedTrace t(raw);
    for (SchemeKind kind : kSchemeKinds)
        for (unsigned threads : {1u, 4u})
            expectSameCounts(analyzeAt(t, kind, threads),
                             InterferenceResult{},
                             std::string(schemeKindName(kind)) + " at " +
                                 std::to_string(threads) + " threads");
}

TEST(InterferenceEdge, OneInstanceIsAColdMissOrNothing)
{
    // Both twins start from the same reset state and see one branch,
    // so they agree; a miss on that first touch is cold.
    for (bool taken : {false, true}) {
        MemoryTrace raw("one-instance");
        raw.append(conditional(0x1000, taken));
        PreparedTrace t(raw);
        for (SchemeKind kind : kSchemeKinds) {
            const InterferenceResult r = analyzeAt(t, kind, 4);
            const std::string what = std::string(schemeKindName(kind)) +
                (taken ? " taken" : " not taken");
            EXPECT_EQ(r.instances, 1u) << what;
            EXPECT_EQ(r.sharedMispredicts, r.privateMispredicts) << what;
            EXPECT_EQ(r.destructive + r.constructive, 0u) << what;
            EXPECT_EQ(r.coldMispredicts, r.sharedMispredicts) << what;
            EXPECT_EQ(r.capacityMispredicts, 0u) << what;
            // Every reset state leans taken.
            EXPECT_EQ(r.sharedMispredicts, taken ? 0u : 1u) << what;
        }
    }
}

TEST(InterferenceEdge, FewerStaticBranchesThanThreads)
{
    // Three static branches over eight executors: most get no branch,
    // and the counts match the serial analysis.
    MemoryTrace raw("three-branches");
    Outcomes outcomes(777), order(31337);
    for (int i = 0; i < 3000; ++i) {
        const Addr pc = order.next() ? 0x2000 : order.next() ? 0x2040
                                                             : 0x2104;
        raw.append(conditional(pc, outcomes.next()));
    }
    PreparedTrace t(raw);
    ASSERT_EQ(t.staticBranches(), 3u);
    for (SchemeKind kind : kSchemeKinds) {
        const InterferenceResult serial = analyzeAt(t, kind, 1);
        EXPECT_EQ(serial.instances, t.size());
        for (unsigned threads : {2u, 8u, 0u})
            expectSameCounts(analyzeAt(t, kind, threads), serial,
                             std::string(schemeKindName(kind)) + " at " +
                                 std::to_string(threads) + " threads");
    }
}
