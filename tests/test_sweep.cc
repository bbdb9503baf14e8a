/**
 * @file
 * Tests for the configuration sweep engine, most importantly the
 * equivalence between the fast sweep path and the online
 * TwoLevelPredictor for every scheme.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/sat_counter.hh"
#include "predictor/factory.hh"
#include "predictor/two_level.hh"
#include "sim/engine.hh"
#include "sim/sweep.hh"
#include "stats/aliasing.hh"
#include "workload/synthetic.hh"

using namespace bpsim;

namespace {

MemoryTrace &
sharedWorkload()
{
    static MemoryTrace trace = [] {
        WorkloadParams p;
        p.name = "sweep-unit";
        p.seed = 21;
        p.staticBranches = 150;
        p.functionCount = 15;
        p.targetConditionals = 30'000;
        return generateTrace(p);
    }();
    return trace;
}

double
onlineMisp(BranchPredictor &p)
{
    MemoryTrace &t = sharedWorkload();
    t.reset();
    return runPredictor(t, p).mispRate();
}

} // namespace

TEST(Sweep, TierAndPointCounts)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.minTotalBits = 4;
    o.maxTotalBits = 7;
    SweepResult r = sweepScheme(t, SchemeKind::GAs, o);
    ASSERT_EQ(r.misprediction.tiers().size(), 4u);
    for (const auto &tier : r.misprediction.tiers())
        EXPECT_EQ(tier.points.size(), tier.totalBits + 1);
}

TEST(Sweep, DegenerateSchemesHaveOnePointPerTier)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.minTotalBits = 4;
    o.maxTotalBits = 8;
    SweepResult addr = sweepScheme(t, SchemeKind::AddressIndexed, o);
    SweepResult gag = sweepScheme(t, SchemeKind::GAg, o);
    for (const auto &tier : addr.misprediction.tiers()) {
        ASSERT_EQ(tier.points.size(), 1u);
        EXPECT_EQ(tier.points[0].rowBits, 0u);
    }
    for (const auto &tier : gag.misprediction.tiers()) {
        ASSERT_EQ(tier.points.size(), 1u);
        EXPECT_EQ(tier.points[0].colBits, 0u);
    }
}

TEST(Sweep, RatesAreValidProbabilities)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.minTotalBits = 4;
    o.maxTotalBits = 10;
    for (SchemeKind kind :
         {SchemeKind::GAs, SchemeKind::Gshare, SchemeKind::Path,
          SchemeKind::PAsPerfect}) {
        SweepResult r = sweepScheme(t, kind, o);
        for (const auto &tier : r.misprediction.tiers()) {
            for (const auto &pt : tier.points) {
                EXPECT_GE(pt.value, 0.0);
                EXPECT_LE(pt.value, 1.0);
            }
        }
        for (const auto &tier : r.aliasing.tiers()) {
            for (const auto &pt : tier.points) {
                EXPECT_GE(pt.value, 0.0);
                EXPECT_LE(pt.value, 1.0);
            }
        }
    }
}

TEST(Sweep, SchemeNames)
{
    EXPECT_STREQ(schemeKindName(SchemeKind::AddressIndexed), "addr");
    EXPECT_STREQ(schemeKindName(SchemeKind::GAg), "GAg");
    EXPECT_STREQ(schemeKindName(SchemeKind::GAs), "GAs");
    EXPECT_STREQ(schemeKindName(SchemeKind::Gshare), "gshare");
    EXPECT_STREQ(schemeKindName(SchemeKind::Path), "path");
    EXPECT_STREQ(schemeKindName(SchemeKind::PAsPerfect), "PAs(inf)");
    EXPECT_STREQ(schemeKindName(SchemeKind::PAsFinite), "PAs(bht)");
}

TEST(Sweep, BhtMissRateReported)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.minTotalBits = 6;
    o.maxTotalBits = 6;
    o.bhtEntries = 32;
    o.bhtAssoc = 4;
    SweepResult r = sweepScheme(t, SchemeKind::PAsFinite, o);
    EXPECT_GT(r.bhtMissRate, 0.0);
    EXPECT_LT(r.bhtMissRate, 1.0);
}

// --- The fast-path / online equivalence matrix ---

struct EquivCase
{
    SchemeKind kind;
    unsigned rowBits;
    unsigned colBits;
};

class SweepEquivalence : public ::testing::TestWithParam<EquivCase>
{
};

TEST_P(SweepEquivalence, FastPathMatchesOnlinePredictor)
{
    const EquivCase &c = GetParam();
    PreparedTrace prepared(sharedWorkload());

    SweepOptions o;
    o.trackAliasing = true;
    o.bhtEntries = 64;
    o.bhtAssoc = 4;
    ConfigResult fast =
        simulateConfig(prepared, c.kind, c.rowBits, c.colBits, o);

    std::unique_ptr<TwoLevelPredictor> online;
    switch (c.kind) {
      case SchemeKind::AddressIndexed:
        online = makeAddressIndexed(c.colBits, true);
        break;
      case SchemeKind::GAg:
        online = makeGAg(c.rowBits, true);
        break;
      case SchemeKind::GAs:
        online = makeGAs(c.rowBits, c.colBits, true);
        break;
      case SchemeKind::Gshare:
        online = makeGshare(c.rowBits, c.colBits, true);
        break;
      case SchemeKind::Path:
        online = makePath(c.rowBits, c.colBits, 2, true);
        break;
      case SchemeKind::PAsPerfect:
        online = makePAsPerfect(c.rowBits, c.colBits, true);
        break;
      case SchemeKind::PAsFinite:
        online = makePAsFinite(c.rowBits, c.colBits, 64, 4, true);
        break;
      case SchemeKind::Tage:
      case SchemeKind::Perceptron:
        FAIL() << "zoo schemes have no TwoLevelPredictor twin";
        break;
    }

    double online_misp = onlineMisp(*online);
    EXPECT_NEAR(fast.mispRate, online_misp, 1e-12)
        << "scheme " << schemeKindName(c.kind) << " 2^" << c.rowBits
        << " x 2^" << c.colBits;

    const AliasTracker *alias = online->pht().aliasStats();
    ASSERT_NE(alias, nullptr);
    EXPECT_NEAR(fast.aliasRate, alias->aliasRate(), 1e-12);
    EXPECT_NEAR(fast.harmlessFraction, alias->harmlessFraction(),
                1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SweepEquivalence,
    ::testing::Values(
        EquivCase{SchemeKind::AddressIndexed, 0, 8},
        EquivCase{SchemeKind::AddressIndexed, 0, 0},
        EquivCase{SchemeKind::GAg, 8, 0},
        EquivCase{SchemeKind::GAg, 3, 0},
        EquivCase{SchemeKind::GAs, 5, 4},
        EquivCase{SchemeKind::GAs, 0, 6},
        EquivCase{SchemeKind::GAs, 9, 1},
        EquivCase{SchemeKind::Gshare, 6, 3},
        EquivCase{SchemeKind::Gshare, 8, 0},
        EquivCase{SchemeKind::Gshare, 0, 5},
        EquivCase{SchemeKind::Path, 6, 3},
        EquivCase{SchemeKind::Path, 4, 0},
        EquivCase{SchemeKind::PAsPerfect, 6, 3},
        EquivCase{SchemeKind::PAsPerfect, 0, 7},
        EquivCase{SchemeKind::PAsPerfect, 10, 0},
        EquivCase{SchemeKind::PAsFinite, 6, 3},
        EquivCase{SchemeKind::PAsFinite, 4, 4},
        EquivCase{SchemeKind::PAsFinite, 0, 6}));

namespace {

/** Exact (bit-identical) surface comparison. */
void
expectSurfacesIdentical(const Surface &a, const Surface &b,
                        const char *what)
{
    ASSERT_EQ(a.tiers().size(), b.tiers().size()) << what;
    for (std::size_t t = 0; t < a.tiers().size(); ++t) {
        const SurfaceTier &ta = a.tiers()[t];
        const SurfaceTier &tb = b.tiers()[t];
        ASSERT_EQ(ta.totalBits, tb.totalBits) << what;
        ASSERT_EQ(ta.points.size(), tb.points.size()) << what;
        for (std::size_t p = 0; p < ta.points.size(); ++p) {
            EXPECT_EQ(ta.points[p].rowBits, tb.points[p].rowBits)
                << what;
            EXPECT_EQ(ta.points[p].colBits, tb.points[p].colBits)
                << what;
            // EXPECT_EQ, not NEAR: parallel execution must be
            // bit-identical to the serial merge order.
            EXPECT_EQ(ta.points[p].value, tb.points[p].value)
                << what << " tier 2^" << ta.totalBits << " rows 2^"
                << ta.points[p].rowBits;
        }
    }
}

} // namespace

TEST(Sweep, PlanEnumeratesMergeOrder)
{
    SweepOptions o;
    o.minTotalBits = 4;
    o.maxTotalBits = 6;
    auto jobs = planSweep(SchemeKind::GAs, o);
    ASSERT_EQ(jobs.size(), 5u + 6u + 7u);
    EXPECT_EQ(jobs.front().totalBits, 4u);
    EXPECT_EQ(jobs.front().rowBits, 0u);
    EXPECT_EQ(jobs.back().totalBits, 6u);
    EXPECT_EQ(jobs.back().rowBits, 6u);
    for (const auto &job : jobs)
        EXPECT_EQ(job.rowBits + job.colBits, job.totalBits);

    EXPECT_EQ(planSweep(SchemeKind::AddressIndexed, o).size(), 3u);
    EXPECT_EQ(planSweep(SchemeKind::GAg, o).size(), 3u);
}

TEST(Sweep, ParallelSurfacesBitIdenticalToSerialForEveryScheme)
{
    PreparedTrace t(sharedWorkload());
    for (SchemeKind kind :
         {SchemeKind::AddressIndexed, SchemeKind::GAg, SchemeKind::GAs,
          SchemeKind::Gshare, SchemeKind::Path, SchemeKind::PAsPerfect,
          SchemeKind::PAsFinite}) {
        SweepOptions serial;
        serial.minTotalBits = 4;
        serial.maxTotalBits = 9;
        serial.trackAliasing = true;
        serial.bhtEntries = 64;
        serial.threads = 1;
        SweepOptions parallel = serial;
        parallel.threads = 4;

        SweepResult rs = sweepScheme(t, kind, serial);
        SweepResult rp = sweepScheme(t, kind, parallel);
        const char *name = schemeKindName(kind);
        expectSurfacesIdentical(rs.misprediction, rp.misprediction,
                                name);
        expectSurfacesIdentical(rs.aliasing, rp.aliasing, name);
        expectSurfacesIdentical(rs.harmless, rp.harmless, name);
        EXPECT_EQ(rs.bhtMissRate, rp.bhtMissRate) << name;
    }
}

TEST(Sweep, ThreadsZeroSelectsHardwareConcurrencyAndStaysIdentical)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions serial;
    serial.minTotalBits = 5;
    serial.maxTotalBits = 8;
    serial.threads = 1;
    SweepOptions hw = serial;
    hw.threads = 0; // all hardware threads
    SweepResult rs = sweepScheme(t, SchemeKind::Gshare, serial);
    SweepResult rh = sweepScheme(t, SchemeKind::Gshare, hw);
    expectSurfacesIdentical(rs.misprediction, rh.misprediction,
                            "gshare threads=0");
}

TEST(Sweep, SimulateConfigReportsBhtMissRate)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.bhtEntries = 32;
    o.bhtAssoc = 2;
    ConfigResult finite =
        simulateConfig(t, SchemeKind::PAsFinite, 5, 3, o);
    EXPECT_GT(finite.bhtMissRate, 0.0);
    EXPECT_LT(finite.bhtMissRate, 1.0);

    // Inapplicable for schemes without a first-level table.
    ConfigResult gas = simulateConfig(t, SchemeKind::GAs, 5, 3, o);
    EXPECT_LT(gas.bhtMissRate, 0.0);
}

TEST(Sweep, FusedSweepBitIdenticalToPerConfigForEveryScheme)
{
    // A whole-sweep group (lanes sorted into column classes and
    // batched through the SIMD kernel, or alias lanes replayed
    // lane-major) must give every configuration exactly what its own
    // one-lane replay (simulateConfig) gives -- misprediction,
    // aliasing, harmless fraction and BHT miss rate -- so grouping
    // never leaks between lanes.
    PreparedTrace t(sharedWorkload());
    for (bool aliasing : {false, true}) {
        for (SchemeKind kind :
             {SchemeKind::AddressIndexed, SchemeKind::GAg,
              SchemeKind::GAs, SchemeKind::Gshare, SchemeKind::Path,
              SchemeKind::PAsPerfect, SchemeKind::PAsFinite}) {
            SweepOptions o;
            o.minTotalBits = 4;
            o.maxTotalBits = 9;
            o.trackAliasing = aliasing;
            o.bhtEntries = 64;

            SweepResult r = sweepScheme(t, kind, o);
            const char *name = schemeKindName(kind);
            for (const ConfigJob &job : planSweep(kind, o)) {
                const ConfigResult one = simulateConfig(
                    t, kind, job.rowBits, job.colBits, o);
                EXPECT_EQ(*r.misprediction.at(job.totalBits,
                                              job.rowBits),
                          one.mispRate)
                    << name << " r=" << job.rowBits;
                if (aliasing) {
                    EXPECT_EQ(*r.aliasing.at(job.totalBits,
                                             job.rowBits),
                              one.aliasRate)
                        << name << " r=" << job.rowBits;
                    EXPECT_EQ(*r.harmless.at(job.totalBits,
                                             job.rowBits),
                              one.harmlessFraction)
                        << name << " r=" << job.rowBits;
                }
                if (kind == SchemeKind::PAsFinite) {
                    EXPECT_EQ(one.bhtMissRate, r.bhtMissRate);
                }
            }
        }
    }
}

namespace {

/**
 * One PAs(bht) configuration replayed through a SetAssocBht of the row
 * width itself (so its own reset prefix), 2-bit counters and an
 * AliasTracker -- the classes the online TwoLevelPredictor uses.
 */
ConfigResult
perWidthBhtConfig(const PreparedTrace &t, const SweepOptions &o,
                  unsigned row_bits, unsigned col_bits)
{
    SetAssocBht bht(o.bhtEntries, o.bhtAssoc, row_bits, o.bhtResetPolicy);
    std::vector<TwoBitCounter> counters(std::size_t{1}
                                        << (row_bits + col_bits));
    AliasTracker tracker(counters.size());
    std::uint64_t misses = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const std::uint64_t row = bht.visit(t.pc(i)).history;
        const std::size_t idx = static_cast<std::size_t>(
            (row << col_bits) | bits(wordIndex(t.pc(i)), col_bits));
        tracker.access(idx, t.pc(i),
                       row_bits > 0 && row == mask(row_bits));
        misses += counters[idx].predict() != t.taken(i);
        counters[idx].update(t.taken(i));
        bht.recordOutcome(t.pc(i), t.taken(i));
    }
    ConfigResult out;
    out.mispRate = static_cast<double>(misses) /
                   static_cast<double>(t.size());
    out.aliasRate = tracker.aliasRate();
    out.harmlessFraction = tracker.harmlessFraction();
    out.bhtMissRate = bht.missRate();
    return out;
}

} // namespace

TEST(Sweep, FiniteBhtSweepMatchesPerWidthBhtUnderEveryResetPolicy)
{
    // Every PAs(bht) row width derives its rows from one 64-bit BHT
    // pass.  Under every reset policy, with aliasing on and off and at
    // 1 and 4 threads, each point must equal a replay through a BHT of
    // its own width.
    PreparedTrace t(sharedWorkload());
    for (BhtResetPolicy policy :
         {BhtResetPolicy::C3ffPrefix, BhtResetPolicy::Zeros,
          BhtResetPolicy::Ones, BhtResetPolicy::Hold}) {
        SweepOptions o;
        o.minTotalBits = 4;
        o.maxTotalBits = 9;
        o.bhtEntries = 64;
        o.bhtAssoc = 4;
        o.bhtResetPolicy = policy;
        std::vector<ConfigResult> want;
        for (const ConfigJob &job : planSweep(SchemeKind::PAsFinite, o))
            want.push_back(perWidthBhtConfig(t, o, job.rowBits,
                                             job.colBits));
        for (bool aliasing : {false, true}) {
            for (unsigned threads : {1u, 4u}) {
                o.trackAliasing = aliasing;
                o.threads = threads;
                const SweepResult r =
                    sweepScheme(t, SchemeKind::PAsFinite, o);
                const std::vector<ConfigJob> jobs =
                    planSweep(SchemeKind::PAsFinite, o);
                for (std::size_t i = 0; i < jobs.size(); ++i) {
                    const ConfigJob &job = jobs[i];
                    const std::string what =
                        std::string(bhtResetPolicyName(policy)) +
                        " alias=" + std::to_string(aliasing) +
                        " threads=" + std::to_string(threads) + " r=" +
                        std::to_string(job.rowBits) + " c=" +
                        std::to_string(job.colBits);
                    EXPECT_EQ(*r.misprediction.at(job.totalBits,
                                                  job.rowBits),
                              want[i].mispRate)
                        << what;
                    if (aliasing) {
                        EXPECT_EQ(*r.aliasing.at(job.totalBits,
                                                 job.rowBits),
                                  want[i].aliasRate)
                            << what;
                        EXPECT_EQ(*r.harmless.at(job.totalBits,
                                                 job.rowBits),
                                  want[i].harmlessFraction)
                            << what;
                    }
                    EXPECT_EQ(r.bhtMissRate, want[i].bhtMissRate) << what;
                }
            }
        }
    }
}

TEST(Sweep, FusedParallelBitIdenticalToFusedSerial)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions serial;
    serial.minTotalBits = 4;
    serial.maxTotalBits = 9;
    serial.trackAliasing = false;
    serial.threads = 1;
    SweepOptions parallel = serial;
    parallel.threads = 4; // groups are chunked differently too
    SweepResult rs = sweepScheme(t, SchemeKind::Gshare, serial);
    SweepResult rp = sweepScheme(t, SchemeKind::Gshare, parallel);
    expectSurfacesIdentical(rs.misprediction, rp.misprediction,
                            "gshare fused threads");
}

TEST(Sweep, AliasingSweepMatchesOnlinePredictor)
{
    // Figure 5 semantics on the fused alias lanes: every point of an
    // alias-tracked GAs sweep equals the online predictor built with
    // makePredictor(spec, track_aliasing = true) -- the same
    // AliasTracker class, fed branch by branch.
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.minTotalBits = 4;
    o.maxTotalBits = 7;
    o.trackAliasing = true;
    SweepResult r = sweepScheme(t, SchemeKind::GAs, o);
    for (const ConfigJob &job : planSweep(SchemeKind::GAs, o)) {
        auto online = makePredictor("GAs:" + std::to_string(job.rowBits) +
                                        ":" + std::to_string(job.colBits),
                                    true);
        const double misp = onlineMisp(*online);
        const AliasTracker *alias =
            dynamic_cast<TwoLevelPredictor &>(*online).pht().aliasStats();
        ASSERT_NE(alias, nullptr);
        EXPECT_EQ(*r.misprediction.at(job.totalBits, job.rowBits), misp)
            << "r=" << job.rowBits << " c=" << job.colBits;
        EXPECT_EQ(*r.aliasing.at(job.totalBits, job.rowBits),
                  alias->aliasRate())
            << "r=" << job.rowBits << " c=" << job.colBits;
        EXPECT_EQ(*r.harmless.at(job.totalBits, job.rowBits),
                  alias->harmlessFraction())
            << "r=" << job.rowBits << " c=" << job.colBits;
    }
}

TEST(Sweep, FusedGroupPlanPartitionsJobsByStream)
{
    SweepOptions o;
    o.minTotalBits = 4;
    o.maxTotalBits = 8;
    o.trackAliasing = false;

    // GAs: every job shares the global-history stream -> one fused
    // group covering all jobs exactly once, in plan order.
    auto jobs = planSweep(SchemeKind::GAs, o);
    auto groups = planFusedGroups(jobs);
    ASSERT_EQ(groups.size(), 1u);
    ASSERT_EQ(groups[0].jobs.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(groups[0].jobs[i], i);

    // PAsFinite streams depend on the row width: one group per
    // distinct rowBits (widths 0..8 across tiers 4..8).
    auto finite_jobs = planSweep(SchemeKind::PAsFinite, o);
    auto finite_groups = planFusedGroups(finite_jobs);
    EXPECT_EQ(finite_groups.size(), 9u);
    std::size_t covered = 0;
    for (const auto &g : finite_groups) {
        covered += g.jobs.size();
        for (std::size_t idx : g.jobs)
            EXPECT_EQ(finite_jobs[idx].rowBits, g.streamRowBits);
    }
    EXPECT_EQ(covered, finite_jobs.size());
}

TEST(Sweep, OneGroupPerStreamAndShardsFollowThreads)
{
    // The grid's shape: one group per first-level stream whatever the
    // thread count, with min(threads, lanes) lane shards, and every
    // shape bit-identical to the serial sweep.
    PreparedTrace t(sharedWorkload());
    struct Case
    {
        SchemeKind kind;
        bool aliasing;
        unsigned minBits, maxBits;
    };
    const Case cases[] = {
        {SchemeKind::GAs, false, 4, 9},
        {SchemeKind::Gshare, true, 4, 9},
        {SchemeKind::PAsPerfect, false, 4, 9},
        {SchemeKind::Tage, false, 6, 8},
        {SchemeKind::Perceptron, false, 6, 8},
    };
    for (const Case &c : cases) {
        SweepOptions o;
        o.minTotalBits = c.minBits;
        o.maxTotalBits = c.maxBits;
        o.trackAliasing = c.aliasing;
        o.segments = 1;
        const std::size_t lanes = planSweep(c.kind, o).size();
        const SweepResult serial = sweepScheme(t, c.kind, o);
        for (unsigned threads : {1u, 2u, 4u, 8u}) {
            SweepOptions opts = o;
            opts.threads = threads;
            const SweepResult r = sweepScheme(t, c.kind, opts);
            const std::string what = std::string(schemeKindName(c.kind)) +
                                     " threads=" + std::to_string(threads);
            EXPECT_EQ(r.kernel.fusedGroups + r.kernel.modelGroups, 1u)
                << what;
            EXPECT_EQ(r.kernel.laneShards,
                      std::min<std::size_t>(threads, lanes))
                << what;
            expectSurfacesIdentical(serial.misprediction,
                                    r.misprediction, what.c_str());
            expectSurfacesIdentical(serial.aliasing, r.aliasing,
                                    what.c_str());
            expectSurfacesIdentical(serial.harmless, r.harmless,
                                    what.c_str());
        }
    }

    // PAs(bht): one group per distinct row width at every thread count.
    SweepOptions bht;
    bht.minTotalBits = 4;
    bht.maxTotalBits = 7;
    bht.trackAliasing = false;
    bht.bhtEntries = 64;
    std::set<unsigned> widths;
    for (const ConfigJob &job : planSweep(SchemeKind::PAsFinite, bht))
        widths.insert(job.rowBits);
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        bht.threads = threads;
        const SweepResult r = sweepScheme(t, SchemeKind::PAsFinite, bht);
        EXPECT_EQ(r.kernel.fusedGroups, widths.size())
            << "threads=" << threads;
    }
}

TEST(Sweep, ForcedSimdTargetsBitIdenticalThroughSweepScheme)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions base;
    base.minTotalBits = 4;
    base.maxTotalBits = 9;
    base.trackAliasing = false;
    base.bhtEntries = 64;
    base.simd = SimdTarget::Scalar;

    for (SchemeKind kind : {SchemeKind::GAs, SchemeKind::Gshare,
                            SchemeKind::PAsFinite}) {
        SweepResult scalar = sweepScheme(t, kind, base);
        EXPECT_EQ(scalar.kernel.target, SimdTarget::Scalar);
        for (SimdTarget target : supportedSimdTargets()) {
            SweepOptions forced = base;
            forced.simd = target;
            SweepResult r = sweepScheme(t, kind, forced);
            EXPECT_EQ(r.kernel.target, target);
            expectSurfacesIdentical(scalar.misprediction,
                                    r.misprediction,
                                    simdTargetName(target));
            EXPECT_EQ(scalar.bhtMissRate, r.bhtMissRate)
                << simdTargetName(target);
        }
    }
}

TEST(Sweep, KernelTelemetryDescribesFusedExecution)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.minTotalBits = 4;
    o.maxTotalBits = 9;
    o.trackAliasing = false;

    SweepResult r = sweepScheme(t, SchemeKind::GAs, o);
    const std::size_t jobs = planSweep(SchemeKind::GAs, o).size();
    EXPECT_EQ(r.kernel.target, resolveSimdTarget(o.simd));
    EXPECT_EQ(r.kernel.fusedGroups, 1u); // one stream, one thread
    EXPECT_EQ(r.kernel.fallbackJobs, 0u);
    EXPECT_EQ(r.kernel.lanes, jobs);
    EXPECT_EQ(r.kernel.wideLanes, 0u); // paper tiers are all narrow
    EXPECT_GT(r.kernel.laneBatches, 0u);
    // 30k branches in 2 KiB blocks, one decode pass per group.
    EXPECT_EQ(r.kernel.blocksReplayed, (t.size() + 2047) / 2048);
    EXPECT_DOUBLE_EQ(r.kernel.lanesPerGroup(),
                     static_cast<double>(jobs));
    // Narrow lanes read exactly one packed 4-byte record per branch.
    EXPECT_DOUBLE_EQ(r.kernel.hotBytesPerBranch(), 4.0);

    EXPECT_EQ(r.kernel.aliasLanes, 0u);

    // Alias-tracked sweeps run the same fused group; their lanes
    // stream the trace columns themselves instead of packed records.
    SweepOptions aliasing = o;
    aliasing.trackAliasing = true;
    SweepResult ra = sweepScheme(t, SchemeKind::GAs, aliasing);
    EXPECT_EQ(ra.kernel.fusedGroups, 1u);
    EXPECT_EQ(ra.kernel.fallbackJobs, 0u);
    EXPECT_EQ(ra.kernel.lanes, jobs);
    EXPECT_EQ(ra.kernel.aliasLanes, jobs);
    EXPECT_EQ(ra.kernel.laneBatches, 0u);
    EXPECT_DOUBLE_EQ(ra.kernel.hotBytesPerBranch(), 17.0);
}

TEST(Sweep, KernelTelemetryTableCoversEveryMember)
{
    // Every member is set to a distinct value, so a member the
    // telemetry table forgets shows up as an unmerged counter here.
    KernelTelemetry a;
    a.target = SimdTarget::Scalar;
    std::uint64_t next = 1;
    for (std::uint64_t *m :
         {&a.fusedGroups, &a.fallbackJobs, &a.lanes, &a.wideLanes,
          &a.aliasLanes, &a.laneBatches, &a.blocksReplayed, &a.segments,
          &a.laneShards, &a.shardTasks, &a.warmupBranches,
          &a.modelGroups, &a.modelLanes, &a.modelBatches,
          &a.shardWorkers})
        *m = next++;
    a.busySeconds = 0.5;
    a.spanSeconds = 0.25;
    KernelTelemetry b = a;
    b.target = SimdTarget::SSE2;
    b.shardWorkers = 3;

    KernelTelemetry sum = a;
    sum.merge(b);
    EXPECT_EQ(sum.target, SimdTarget::SSE2); // last wins
    EXPECT_EQ(sum.shardWorkers, 15u);        // max of 15 and 3
    EXPECT_EQ(sum.busySeconds, 1.0);
    EXPECT_EQ(sum.spanSeconds, 0.5);
    const std::uint64_t KernelTelemetry::*summed[] = {
        &KernelTelemetry::fusedGroups,    &KernelTelemetry::fallbackJobs,
        &KernelTelemetry::lanes,          &KernelTelemetry::wideLanes,
        &KernelTelemetry::aliasLanes,     &KernelTelemetry::laneBatches,
        &KernelTelemetry::blocksReplayed, &KernelTelemetry::segments,
        &KernelTelemetry::laneShards,     &KernelTelemetry::shardTasks,
        &KernelTelemetry::warmupBranches, &KernelTelemetry::modelGroups,
        &KernelTelemetry::modelLanes,     &KernelTelemetry::modelBatches,
    };
    for (auto m : summed)
        EXPECT_EQ(sum.*m, 2 * (a.*m));

    // The table: 18 members then 6 derived ratios, each key once.
    std::set<std::string> keys;
    std::size_t members = 0;
    KernelTelemetry::forEachField(
        [&](const char *key, auto, KernelTelemetry::Merge rule) {
            EXPECT_TRUE(keys.insert(key).second) << key;
            members += rule != KernelTelemetry::Merge::Derived;
        });
    EXPECT_EQ(keys.size(), 24u);
    EXPECT_EQ(members, 18u);
}

TEST(Sweep, SweepAgreesWithSimulateConfig)
{
    PreparedTrace t(sharedWorkload());
    SweepOptions o;
    o.minTotalBits = 8;
    o.maxTotalBits = 8;
    SweepResult r = sweepScheme(t, SchemeKind::Gshare, o);
    for (unsigned rbits = 0; rbits <= 8; ++rbits) {
        ConfigResult single =
            simulateConfig(t, SchemeKind::Gshare, rbits, 8 - rbits, o);
        auto from_sweep = r.misprediction.at(8, rbits);
        ASSERT_TRUE(from_sweep.has_value());
        EXPECT_NEAR(*from_sweep, single.mispRate, 1e-12)
            << "rows 2^" << rbits;
    }
}
