/**
 * @file
 * Differential verification of the fused single-pass sweep kernel:
 * for fuzzed sets of (tier, split) configurations across all seven
 * sweep schemes, the fused packed-counter kernel must agree bit-exactly
 * with the naive reference model on every misprediction rate, and its
 * alias lanes with the online predictor (makePredictor with aliasing
 * tracked, the same AliasTracker fed branch by branch) on every
 * aliasing rate and harmless fraction.
 *
 * This is the sweep-group-shaped complement of the per-pair fused
 * cross-check inside runDifferentialFuzzer (which the tier-1 campaign
 * in test_differential_fuzz.cc runs): here whole mixed-tier job lists
 * go through planFusedGroups/runFusedGroups exactly as sweepScheme
 * dispatches them.
 *
 * The SweepAliasLanes suite at the bottom pins the alias lanes under
 * every SIMD target, lane shard count and segment request (alias
 * groups always replay exactly) and through one-lane simulateConfig
 * probes.  Its name is load-bearing: the tsan preset's "Sweep" filter
 * selects it, so sharded alias groups run under the race detector.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "predictor/bht.hh"
#include "predictor/factory.hh"
#include "predictor/two_level.hh"
#include "sim/engine.hh"
#include "sim/sweep.hh"
#include "verify/differential.hh"
#include "workload/synthetic.hh"

using namespace bpsim;
using namespace bpsim::verify;

namespace {

constexpr SchemeKind allKinds[] = {
    SchemeKind::AddressIndexed, SchemeKind::GAg,
    SchemeKind::GAs,            SchemeKind::Gshare,
    SchemeKind::Path,           SchemeKind::PAsPerfect,
    SchemeKind::PAsFinite,
};

MemoryTrace
fuzzTrace(std::uint64_t seed, std::uint64_t conditionals)
{
    WorkloadParams p;
    p.name = "fused-diff-" + std::to_string(seed);
    p.seed = seed;
    p.staticBranches = 80;
    p.functionCount = 8;
    p.targetConditionals = conditionals;
    return generateTrace(p);
}

/** A job's reference-model twin under the given sweep options. */
RefConfig
refConfigFor(const ConfigJob &job, const SweepOptions &opts)
{
    RefConfig config;
    switch (job.kind) {
      case SchemeKind::AddressIndexed:
        config.scheme = RefScheme::AddressIndexed;
        break;
      case SchemeKind::GAg: config.scheme = RefScheme::GAg; break;
      case SchemeKind::GAs: config.scheme = RefScheme::GAs; break;
      case SchemeKind::Gshare: config.scheme = RefScheme::Gshare; break;
      case SchemeKind::Path: config.scheme = RefScheme::Path; break;
      case SchemeKind::PAsPerfect:
        config.scheme = RefScheme::PAsPerfect;
        break;
      case SchemeKind::PAsFinite:
        config.scheme = RefScheme::PAsFinite;
        break;
      case SchemeKind::Tage: config.scheme = RefScheme::Tage; break;
      case SchemeKind::Perceptron:
        config.scheme = RefScheme::Perceptron;
        break;
    }
    config.rowBits = job.rowBits;
    config.colBits = job.colBits;
    config.pathBitsPerTarget = opts.pathBitsPerTarget;
    config.bhtEntries = opts.bhtEntries;
    config.bhtAssoc = opts.bhtAssoc;
    config.tagBits = opts.tageTagBits;
    config.tageHistories = opts.tageHistories;
    config.perceptronTables = opts.perceptronTables;
    return config;
}

/** Run @p jobs through planFusedGroups/runFusedGroups. */
std::vector<ConfigResult>
runFused(const PreparedTrace &t, const std::vector<ConfigJob> &jobs,
         const SweepOptions &opts, unsigned threads)
{
    SweepOptions grid = opts;
    grid.threads = threads;
    std::vector<ConfigResult> slots(jobs.size());
    runFusedGroups(t, grid, planFusedGroups(jobs), jobs, slots.data());
    return slots;
}

/**
 * The first-level miss rate of an online BHT at @p job's row width
 * (negative for schemes without a finite first level).
 */
double
onlineBhtMissRate(const PreparedTrace &t, const ConfigJob &job,
                  const SweepOptions &opts)
{
    if (job.kind != SchemeKind::PAsFinite)
        return -1.0;
    SetAssocBht bht(opts.bhtEntries, opts.bhtAssoc, job.rowBits,
                    opts.bhtResetPolicy);
    for (std::size_t i = 0; i < t.size(); ++i) {
        bht.visit(t.pc(i));
        bht.recordOutcome(t.pc(i), t.taken(i));
    }
    return bht.missRate();
}

/**
 * Aliasing rate and harmless fraction of the online predictor for
 * @p job, built from its factory spec with aliasing tracked.
 */
std::pair<double, double>
onlineAliasing(const ConfigJob &job, const SweepOptions &opts,
               MemoryTrace &trace)
{
    auto online =
        makePredictor(engineSpec(refConfigFor(job, opts)), true);
    trace.reset();
    runPredictor(trace, *online);
    const AliasTracker *alias =
        dynamic_cast<TwoLevelPredictor &>(*online).pht().aliasStats();
    EXPECT_NE(alias, nullptr);
    if (!alias)
        return {0.0, 0.0};
    return {alias->aliasRate(), alias->harmlessFraction()};
}

/** One configuration's expected numbers, from the two oracles. */
struct Truth
{
    double mispRate = 0.0;
    double aliasRate = 0.0;
    double harmlessFraction = 0.0;
};

Truth
truthFor(const ConfigJob &job, const SweepOptions &opts,
         MemoryTrace &trace)
{
    Truth truth;
    truth.mispRate = referenceMispRate(refConfigFor(job, opts), trace);
    std::tie(truth.aliasRate, truth.harmlessFraction) =
        onlineAliasing(job, opts, trace);
    return truth;
}

/** Every point of @p r (and its plan) held to @p truth, exactly. */
void
expectSweepMatchesTruth(const SweepResult &r,
                        const std::vector<ConfigJob> &jobs,
                        const std::vector<Truth> &truth,
                        const std::string &what)
{
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const ConfigJob &job = jobs[j];
        EXPECT_EQ(*r.misprediction.at(job.totalBits, job.rowBits),
                  truth[j].mispRate)
            << what << " r=" << job.rowBits << " c=" << job.colBits;
        EXPECT_EQ(*r.aliasing.at(job.totalBits, job.rowBits),
                  truth[j].aliasRate)
            << what << " r=" << job.rowBits << " c=" << job.colBits;
        EXPECT_EQ(*r.harmless.at(job.totalBits, job.rowBits),
                  truth[j].harmlessFraction)
            << what << " r=" << job.rowBits << " c=" << job.colBits;
    }
}

/** A fuzzed split of @p total bits that @p kind can express. */
ConfigJob
fuzzJob(SchemeKind kind, unsigned total, Pcg32 &rng)
{
    unsigned r = rng.nextBounded(total + 1);
    if (kind == SchemeKind::AddressIndexed)
        r = 0;
    if (kind == SchemeKind::GAg)
        r = total;
    return ConfigJob{kind, total, r, total - r};
}

} // namespace

TEST(FusedKernelDifferential,
     FuzzedGroupsAgreeWithReferenceAndOnlinePredictors)
{
    // Fuzzed mixed-tier job lists for every scheme, alias lanes on:
    // each slot's misprediction rate must equal the reference model's
    // and its aliasing/harmless numbers the online predictor's.
    Pcg32 rng(0xF05ED0BAULL, 11);
    for (int round = 0; round < 10; ++round) {
        const SchemeKind kind = allKinds[rng.nextBounded(7)];
        MemoryTrace trace =
            fuzzTrace(1000 + round, 2000 + rng.nextBounded(3000));
        PreparedTrace prepared(trace);

        SweepOptions opts;
        opts.trackAliasing = true;
        opts.bhtEntries = 32u << rng.nextBounded(3);
        opts.bhtAssoc = rng.nextBounded(2) ? 4 : 2;

        // A fuzzed (tier, split) set: random tiers 4..9, random
        // splits, duplicates of row width across tiers included.
        std::vector<ConfigJob> jobs;
        const std::size_t count = 3 + rng.nextBounded(6);
        for (std::size_t j = 0; j < count; ++j)
            jobs.push_back(fuzzJob(kind, 4 + rng.nextBounded(6), rng));

        const unsigned threads = 1 + rng.nextBounded(3);
        std::vector<ConfigResult> fused =
            runFused(prepared, jobs, opts, threads);

        for (std::size_t j = 0; j < jobs.size(); ++j) {
            EXPECT_EQ(fused[j].mispRate,
                      referenceMispRate(refConfigFor(jobs[j], opts),
                                        trace))
                << schemeKindName(kind) << " r=" << jobs[j].rowBits
                << " c=" << jobs[j].colBits << " round " << round;
            const auto [alias, harmless] =
                onlineAliasing(jobs[j], opts, trace);
            EXPECT_EQ(fused[j].aliasRate, alias)
                << schemeKindName(kind) << " round " << round;
            EXPECT_EQ(fused[j].harmlessFraction, harmless)
                << schemeKindName(kind) << " round " << round;
            EXPECT_EQ(fused[j].bhtMissRate,
                      onlineBhtMissRate(prepared, jobs[j], opts))
                << schemeKindName(kind) << " round " << round;
        }
    }
}

TEST(FusedKernelDifferential, AllSchemesAgreeWithReferenceModel)
{
    // Close the triangle: fused kernel vs the naive reference model,
    // exact equality, on a fuzzed split per scheme per tier.
    Pcg32 rng(0xD1FF05EDULL, 3);
    MemoryTrace trace = fuzzTrace(77, 2500);
    PreparedTrace prepared(trace);

    for (SchemeKind kind : allKinds) {
        SweepOptions opts;
        opts.trackAliasing = false;
        opts.bhtEntries = 64;
        opts.bhtAssoc = 4;

        std::vector<ConfigJob> jobs;
        for (unsigned total : {4u, 6u, 8u}) {
            unsigned r = rng.nextBounded(total + 1);
            if (kind == SchemeKind::AddressIndexed)
                r = 0;
            if (kind == SchemeKind::GAg)
                r = total;
            jobs.push_back(ConfigJob{kind, total, r, total - r});
        }

        std::vector<ConfigResult> fused =
            runFused(prepared, jobs, opts, 1);
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const double reference =
                referenceMispRate(refConfigFor(jobs[j], opts), trace);
            EXPECT_EQ(fused[j].mispRate, reference)
                << schemeKindName(kind) << " r=" << jobs[j].rowBits
                << " c=" << jobs[j].colBits;
        }
    }
}

TEST(FusedKernelDifferential, ForcedDispatchTargetsBitIdentical)
{
    // The SIMD dispatch campaign: >= 100 fuzzed group configurations,
    // each executed under EVERY dispatch target this host supports
    // (scalar always; SSE2/AVX-512 when available), with every target
    // held to exact equality against the naive reference model on
    // every job, and every target's alias lanes (on in half the
    // rounds) and BHT miss rates against the scalar target's.
    const std::vector<SimdTarget> targets = supportedSimdTargets();
    ASSERT_GE(targets.size(), 1u);
    ASSERT_EQ(targets.front(), SimdTarget::Scalar);

    Pcg32 rng(0x51D0F05EULL, 17);
    std::size_t configs_checked = 0;
    for (int round = 0; configs_checked < 100; ++round) {
        ASSERT_LT(round, 64) << "fuzzer failed to reach 100 configs";
        const SchemeKind kind = allKinds[rng.nextBounded(7)];
        MemoryTrace trace =
            fuzzTrace(4000 + round, 1500 + rng.nextBounded(2500));
        PreparedTrace prepared(trace);

        SweepOptions opts;
        opts.trackAliasing = (round & 1) != 0;
        opts.bhtEntries = 32u << rng.nextBounded(3);
        opts.bhtAssoc = rng.nextBounded(2) ? 4 : 2;

        std::vector<ConfigJob> jobs;
        const std::size_t count = 4 + rng.nextBounded(5);
        for (std::size_t j = 0; j < count; ++j)
            jobs.push_back(fuzzJob(kind, 4 + rng.nextBounded(7), rng));

        std::vector<double> reference(jobs.size());
        for (std::size_t j = 0; j < jobs.size(); ++j)
            reference[j] =
                referenceMispRate(refConfigFor(jobs[j], opts), trace);

        std::vector<ConfigResult> scalar;
        for (SimdTarget target : targets) {
            SweepOptions forced = opts;
            forced.simd = target;
            std::vector<ConfigResult> fused =
                runFused(prepared, jobs, forced,
                         1 + rng.nextBounded(2));
            if (target == SimdTarget::Scalar)
                scalar = fused;
            for (std::size_t j = 0; j < jobs.size(); ++j) {
                EXPECT_EQ(fused[j].mispRate, reference[j])
                    << simdTargetName(target) << " "
                    << schemeKindName(kind) << " r=" << jobs[j].rowBits
                    << " c=" << jobs[j].colBits << " round " << round;
                EXPECT_EQ(fused[j].aliasRate, scalar[j].aliasRate)
                    << simdTargetName(target) << " round " << round;
                EXPECT_EQ(fused[j].harmlessFraction,
                          scalar[j].harmlessFraction)
                    << simdTargetName(target) << " round " << round;
                EXPECT_EQ(fused[j].bhtMissRate, scalar[j].bhtMissRate)
                    << simdTargetName(target) << " round " << round;
            }
        }
        configs_checked += jobs.size();
    }
    EXPECT_GE(configs_checked, 100u);
}

TEST(FusedKernelDifferential, WholeSweepTriangleOnCoreSchemes)
{
    // sweepScheme end to end with alias lanes on: every surface point
    // against the reference model (misprediction) and the online
    // predictor (aliasing, harmless fraction).
    MemoryTrace trace = fuzzTrace(5, 4000);
    PreparedTrace prepared(trace);

    for (SchemeKind kind : allKinds) {
        SweepOptions o;
        o.minTotalBits = 4;
        o.maxTotalBits = 7;
        o.trackAliasing = true;
        o.bhtEntries = 64;

        SweepResult r = sweepScheme(prepared, kind, o);
        for (const ConfigJob &job : planSweep(kind, o)) {
            EXPECT_EQ(*r.misprediction.at(job.totalBits, job.rowBits),
                      referenceMispRate(refConfigFor(job, o), trace))
                << schemeKindName(kind) << " r=" << job.rowBits
                << " c=" << job.colBits;
            const auto [alias, harmless] =
                onlineAliasing(job, o, trace);
            EXPECT_EQ(*r.aliasing.at(job.totalBits, job.rowBits), alias)
                << schemeKindName(kind) << " r=" << job.rowBits;
            EXPECT_EQ(*r.harmless.at(job.totalBits, job.rowBits),
                      harmless)
                << schemeKindName(kind) << " r=" << job.rowBits;
        }
    }
}

TEST(SweepAliasLanes, FuzzedSweepsMatchReferenceAndOnlinePredictors)
{
    const std::vector<SimdTarget> targets = supportedSimdTargets();
    Pcg32 rng(0xA11A5E5ULL, 23);
    for (int round = 0; round < 14; ++round) {
        const SchemeKind kind = allKinds[round % 7];
        MemoryTrace trace =
            fuzzTrace(9100 + round, 1500 + rng.nextBounded(2000));
        PreparedTrace prepared(trace);

        SweepOptions opts;
        opts.trackAliasing = true;
        opts.minTotalBits = 3 + rng.nextBounded(3);
        opts.maxTotalBits = opts.minTotalBits + 1 + rng.nextBounded(2);
        opts.pathBitsPerTarget = 1 + rng.nextBounded(3);
        opts.bhtEntries = 16u << rng.nextBounded(3);
        opts.bhtAssoc = 1u << rng.nextBounded(3);

        const std::vector<ConfigJob> jobs = planSweep(kind, opts);
        std::vector<Truth> truth;
        for (const ConfigJob &job : jobs)
            truth.push_back(truthFor(job, opts, trace));

        const std::string name = schemeKindName(kind);
        for (SimdTarget target : targets) {
            for (unsigned threads : {1u, 3u}) {
                for (unsigned segments : {1u, 4u}) {
                    SweepOptions o = opts;
                    o.simd = target;
                    o.threads = threads;
                    o.segments = segments;
                    const SweepResult r = sweepScheme(prepared, kind, o);
                    const std::string what =
                        name + " " + simdTargetName(target) +
                        " threads=" + std::to_string(threads) +
                        " segments=" + std::to_string(segments) +
                        " round " + std::to_string(round);
                    expectSweepMatchesTruth(r, jobs, truth, what);
                    EXPECT_EQ(r.kernel.fallbackJobs, 0u) << what;
                    EXPECT_GT(r.kernel.fusedGroups, 0u) << what;
                    EXPECT_EQ(r.kernel.aliasLanes, jobs.size()) << what;
                    // Alias groups replay exactly whatever is asked.
                    EXPECT_EQ(r.kernel.segmentsPerGroup(), 1.0) << what;
                    EXPECT_EQ(r.kernel.warmupBranches, 0u) << what;
                }
            }
        }

        // The one-lane probe goes through the same replay.
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const ConfigResult one = simulateConfig(
                prepared, kind, jobs[j].rowBits, jobs[j].colBits, opts);
            EXPECT_EQ(one.mispRate, truth[j].mispRate) << name;
            EXPECT_EQ(one.aliasRate, truth[j].aliasRate) << name;
            EXPECT_EQ(one.harmlessFraction, truth[j].harmlessFraction)
                << name;
        }
    }
}

TEST(SweepAliasLanes, GshareHarmlessKeysOnHistoryNotRow)
{
    // Two always-taken branches whose word indices (1 and 17) agree in
    // their low four bits: in a gshare:4:0 table they collide on every
    // access once the history saturates to all ones, so nearly every
    // conflict is harmless -- keyed on the all-ones *history*.  The
    // hashed row (history ^ word index = 0b1110) is never all ones, so
    // a row-keyed classification would report no harmless conflicts.
    MemoryTrace trace("gshare-harmless");
    for (int i = 0; i < 400; ++i) {
        BranchRecord rec;
        rec.pc = (i % 2 == 0) ? 4 : 68;
        rec.target = rec.pc + 64;
        rec.type = BranchType::Conditional;
        rec.taken = true;
        trace.append(rec);
    }
    PreparedTrace prepared(trace);

    SweepOptions opts;
    opts.trackAliasing = true;
    opts.minTotalBits = 4;
    opts.maxTotalBits = 4;
    const ConfigJob job{SchemeKind::Gshare, 4, 4, 0};
    const Truth truth = truthFor(job, opts, trace);
    EXPECT_GT(truth.harmlessFraction, 0.95);

    for (SimdTarget target : supportedSimdTargets()) {
        SweepOptions o = opts;
        o.simd = target;
        const SweepResult r =
            sweepScheme(prepared, SchemeKind::Gshare, o);
        EXPECT_EQ(*r.aliasing.at(4, 4), truth.aliasRate)
            << simdTargetName(target);
        EXPECT_EQ(*r.harmless.at(4, 4), truth.harmlessFraction)
            << simdTargetName(target);
    }
    const ConfigResult one =
        simulateConfig(prepared, SchemeKind::Gshare, 4, 0, opts);
    EXPECT_EQ(one.harmlessFraction, truth.harmlessFraction);
}

TEST(SweepAliasLanes, WideLanesTrackAliasingToo)
{
    // Configurations past the packed-record limits (16-bit columns)
    // take the 64-bit wide loop; their alias lanes must agree with the
    // online predictor exactly like the narrow ones.
    MemoryTrace trace = fuzzTrace(9300, 2500);
    PreparedTrace prepared(trace);
    SweepOptions opts;
    opts.trackAliasing = true;
    for (SchemeKind kind : {SchemeKind::GAs, SchemeKind::Gshare,
                            SchemeKind::PAsPerfect}) {
        const ConfigJob job{kind, 18, 2, 16};
        const Truth truth = truthFor(job, opts, trace);
        const ConfigResult one =
            simulateConfig(prepared, kind, 2, 16, opts);
        EXPECT_EQ(one.mispRate, truth.mispRate) << schemeKindName(kind);
        EXPECT_EQ(one.aliasRate, truth.aliasRate)
            << schemeKindName(kind);
        EXPECT_EQ(one.harmlessFraction, truth.harmlessFraction)
            << schemeKindName(kind);
    }
}
