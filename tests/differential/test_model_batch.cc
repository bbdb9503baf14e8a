/**
 * @file
 * Differential verification of the batched model-lane replay
 * (replayModelLanes in sweep.cc): a model group stepping the whole
 * TAGE/perceptron zoo in one trace pass must agree exactly, per
 * configuration, with the naive reference mirrors
 * (verify/reference_model.cc) and with its own one-lane replay
 * (simulateConfig), for every SIMD dispatch target, thread count and
 * fuzzed group composition; speculative segments must be
 * deterministic with a bounded epsilon and exact under a covering
 * warm-up.
 *
 * The suite name is load-bearing: the tsan preset runs
 * "...|SegmentParallel|TageZoo|PerceptronZoo|ModelBatch", so the
 * shards x segments task grid and the shared per-task key blocks are
 * replayed under the race detector.  The long campaign at the bottom
 * additionally needs BPSIM_SLOW_TESTS=1 (the executable carries the
 * `zoo` ctest label).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/packed_pht.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "sim/sweep.hh"
#include "verify/differential.hh"
#include "workload/synthetic.hh"

using namespace bpsim;
using namespace bpsim::verify;

namespace {

constexpr SchemeKind kZooKinds[] = {SchemeKind::Tage,
                                    SchemeKind::Perceptron};

/** Valid strictly-ascending history ladders (TageParams::validate). */
const std::vector<unsigned> kHistoryVariants[] = {
    {4, 8, 16, 32},
    {2, 5, 11, 23},
    {3, 9, 27},
    {6},
    {1, 2, 4, 8, 16, 32, 48, 64},
};
constexpr std::size_t kHistoryVariantCount =
    sizeof(kHistoryVariants) / sizeof(kHistoryVariants[0]);

MemoryTrace
fuzzTrace(std::uint64_t seed, std::uint64_t conditionals)
{
    WorkloadParams p;
    p.name = "modelbatch-diff-" + std::to_string(seed);
    p.seed = seed;
    p.staticBranches = 90;
    p.functionCount = 9;
    p.targetConditionals = conditionals;
    return generateTrace(p);
}

/** Fuzz the zoo knobs that select model geometry. */
void
fuzzZooKnobs(SweepOptions &opts, Pcg32 &rng)
{
    opts.tageTagBits = 5 + rng.nextBounded(6); // 5..10
    opts.tageHistories =
        kHistoryVariants[rng.nextBounded(kHistoryVariantCount)];
    opts.perceptronTables = 2 + rng.nextBounded(4); // 2..5
}

/** A valid fuzzed zoo split for @p kind at @p total bits. */
ConfigJob
fuzzZooJob(SchemeKind kind, unsigned total, Pcg32 &rng)
{
    unsigned r;
    if (kind == SchemeKind::Tage) {
        // entryBits >= 1 AND baseBits >= 1.
        r = 1 + rng.nextBounded(total - 1);
    } else {
        // historyBits in 1..total; entryBits 0 is a legal point.
        r = 1 + rng.nextBounded(total);
    }
    return ConfigJob{kind, total, r, total - r};
}

/** A zoo job's naive reference-model twin under @p opts. */
RefConfig
refConfigFor(const ConfigJob &job, const SweepOptions &opts)
{
    RefConfig config;
    config.scheme = job.kind == SchemeKind::Tage
                        ? RefScheme::Tage
                        : RefScheme::Perceptron;
    config.rowBits = job.rowBits;
    config.colBits = job.colBits;
    config.tagBits = opts.tageTagBits;
    config.tageHistories = opts.tageHistories;
    config.perceptronTables = opts.perceptronTables;
    return config;
}

/** Run @p jobs through planFusedGroups/runFusedGroups. */
std::vector<ConfigResult>
runGroups(const PreparedTrace &t, const std::vector<ConfigJob> &jobs,
          const SweepOptions &opts)
{
    std::vector<ConfigResult> slots(jobs.size());
    runFusedGroups(t, opts, planFusedGroups(jobs), jobs, slots.data());
    return slots;
}

/** Exact equality on every surface point (bit-identity contract). */
void
expectSurfacesIdentical(const SweepResult &a, const SweepResult &b,
                        const char *what)
{
    ASSERT_EQ(a.misprediction.tiers().size(),
              b.misprediction.tiers().size())
        << what;
    for (std::size_t t = 0; t < a.misprediction.tiers().size(); ++t) {
        const SurfaceTier &ta = a.misprediction.tiers()[t];
        const SurfaceTier &tb = b.misprediction.tiers()[t];
        ASSERT_EQ(ta.points.size(), tb.points.size()) << what;
        for (std::size_t p = 0; p < ta.points.size(); ++p) {
            ASSERT_EQ(ta.points[p].rowBits, tb.points[p].rowBits);
            ASSERT_EQ(ta.points[p].value, tb.points[p].value)
                << what << ": tier " << ta.totalBits << " row "
                << ta.points[p].rowBits;
        }
    }
    ASSERT_EQ(a.bhtMissRate, b.bhtMissRate) << what;
}

std::size_t
pointCount(const SweepResult &r)
{
    std::size_t n = 0;
    for (const SurfaceTier &tier : r.misprediction.tiers())
        n += tier.points.size();
    return n;
}

/** Largest per-point |delta| between two sweeps of the same plan. */
double
maxPointDelta(const SweepResult &a, const SweepResult &b)
{
    double worst = 0.0;
    for (std::size_t t = 0; t < a.misprediction.tiers().size(); ++t) {
        const SurfaceTier &ta = a.misprediction.tiers()[t];
        const SurfaceTier &tb = b.misprediction.tiers()[t];
        for (std::size_t p = 0; p < ta.points.size(); ++p)
            worst = std::max(worst, std::abs(ta.points[p].value -
                                             tb.points[p].value));
    }
    return worst;
}

/**
 * One fuzzed group composition: a job list executed through the
 * model-group path under (target, threads), every slot held
 * to exact equality against its configuration's reference mirror
 * (misprediction) and one-lane replay (aliasing surfaces, which the
 * zoo leaves at zero).
 */
void
checkComposition(const MemoryTrace &trace,
                 const PreparedTrace &prepared,
                 const std::vector<ConfigJob> &jobs,
                 const SweepOptions &base, SimdTarget target,
                 unsigned threads, int round)
{
    SweepOptions opts = base;
    opts.simd = target;
    opts.threads = threads;
    std::vector<ConfigResult> batched = runGroups(prepared, jobs, opts);

    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const ConfigResult expected =
            simulateConfig(prepared, jobs[j].kind, jobs[j].rowBits,
                           jobs[j].colBits, base);
        EXPECT_EQ(batched[j].mispRate,
                  referenceMispRate(refConfigFor(jobs[j], base), trace))
            << schemeKindName(jobs[j].kind) << " r=" << jobs[j].rowBits
            << " c=" << jobs[j].colBits << " "
            << simdTargetName(target) << " threads=" << threads
            << " round " << round;
        EXPECT_EQ(batched[j].aliasRate, expected.aliasRate);
        EXPECT_EQ(batched[j].harmlessFraction,
                  expected.harmlessFraction);
    }
}

} // namespace

TEST(ModelBatchDifferential, BatchedSweepBitIdenticalToPerConfig)
{
    // The batching invariant at sweep granularity: for fuzzed zoo
    // knobs, a serial scalar batched sweep must match every
    // configuration's reference mirror exactly, and every other
    // shape -- each SIMD target, any lane shard count, with or
    // without outer group parallelism -- must reproduce it bit for
    // bit.  >= 100 configurations accumulate across rounds.
    Pcg32 rng(0x300DE1B5ULL, 17);
    std::size_t configs_checked = 0;
    for (int round = 0; round < 6; ++round) {
        const SchemeKind kind = kZooKinds[round & 1];
        MemoryTrace trace =
            fuzzTrace(6100 + round, 6000 + rng.nextBounded(6000));
        PreparedTrace prepared(trace);

        SweepOptions base;
        base.minTotalBits = 5 + rng.nextBounded(2);
        base.maxTotalBits = base.minTotalBits + 2 + rng.nextBounded(2);
        fuzzZooKnobs(base, rng);

        SweepOptions scalar = base;
        scalar.simd = SimdTarget::Scalar;
        const SweepResult serial = sweepScheme(prepared, kind, scalar);
        for (const SurfaceTier &tier : serial.misprediction.tiers()) {
            for (const SurfacePoint &pt : tier.points) {
                const ConfigJob job{kind, tier.totalBits, pt.rowBits,
                                    pt.colBits};
                EXPECT_EQ(pt.value, referenceMispRate(
                                        refConfigFor(job, base), trace))
                    << schemeKindName(kind) << " r=" << pt.rowBits
                    << " c=" << pt.colBits << " round " << round;
            }
        }
        configs_checked += pointCount(serial);

        for (SimdTarget target : supportedSimdTargets()) {
            for (unsigned threads : {2u, 3u, 8u, 0u}) {
                SweepOptions opts = base;
                opts.simd = target;
                opts.threads = threads;
                const SweepResult batched =
                    sweepScheme(prepared, kind, opts);
                expectSurfacesIdentical(serial, batched,
                                        simdTargetName(target));
            }
        }
    }
    EXPECT_GE(configs_checked, 100u);
}

TEST(ModelBatchDifferential, FuzzedGroupCompositionsAgreeWithPerConfig)
{
    // >= 100 fuzzed group compositions through the raw
    // planFusedGroups/runFusedGroups route: mixed tiers, duplicate
    // lanes, fuzzed model geometry, a random dispatch target and
    // thread (shard) count per composition.  Sorting lanes into
    // entry-width classes, lane sharding and the shared key blocks
    // must never leak between lanes.
    Pcg32 rng(0xBA7C4ED5ULL, 11);

    std::vector<MemoryTrace> traces;
    std::vector<std::unique_ptr<PreparedTrace>> prepared;
    for (int i = 0; i < 5; ++i) {
        traces.push_back(
            fuzzTrace(6200 + i, 1500 + rng.nextBounded(2000)));
        prepared.push_back(
            std::make_unique<PreparedTrace>(traces.back()));
    }

    const std::vector<SimdTarget> targets = supportedSimdTargets();
    std::size_t compositions = 0;
    for (int round = 0; round < 100; ++round) {
        const SchemeKind kind = kZooKinds[rng.nextBounded(2)];
        const std::size_t trace_idx = rng.nextBounded(5);
        const PreparedTrace &t = *prepared[trace_idx];

        SweepOptions opts;
        fuzzZooKnobs(opts, rng);

        std::vector<ConfigJob> jobs;
        const std::size_t count = 3 + rng.nextBounded(6);
        for (std::size_t j = 0; j < count; ++j)
            jobs.push_back(
                fuzzZooJob(kind, 5 + rng.nextBounded(5), rng));

        const SimdTarget target =
            targets[rng.nextBounded(targets.size())];
        const unsigned threads = 1 + rng.nextBounded(8);
        checkComposition(traces[trace_idx], t, jobs, opts, target,
                         threads, round);
        ++compositions;
    }
    EXPECT_GE(compositions, 100u);
}

TEST(ModelBatchDifferential, BatchedReplayAgreesWithReferenceMirrors)
{
    // Close the triangle: the batched sweep against the naive
    // reference mirrors (verify/reference_model.cc), exact equality on
    // every surface point, for default and non-default model geometry.
    MemoryTrace trace = fuzzTrace(6303, 2500);
    PreparedTrace prepared(trace);

    for (int variant = 0; variant < 2; ++variant) {
        SweepOptions opts;
        opts.minTotalBits = 5;
        opts.maxTotalBits = 7;
        if (variant == 1) {
            opts.tageTagBits = 6;
            opts.tageHistories = {2, 5, 11};
            opts.perceptronTables = 3;
        }

        for (SchemeKind kind : kZooKinds) {
            const SweepResult batched =
                sweepScheme(prepared, kind, opts);
            ASSERT_GT(batched.kernel.modelGroups, 0u);
            for (const SurfaceTier &tier :
                 batched.misprediction.tiers()) {
                for (const SurfacePoint &pt : tier.points) {
                    ConfigJob job{kind, tier.totalBits, pt.rowBits,
                                  tier.totalBits - pt.rowBits};
                    const double reference = referenceMispRate(
                        refConfigFor(job, opts), trace);
                    EXPECT_EQ(pt.value, reference)
                        << schemeKindName(kind) << " r=" << pt.rowBits
                        << " c=" << job.colBits << " variant "
                        << variant;
                }
            }
        }
    }
}

TEST(ModelBatchDifferential, PerceptronKernelTargetsMatchScalar)
{
    // The SIMD kernel in isolation: replayPerceptronBatch on every
    // supported target must leave bit-identical weight banks
    // (gather-slack padding included -- it is read-only by contract)
    // and miss counts against the scalar kernel, for fuzzed lane
    // counts, table counts, per-lane entry widths, weights and
    // outcomes.
    const std::vector<SimdTarget> targets = supportedSimdTargets();
    Pcg32 rng(0x9E2CE974ULL, 7);

    for (int round = 0; round < 40; ++round) {
        const unsigned lanes =
            1 + rng.nextBounded(PerceptronBatch::kMaxLanes);
        const unsigned tables = 2 + rng.nextBounded(7); // 2..8
        const std::size_t n = 64 + rng.nextBounded(512);

        std::vector<unsigned> eb(lanes);
        std::vector<std::vector<std::int8_t>> init(lanes);
        std::vector<std::int32_t> theta(lanes);
        for (unsigned l = 0; l < lanes; ++l) {
            eb[l] = rng.nextBounded(7); // 0..6
            init[l].resize((std::size_t{tables} << eb[l]) +
                           PackedPht::kGatherSlack);
            for (std::size_t b = 0; b < init[l].size(); ++b)
                init[l][b] = static_cast<std::int8_t>(
                    static_cast<int>(rng.nextBounded(128)) - 64);
            const unsigned h = 1 + rng.nextBounded(40);
            theta[l] =
                static_cast<std::int32_t>((193u * h) / 100u + 14);
        }

        // Pre-offset index layout: (t << entryBits_l) + tableIndex at
        // stride kMaxLanes, exactly as the sweep engine fills it.
        std::vector<std::uint32_t> idx(
            n * tables * PerceptronBatch::kMaxLanes, 0);
        std::vector<std::uint8_t> taken(n);
        for (std::size_t i = 0; i < n; ++i) {
            taken[i] = static_cast<std::uint8_t>(rng.nextBounded(2));
            for (unsigned t = 0; t < tables; ++t)
                for (unsigned l = 0; l < lanes; ++l)
                    idx[(i * tables + t) *
                            PerceptronBatch::kMaxLanes +
                        l] = (t << eb[l]) +
                             rng.nextBounded(1u << eb[l]);
        }

        const auto replay_on = [&](SimdTarget target,
                                   std::vector<std::vector<
                                       std::int8_t>> &banks,
                                   std::uint64_t *misses) {
            PerceptronBatch batch;
            batch.lanes = lanes;
            batch.tables = tables;
            for (unsigned l = 0; l < lanes; ++l) {
                banks[l] = init[l];
                batch.weights[l] = banks[l].data();
                batch.theta[l] = theta[l];
            }
            replayPerceptronBatch(target, idx.data(), taken.data(), n,
                                  batch);
            for (unsigned l = 0; l < lanes; ++l)
                misses[l] = batch.misses[l];
        };

        std::vector<std::vector<std::int8_t>> truth_banks(lanes);
        std::uint64_t truth_misses[PerceptronBatch::kMaxLanes] = {};
        replay_on(SimdTarget::Scalar, truth_banks, truth_misses);

        for (SimdTarget target : targets) {
            if (target == SimdTarget::Scalar)
                continue;
            std::vector<std::vector<std::int8_t>> banks(lanes);
            std::uint64_t misses[PerceptronBatch::kMaxLanes] = {};
            replay_on(target, banks, misses);
            for (unsigned l = 0; l < lanes; ++l) {
                EXPECT_EQ(misses[l], truth_misses[l])
                    << simdTargetName(target) << " lane " << l
                    << " lanes=" << lanes << " tables=" << tables
                    << " eb=" << eb[l] << " round " << round;
                EXPECT_EQ(std::memcmp(banks[l].data(),
                                      truth_banks[l].data(),
                                      banks[l].size()),
                          0)
                    << simdTargetName(target) << " lane " << l
                    << " bank diverged, round " << round;
            }
        }
    }
}

TEST(ModelBatchDifferential, SpeculativeEpsilonBoundedAndDeterministic)
{
    // Speculative segments now apply to model groups too.  The zoo's
    // warm-up epsilon is larger than the 2-bit family's (TAGE useful
    // counters and perceptron weights converge more slowly than
    // 2-bit counters -- see EXPERIMENTS.md "Zoo throughput"), so the
    // bound here is looser than test_segment_parallel's 0.02; the
    // determinism contract is identical: the epsilon depends only on
    // (K, warmup), never on shard/worker/target shape.
    MemoryTrace trace = fuzzTrace(6404, 24'000);
    PreparedTrace prepared(trace);

    for (SchemeKind kind : kZooKinds) {
        SweepOptions exact;
        exact.minTotalBits = 6;
        exact.maxTotalBits = 9;
        const SweepResult truth = sweepScheme(prepared, kind, exact);

        SweepOptions spec = exact;
        spec.segments = 4;
        spec.segmentWarmup = 2048;
        const SweepResult approx = sweepScheme(prepared, kind, spec);
        EXPECT_LE(maxPointDelta(truth, approx), 0.05)
            << schemeKindName(kind);

        SweepOptions spec2 = spec;
        spec2.threads = 3;
        const SweepResult again = sweepScheme(prepared, kind, spec2);
        expectSurfacesIdentical(approx, again, schemeKindName(kind));
    }
}

TEST(ModelBatchDifferential, CoveringWarmupReproducesExactResults)
{
    // A warm-up window covering every segment start replays the full
    // prefix (training, not counting) before counting, so the model
    // state at each boundary is exactly the serial state: speculative
    // mode must be bit-identical to exact mode.  Pins the zoo warm-up
    // replay path itself.
    MemoryTrace trace = fuzzTrace(6505, 12'000);
    PreparedTrace prepared(trace);

    for (SchemeKind kind : kZooKinds) {
        SweepOptions exact;
        exact.minTotalBits = 5;
        exact.maxTotalBits = 8;
        const SweepResult truth = sweepScheme(prepared, kind, exact);

        SweepOptions spec = exact;
        spec.segments = 3;
        spec.segmentWarmup = 1u << 20; // covers any segment start
        const SweepResult approx = sweepScheme(prepared, kind, spec);
        expectSurfacesIdentical(truth, approx,
                                schemeKindName(kind));
    }
}

TEST(ModelBatchDifferential, TelemetryReportsModelGroupShape)
{
    MemoryTrace trace = fuzzTrace(6606, 10'000);
    PreparedTrace prepared(trace);

    SweepOptions opts;
    opts.minTotalBits = 5;
    opts.maxTotalBits = 8;
    opts.threads = 2;
    opts.segments = 3;
    opts.segmentWarmup = 512;
    const SweepResult r =
        sweepScheme(prepared, SchemeKind::Tage, opts);

    // Zoo groups are model groups, not packed-lane fused groups.
    EXPECT_EQ(r.kernel.fusedGroups, 0u);
    EXPECT_EQ(r.kernel.lanes, 0u);
    EXPECT_EQ(r.kernel.laneBatches, 0u);
    ASSERT_GT(r.kernel.modelGroups, 0u);
    EXPECT_EQ(r.kernel.modelLanes,
              planSweep(SchemeKind::Tage, opts).size());
    EXPECT_GT(r.kernel.modelBatches, 0u);
    EXPECT_GT(r.kernel.blocksReplayed, 0u);
    EXPECT_EQ(r.kernel.segmentsPerGroup(), 3.0);
    EXPECT_GE(r.kernel.shardsPerGroup(), 1.0);
    EXPECT_GE(r.kernel.shardTasks, r.kernel.segments);
    EXPECT_LE(r.kernel.shardTasks, r.kernel.segments * opts.threads);
    EXPECT_GT(r.kernel.warmupBranches, 0u);
    EXPECT_GT(r.kernel.modelLanesPerGroup(), 0.0);
    const double util = r.kernel.workerUtilization();
    EXPECT_GT(util, 0.0);
    EXPECT_LE(util, 1.0 + 1e-9);

    // Exact serial zoo sweeps keep the degenerate shape.
    SweepOptions serial;
    serial.minTotalBits = 5;
    serial.maxTotalBits = 8;
    const SweepResult s =
        sweepScheme(prepared, SchemeKind::Perceptron, serial);
    ASSERT_GT(s.kernel.modelGroups, 0u);
    EXPECT_EQ(s.kernel.segmentsPerGroup(), 1.0);
    EXPECT_EQ(s.kernel.warmupBranches, 0u);
}

TEST(ModelBatchSlow, CompositionCampaign)
{
    if (std::getenv("BPSIM_SLOW_TESTS") == nullptr) {
        GTEST_SKIP() << "set BPSIM_SLOW_TESTS=1 to run the long "
                        "campaign (ctest -L zoo)";
    }

    // The long campaign: hundreds of fuzzed group compositions with
    // longer traces and EVERY supported target per composition, each
    // slot held to its naive reference mirror.
    Pcg32 rng(0x51077CA3ULL, 29);

    std::vector<MemoryTrace> traces;
    std::vector<std::unique_ptr<PreparedTrace>> prepared;
    for (int i = 0; i < 8; ++i) {
        traces.push_back(
            fuzzTrace(6700 + i, 3000 + rng.nextBounded(5000)));
        prepared.push_back(
            std::make_unique<PreparedTrace>(traces.back()));
    }

    const std::vector<SimdTarget> targets = supportedSimdTargets();
    for (int round = 0; round < 200; ++round) {
        const SchemeKind kind = kZooKinds[rng.nextBounded(2)];
        const std::size_t trace_idx = rng.nextBounded(8);
        const PreparedTrace &t = *prepared[trace_idx];

        SweepOptions opts;
        fuzzZooKnobs(opts, rng);

        std::vector<ConfigJob> jobs;
        const std::size_t count = 3 + rng.nextBounded(8);
        for (std::size_t j = 0; j < count; ++j)
            jobs.push_back(
                fuzzZooJob(kind, 5 + rng.nextBounded(6), rng));

        const unsigned threads = 1 + rng.nextBounded(8);
        for (SimdTarget target : targets)
            checkComposition(traces[trace_idx], t, jobs, opts, target,
                             threads, round);
    }
}
