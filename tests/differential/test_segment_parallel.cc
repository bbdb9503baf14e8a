/**
 * @file
 * Differential verification of the segment-parallel fused replay
 * (sweep.cc): lane sharding must be bit-identical to the serial
 * engine for any shard count on every SIMD target, speculative
 * segment replay must be deterministic with a bounded, auditable
 * epsilon against exact mode, and the exact path must be untouched by
 * every new execution knob.
 *
 * The suite name is load-bearing: the tsan preset runs
 * "ThreadPool|Sweep|Experiment|ServiceStress|SegmentParallel", so the
 * groups x shards x segments task grid here is replayed under the race
 * detector.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "common/random.hh"
#include "sim/sweep.hh"
#include "workload/synthetic.hh"

using namespace bpsim;

namespace {

constexpr SchemeKind kAllKinds[] = {
    SchemeKind::AddressIndexed, SchemeKind::GAg,
    SchemeKind::GAs,            SchemeKind::Gshare,
    SchemeKind::Path,           SchemeKind::PAsPerfect,
    SchemeKind::PAsFinite,
};

MemoryTrace
fuzzTrace(std::uint64_t seed, std::uint64_t conditionals)
{
    WorkloadParams p;
    p.name = "segpar-diff-" + std::to_string(seed);
    p.seed = seed;
    p.staticBranches = 90;
    p.functionCount = 9;
    p.targetConditionals = conditionals;
    return generateTrace(p);
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

} // namespace

TEST(SegmentParallel, LaneShardingBitIdenticalAcrossFuzzedConfigs)
{
    // The grid invariant: sharding the lane dimension never changes
    // any result, for any thread (hence shard) count, on any SIMD
    // target.  >= 100 fuzzed configurations accumulate across the
    // rounds.
    Pcg32 rng(0x5E63B0B5ULL, 17);
    std::size_t configs_checked = 0;
    for (int round = 0; round < 8; ++round) {
        const SchemeKind kind = kAllKinds[rng.nextBounded(7)];
        MemoryTrace trace =
            fuzzTrace(4200 + round, 8000 + rng.nextBounded(8000));
        PreparedTrace prepared(trace);

        SweepOptions base;
        base.trackAliasing = false;
        base.minTotalBits = 4 + rng.nextBounded(2);
        base.maxTotalBits = base.minTotalBits + 3 + rng.nextBounded(3);
        base.bhtEntries = 32u << rng.nextBounded(3);
        base.bhtAssoc = rng.nextBounded(2) ? 4 : 2;
        base.pathBitsPerTarget = 1 + rng.nextBounded(4);
        base.threads = 1;

        const SweepResult serial = sweepScheme(prepared, kind, base);
        configs_checked += pointCount(serial);

        for (SimdTarget target : supportedSimdTargets()) {
            for (unsigned threads : {2u, 3u, 8u, 0u}) {
                SweepOptions opts = base;
                opts.simd = target;
                opts.threads = threads;
                const SweepResult sharded =
                    sweepScheme(prepared, kind, opts);
                expectSurfacesIdentical(serial, sharded,
                                        simdTargetName(target));
            }
        }
    }
    EXPECT_GE(configs_checked, 100u);
}

TEST(SegmentParallel, SpeculativeEpsilonBoundedAndDeterministic)
{
    // Speculative segments trade a bounded error for parallelism: the
    // 2-bit counters converge within a few updates (DESIGN.md section
    // "Segment-parallel replay"), so a 512-branch warm-up window keeps
    // the per-point delta against exact mode small.  The delta is the
    // auditable epsilon; determinism means it never depends on shard
    // or worker counts.
    MemoryTrace trace = fuzzTrace(77, 24'000);
    PreparedTrace prepared(trace);

    SweepOptions exact;
    exact.trackAliasing = false;
    exact.minTotalBits = 4;
    exact.maxTotalBits = 8;

    for (SchemeKind kind :
         {SchemeKind::Gshare, SchemeKind::GAs, SchemeKind::PAsPerfect}) {
        const SweepResult truth = sweepScheme(prepared, kind, exact);

        SweepOptions spec = exact;
        spec.segments = 4;
        spec.segmentWarmup = 512;
        const SweepResult approx = sweepScheme(prepared, kind, spec);
        EXPECT_LE(maxPointDelta(truth, approx), 0.02)
            << schemeKindName(kind);

        // Same K, different shard/worker shape: bit-identical to the
        // first speculative run -- the epsilon is a property of
        // (K, warmup), not of the execution.
        SweepOptions spec2 = spec;
        spec2.threads = 3;
        const SweepResult again = sweepScheme(prepared, kind, spec2);
        expectSurfacesIdentical(approx, again, schemeKindName(kind));
    }
}

TEST(SegmentParallel, WarmupCoveringTheTraceReproducesExactResults)
{
    // With a warm-up window at least as long as any segment's start
    // offset, every segment replays the full prefix (uncounted) before
    // counting -- the counter state at each boundary is then exactly
    // the serial state, so speculative mode must be bit-identical to
    // exact mode.  Pins that the warm-up replay path itself is sound.
    MemoryTrace trace = fuzzTrace(88, 12'000);
    PreparedTrace prepared(trace);

    SweepOptions exact;
    exact.trackAliasing = false;
    exact.minTotalBits = 4;
    exact.maxTotalBits = 7;
    const SweepResult truth =
        sweepScheme(prepared, SchemeKind::GAs, exact);

    SweepOptions spec = exact;
    spec.segments = 3;
    spec.segmentWarmup = 1u << 20; // covers any segment start
    const SweepResult approx =
        sweepScheme(prepared, SchemeKind::GAs, spec);
    expectSurfacesIdentical(truth, approx, "covering warm-up");
}

TEST(SegmentParallel, ExactModeUntouchedByKnobDefaults)
{
    // segments=0 (defer, no env) and segments=1 (explicit exact) must
    // both take the historical exact path.
    ::unsetenv("BPSIM_SEGMENTS");
    MemoryTrace trace = fuzzTrace(99, 10'000);
    PreparedTrace prepared(trace);

    SweepOptions defaults;
    defaults.trackAliasing = false;
    defaults.minTotalBits = 4;
    defaults.maxTotalBits = 7;
    ASSERT_EQ(resolveSegments(defaults), 1u);

    SweepOptions explicit_exact = defaults;
    explicit_exact.segments = 1;
    expectSurfacesIdentical(
        sweepScheme(prepared, SchemeKind::Gshare, defaults),
        sweepScheme(prepared, SchemeKind::Gshare, explicit_exact),
        "explicit segments=1");
}

TEST(SegmentParallel, EnvOverrideResolvesAndExplicitWins)
{
    const char *prev = std::getenv("BPSIM_SEGMENTS");
    const std::string saved = prev ? prev : "";

    SweepOptions opts;
    ::setenv("BPSIM_SEGMENTS", "4", 1);
    EXPECT_EQ(resolveSegments(opts), 4u);

    // An explicit option beats the environment.
    opts.segments = 2;
    EXPECT_EQ(resolveSegments(opts), 2u);
    opts.segments = 0;

    // Malformed or out-of-range values warn and fall back to exact.
    for (const char *bad : {"zebra", "0", "100", "4x", "-2", ""}) {
        ::setenv("BPSIM_SEGMENTS", bad, 1);
        EXPECT_EQ(resolveSegments(opts), 1u) << "'" << bad << "'";
    }

    ::setenv("BPSIM_SEGMENTS", "64", 1);
    EXPECT_EQ(resolveSegments(opts), 64u);

    // Explicit requests clamp to the documented ceiling.
    opts.segments = 1000;
    EXPECT_EQ(resolveSegments(opts), SweepOptions::kMaxSegments);

    if (prev)
        ::setenv("BPSIM_SEGMENTS", saved.c_str(), 1);
    else
        ::unsetenv("BPSIM_SEGMENTS");
}

TEST(SegmentParallel, TelemetryReportsSegmentAndShardShape)
{
    MemoryTrace trace = fuzzTrace(111, 10'000);
    PreparedTrace prepared(trace);

    SweepOptions opts;
    opts.trackAliasing = false;
    opts.minTotalBits = 4;
    opts.maxTotalBits = 7;
    opts.threads = 2;
    opts.segments = 3;
    opts.segmentWarmup = 512;
    const SweepResult r =
        sweepScheme(prepared, SchemeKind::GAs, opts);

    ASSERT_GT(r.kernel.fusedGroups, 0u);
    EXPECT_EQ(r.kernel.segmentsPerGroup(), 3.0);
    // GAg-degenerate groups have a single lane, so shards clamp to
    // the lane count; every group still reports at least one shard.
    EXPECT_GE(r.kernel.shardsPerGroup(), 1.0);
    // Per group, tasks = shards x segments; summed over groups that
    // bounds the total by the segment sum on one side and the
    // threads-scaled sum on the other.
    EXPECT_GE(r.kernel.shardTasks, r.kernel.segments);
    EXPECT_LE(r.kernel.shardTasks, r.kernel.segments * opts.threads);
    // Two speculative segments per group warm up, each over the full
    // configured window (the trace is long enough).
    EXPECT_GT(r.kernel.warmupBranches, 0u);
    EXPECT_GE(r.kernel.shardWorkers, 2u);
    EXPECT_GT(r.kernel.busySeconds, 0.0);
    EXPECT_GT(r.kernel.spanSeconds, 0.0);
    const double util = r.kernel.workerUtilization();
    EXPECT_GT(util, 0.0);
    EXPECT_LE(util, 1.0 + 1e-9);

    // Exact serial runs keep the degenerate shape.
    SweepOptions serial;
    serial.trackAliasing = false;
    serial.minTotalBits = 4;
    serial.maxTotalBits = 7;
    const SweepResult s =
        sweepScheme(prepared, SchemeKind::GAs, serial);
    EXPECT_EQ(s.kernel.segmentsPerGroup(), 1.0);
    EXPECT_EQ(s.kernel.shardsPerGroup(), 1.0);
    EXPECT_EQ(s.kernel.warmupBranches, 0u);
}
