/**
 * @file
 * Tests for the SweepSession facade: cached results are bit-identical
 * to recomputed ones (the differential contract that makes the result
 * cache safe to use at all), disk-warm sessions serve without replay,
 * bestConfigs matches the direct sweepScheme path, and the cache
 * key discipline separates what must be separated -- and nothing else.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>

#include "sim/experiment.hh"
#include "sim/sweep_session.hh"
#include "workload/synthetic.hh"

using namespace bpsim;

namespace {

constexpr const char *kProfile = "espresso";
constexpr std::uint64_t kBranches = 20000;

SweepOptions
smallSweep()
{
    SweepOptions opts;
    opts.minTotalBits = 4;
    opts.maxTotalBits = 8;
    opts.trackAliasing = true;
    return opts;
}

void
expectSurfaceIdentical(const Surface &a, const Surface &b)
{
    EXPECT_EQ(a.name(), b.name());
    ASSERT_EQ(a.tiers().size(), b.tiers().size());
    for (std::size_t t = 0; t < a.tiers().size(); ++t) {
        const SurfaceTier &ta = a.tiers()[t];
        const SurfaceTier &tb = b.tiers()[t];
        EXPECT_EQ(ta.totalBits, tb.totalBits);
        ASSERT_EQ(ta.points.size(), tb.points.size());
        for (std::size_t p = 0; p < ta.points.size(); ++p) {
            EXPECT_EQ(ta.points[p].rowBits, tb.points[p].rowBits);
            EXPECT_EQ(ta.points[p].colBits, tb.points[p].colBits);
            EXPECT_EQ(std::memcmp(&ta.points[p].value,
                                  &tb.points[p].value,
                                  sizeof(double)),
                      0)
                << a.name() << " tier " << ta.totalBits << " point "
                << p;
        }
    }
}

void
expectResultIdentical(const SweepResult &a, const SweepResult &b)
{
    expectSurfaceIdentical(a.misprediction, b.misprediction);
    expectSurfaceIdentical(a.aliasing, b.aliasing);
    expectSurfaceIdentical(a.harmless, b.harmless);
    EXPECT_EQ(
        std::memcmp(&a.bhtMissRate, &b.bhtMissRate, sizeof(double)),
        0);
}

std::string
tempCacheDir(const char *leaf)
{
    std::string dir = ::testing::TempDir() + leaf;
    std::filesystem::remove_all(dir);
    return dir;
}

} // namespace

TEST(SweepSession, SweepMatchesDirectSweepScheme)
{
    SweepSession session;
    auto handle = session.internProfile(kProfile, kBranches);
    ASSERT_TRUE(handle.ok());
    auto resp = session.sweep(SweepRequest{
        handle.value().hash, SchemeKind::Gshare, smallSweep()});
    ASSERT_TRUE(resp.ok());
    EXPECT_FALSE(resp.value().cacheHit);
    // A single sweep is a batch of one: never coalesced.
    EXPECT_FALSE(resp.value().coalesced);

    PreparedTrace direct(
        generateProfileTrace(kProfile, kBranches));
    SweepResult expected =
        sweepScheme(direct, SchemeKind::Gshare, smallSweep());
    expectResultIdentical(resp.value().result, expected);
    EXPECT_EQ(resp.value().result.kernel.lanes, expected.kernel.lanes);
}

TEST(SweepSession, CacheHitIsBitIdenticalToBypass)
{
    SweepSession session;
    auto handle = session.internProfile(kProfile, kBranches);
    ASSERT_TRUE(handle.ok());
    const SweepRequest request{handle.value().hash,
                               SchemeKind::PAsFinite, smallSweep()};

    auto cold = session.sweep(request);
    ASSERT_TRUE(cold.ok());
    EXPECT_FALSE(cold.value().cacheHit);

    auto warm = session.sweep(request);
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm.value().cacheHit);
    EXPECT_FALSE(warm.value().diskHit);

    SweepRequest bypass = request;
    bypass.bypassCache = true;
    auto recomputed = session.sweep(bypass);
    ASSERT_TRUE(recomputed.ok());
    EXPECT_FALSE(recomputed.value().cacheHit);

    // The differential contract: hit == recompute, bit for bit.
    expectResultIdentical(warm.value().result,
                          recomputed.value().result);
    expectResultIdentical(cold.value().result,
                          warm.value().result);
    // A hit reports no kernel execution.
    EXPECT_EQ(warm.value().result.kernel.fusedGroups, 0u);
    EXPECT_EQ(warm.value().result.kernel.fallbackJobs, 0u);
}

TEST(SweepSession, DiskWarmSessionServesWithoutTracePreparation)
{
    const std::string dir = tempCacheDir("bpsim_session_disk");
    const SweepOptions opts = smallSweep();
    SweepResult expected("", "");
    TraceHash key;
    {
        SweepSession cold(dir);
        auto handle = cold.internProfile(kProfile, kBranches);
        ASSERT_TRUE(handle.ok());
        key = handle.value().hash;
        auto resp = cold.sweep(
            SweepRequest{key, SchemeKind::GAs, opts});
        ASSERT_TRUE(resp.ok());
        expected = resp.value().result;
    }

    // New process simulation: nothing interned, same cache dir.  The
    // sweep must be served purely from disk -- no trace generation,
    // no preparation (an unknown trace key would otherwise error).
    SweepSession warm(dir);
    auto resp =
        warm.sweep(SweepRequest{key, SchemeKind::GAs, opts});
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp.value().cacheHit);
    EXPECT_TRUE(resp.value().diskHit);
    expectResultIdentical(resp.value().result, expected);
    EXPECT_EQ(warm.registry().size(), 0u);
    std::filesystem::remove_all(dir);
}

TEST(SweepSession, UnknownTraceKeyIsAnError)
{
    SweepSession session;
    auto resp = session.sweep(
        SweepRequest{TraceHash{1, 2}, SchemeKind::GAs, smallSweep()});
    ASSERT_FALSE(resp.ok());
    EXPECT_NE(resp.error().message().find("not interned"),
              std::string::npos);
    EXPECT_FALSE(
        session.point(TraceHash{1, 2}, SchemeKind::GAs, 2, 2).ok());
    EXPECT_FALSE(session.bestConfigs(TraceHash{1, 2}).ok());
}

TEST(SweepSession, ConfigKeyExcludesExecutionKnobs)
{
    SweepOptions a = smallSweep();
    SweepOptions b = smallSweep();
    b.threads = 8;
    b.simd = SimdTarget::Scalar;
    // Execution knobs are bit-identical: same key, cache may serve.
    EXPECT_EQ(SweepSession::cacheConfigKey(SchemeKind::Gshare, a),
              SweepSession::cacheConfigKey(SchemeKind::Gshare, b));

    // Result-affecting knobs split the key.
    SweepOptions c = smallSweep();
    c.maxTotalBits = 9;
    EXPECT_NE(SweepSession::cacheConfigKey(SchemeKind::Gshare, a),
              SweepSession::cacheConfigKey(SchemeKind::Gshare, c));
    SweepOptions d = smallSweep();
    d.trackAliasing = false;
    EXPECT_NE(SweepSession::cacheConfigKey(SchemeKind::Gshare, a),
              SweepSession::cacheConfigKey(SchemeKind::Gshare, d));

    // Per-scheme parameters only key the schemes that read them: a
    // BHT knob must not split a gshare key, but must split PAs(BHT).
    SweepOptions e = smallSweep();
    e.bhtEntries = 128;
    EXPECT_EQ(SweepSession::cacheConfigKey(SchemeKind::Gshare, a),
              SweepSession::cacheConfigKey(SchemeKind::Gshare, e));
    EXPECT_NE(SweepSession::cacheConfigKey(SchemeKind::PAsFinite, a),
              SweepSession::cacheConfigKey(SchemeKind::PAsFinite, e));
    SweepOptions f = smallSweep();
    f.pathBitsPerTarget = 4;
    EXPECT_EQ(SweepSession::cacheConfigKey(SchemeKind::GAs, a),
              SweepSession::cacheConfigKey(SchemeKind::GAs, f));
    EXPECT_NE(SweepSession::cacheConfigKey(SchemeKind::Path, a),
              SweepSession::cacheConfigKey(SchemeKind::Path, f));

    // threads sizes the lane shards, which are bit-identical: 0 (one
    // per hardware thread) keys like the serial run.
    SweepOptions g = smallSweep();
    g.threads = 0;
    EXPECT_EQ(SweepSession::cacheConfigKey(SchemeKind::Gshare, a),
              SweepSession::cacheConfigKey(SchemeKind::Gshare, g));
}

TEST(SweepSession, SpeculativeSegmentsSplitTheKey)
{
    ::unsetenv("BPSIM_SEGMENTS");
    const SweepOptions exact = smallSweep();

    // Explicit exact (segments=1) keeps the historical key, so old
    // .bpc entries stay valid.
    SweepOptions explicit_exact = smallSweep();
    explicit_exact.segments = 1;
    EXPECT_EQ(SweepSession::cacheConfigKey(SchemeKind::Gshare, exact),
              SweepSession::cacheConfigKey(SchemeKind::Gshare,
                                           explicit_exact));

    // Speculative mode must never cross-serve exact results: K and
    // the warm-up width both split the key.
    SweepOptions spec = smallSweep();
    spec.segments = 4;
    EXPECT_NE(SweepSession::cacheConfigKey(SchemeKind::Gshare, exact),
              SweepSession::cacheConfigKey(SchemeKind::Gshare, spec));
    SweepOptions spec_wide = spec;
    spec_wide.segmentWarmup = 4096;
    EXPECT_NE(
        SweepSession::cacheConfigKey(SchemeKind::Gshare, spec),
        SweepSession::cacheConfigKey(SchemeKind::Gshare, spec_wide));

    // An env-resolved speculative run shares the explicit key (the
    // resolved count is keyed, not the raw option)...
    ::setenv("BPSIM_SEGMENTS", "4", 1);
    EXPECT_EQ(SweepSession::cacheConfigKey(SchemeKind::Gshare, exact),
              SweepSession::cacheConfigKey(SchemeKind::Gshare, spec));
    // ... and the batch-coalescing key splits the same way, so
    // speculative and exact requests never share an envelope replay.
    SweepRequest req_env{TraceHash{3, 4}, SchemeKind::Gshare, exact};
    SweepRequest req_spec{TraceHash{3, 4}, SchemeKind::Gshare, spec};
    EXPECT_EQ(SweepSession::batchGroupKey(req_env),
              SweepSession::batchGroupKey(req_spec));
    ::unsetenv("BPSIM_SEGMENTS");
    EXPECT_NE(SweepSession::batchGroupKey(req_env),
              SweepSession::batchGroupKey(req_spec));
}

TEST(SweepSession, PointMatchesSimulateConfig)
{
    SweepSession session;
    auto handle = session.internProfile(kProfile, kBranches);
    ASSERT_TRUE(handle.ok());
    auto point = session.point(handle.value().hash,
                               SchemeKind::Gshare, 3, 3);
    ASSERT_TRUE(point.ok());

    PreparedTrace direct(
        generateProfileTrace(kProfile, kBranches));
    ConfigResult expected =
        simulateConfig(direct, SchemeKind::Gshare, 3, 3);
    EXPECT_EQ(point.value().mispRate, expected.mispRate);
    EXPECT_EQ(point.value().aliasRate, expected.aliasRate);
    EXPECT_EQ(point.value().harmlessFraction,
              expected.harmlessFraction);
}

TEST(SweepSession, BestConfigsMatchesBestConfigTable)
{
    Table3Options opts;
    opts.budgetBits = {6, 8};
    opts.bhtSizes = {256};

    SweepSession session;
    auto handle = session.internProfile(kProfile, kBranches);
    ASSERT_TRUE(handle.ok());
    auto rows = session.bestConfigs(handle.value().hash, opts);
    ASSERT_TRUE(rows.ok());

    // The direct path: every table3Plan() scheme swept on its own and
    // reduced to its row, no session or cache involved.
    PreparedTrace direct(
        generateProfileTrace(kProfile, kBranches));
    std::vector<BestConfigRow> expected;
    for (const Table3SchemeSpec &spec : table3Plan(opts))
        expected.push_back(bestConfigRowFromSweep(
            spec, sweepScheme(direct, spec.kind, spec.options),
            opts.budgetBits));

    ASSERT_EQ(rows.value().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const BestConfigRow &got = rows.value()[i];
        const BestConfigRow &want = expected[i];
        EXPECT_EQ(got.scheme, want.scheme);
        EXPECT_EQ(got.bhtMissRate, want.bhtMissRate);
        ASSERT_EQ(got.best.size(), want.best.size());
        for (std::size_t b = 0; b < want.best.size(); ++b) {
            ASSERT_EQ(got.best[b].has_value(),
                      want.best[b].has_value());
            if (!want.best[b])
                continue;
            EXPECT_EQ(got.best[b]->rowBits, want.best[b]->rowBits);
            EXPECT_EQ(got.best[b]->colBits, want.best[b]->colBits);
            EXPECT_EQ(got.best[b]->mispRate,
                      want.best[b]->mispRate);
        }
    }

    // Second call: every underlying scheme sweep is a cache hit.
    auto before = session.cache().stats();
    auto again = session.bestConfigs(handle.value().hash, opts);
    ASSERT_TRUE(again.ok());
    auto after = session.cache().stats();
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_GE(after.memoryHits, before.memoryHits + 4);
}

TEST(SweepSession, RegistrySharesOneTraceAcrossRequests)
{
    SweepSession session;
    auto a = session.internProfile(kProfile, kBranches);
    auto b = session.internProfile(kProfile, kBranches);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().trace.get(), b.value().trace.get());
    EXPECT_EQ(session.registry().size(), 1u);

    // point() and sweep() share one PreparedTrace.
    ASSERT_TRUE(session
                    .point(a.value().hash, SchemeKind::Gshare, 2, 2)
                    .ok());
    auto prep1 = session.prepared(a.value().hash);
    auto prep2 = session.prepared(b.value().hash);
    ASSERT_TRUE(prep1.ok());
    ASSERT_TRUE(prep2.ok());
    EXPECT_EQ(prep1.value().get(), prep2.value().get());
}

TEST(SweepSession, StaleEngineVersionEntriesNeverServe)
{
    // Regression for the v1 -> v2 replay-semantics bump: an entry
    // stored under an older engineVersion must never answer a current
    // request, even when trace, scheme and config key all match.
    SweepSession session;
    auto handle = session.internProfile(kProfile, kBranches);
    ASSERT_TRUE(handle.ok());
    SweepRequest request{handle.value().hash, SchemeKind::Tage,
                         smallSweep()};

    CacheKey stale = SweepSession::cacheKey(request);
    ASSERT_EQ(stale.engineVersion, kEngineVersion);
    stale.engineVersion = kEngineVersion - 1;
    // Poison pill: a recognizably wrong payload under the stale key.
    CachedSweep poison;
    poison.bhtMissRate = 0.75;
    poison.misprediction = Surface("poison");
    ASSERT_TRUE(session.cache().store(stale, poison).ok());

    auto resp = session.sweep(request);
    ASSERT_TRUE(resp.ok());
    EXPECT_FALSE(resp.value().cacheHit)
        << "a stale-version entry served a current request";
    EXPECT_NE(resp.value().result.misprediction.name(), "poison");

    // Sanity: the same payload stored under the CURRENT key does hit.
    auto again = session.sweep(request);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again.value().cacheHit);
}

TEST(SweepSession, ZooConfigKeysCoverSchemeParameters)
{
    // TAGE keys must separate on tag width and history set -- and
    // nothing else about how the histories were spelled or ordered.
    SweepOptions a = smallSweep();
    a.tageHistories = {4, 8, 16, 32};
    SweepOptions b = smallSweep();
    b.tageHistories = {32, 16, 8, 4};
    SweepOptions c = smallSweep();
    c.tageHistories = {4, 8, 16, 48};
    const std::string ka =
        SweepSession::cacheConfigKey(SchemeKind::Tage, a);
    EXPECT_NE(ka.find("tagbits="), std::string::npos);
    EXPECT_NE(ka.find("histories="), std::string::npos);
    EXPECT_EQ(ka, SweepSession::cacheConfigKey(SchemeKind::Tage, b))
        << "history orderings must canonicalize identically";
    EXPECT_NE(ka, SweepSession::cacheConfigKey(SchemeKind::Tage, c));

    SweepOptions tag = smallSweep();
    tag.tageTagBits = 12;
    EXPECT_NE(ka, SweepSession::cacheConfigKey(SchemeKind::Tage, tag));

    // Perceptron keys separate on table count.
    SweepOptions p1 = smallSweep();
    SweepOptions p2 = smallSweep();
    p2.perceptronTables = 8;
    const std::string kp =
        SweepSession::cacheConfigKey(SchemeKind::Perceptron, p1);
    EXPECT_NE(kp.find("ptables="), std::string::npos);
    EXPECT_NE(kp,
              SweepSession::cacheConfigKey(SchemeKind::Perceptron, p2));

    // Classic schemes ignore the zoo knobs: no false key splits.
    EXPECT_EQ(SweepSession::cacheConfigKey(SchemeKind::Gshare, a),
              SweepSession::cacheConfigKey(SchemeKind::Gshare, tag));
}

TEST(SweepSession, CacheConfigKeysAreStable)
{
    // Existing .bpc entries are addressed by these exact strings: a
    // refactor of how keys are built must reproduce them byte for
    // byte, or every warm cache silently goes cold.
    ::unsetenv("BPSIM_SEGMENTS");
    const SweepOptions defaults;
    const std::pair<SchemeKind, const char *> expected[] = {
        {SchemeKind::AddressIndexed, "alias=1;max=15;min=4"},
        {SchemeKind::GAg, "alias=1;max=15;min=4"},
        {SchemeKind::GAs, "alias=1;max=15;min=4"},
        {SchemeKind::Gshare, "alias=1;max=15;min=4"},
        {SchemeKind::Path, "alias=1;max=15;min=4;pathbits=2"},
        {SchemeKind::PAsPerfect, "alias=1;max=15;min=4"},
        {SchemeKind::PAsFinite,
         "alias=1;assoc=4;bht=1024;max=15;min=4;reset=0"},
        {SchemeKind::Tage,
         "alias=1;histories=4,8,16,32;max=15;min=4;tagbits=8"},
        {SchemeKind::Perceptron, "alias=1;max=15;min=4;ptables=4"},
    };
    for (const auto &[kind, key] : expected)
        EXPECT_EQ(SweepSession::cacheConfigKey(kind, defaults), key)
            << schemeKindName(kind);

    SweepOptions spec;
    spec.segments = 4;
    EXPECT_EQ(SweepSession::cacheConfigKey(SchemeKind::Gshare, spec),
              "alias=1;max=15;min=4;segments=4;warmup=2048");
    const SweepRequest request{TraceHash{3, 4}, SchemeKind::PAsFinite,
                               defaults};
    // The coalescing key is the config key minus the tier range.
    EXPECT_EQ(SweepSession::batchGroupKey(request),
              "00000000000000030000000000000004|PAs(bht)|"
              "alias=1;assoc=4;bht=1024;reset=0");
}

TEST(SweepSession, CacheKeysCoverEveryResultAffectingOption)
{
    // Walks the option table for every scheme.  The execution-only
    // set is spelled out here, independently of the table, so a row
    // that loses its key token fails instead of passing as "execution
    // only" -- the class of collision where a result-affecting knob
    // missing from the key serves the wrong figure.
    ::unsetenv("BPSIM_SEGMENTS");
    using Member = decltype(OptionField::member);
    const Member execution_only[] = {&SweepOptions::threads,
                                     &SweepOptions::simd};
    const Member tier_range[] = {&SweepOptions::minTotalBits,
                                 &SweepOptions::maxTotalBits};
    const auto contains = [](const auto &set, const Member &m) {
        return std::find(std::begin(set), std::end(set), m) !=
               std::end(set);
    };
    // A speculative base, so the segment fields are read at all.
    SweepOptions base;
    base.segments = 4;
    EXPECT_EQ(sweepOptionFields().size(), 14u);
    for (SchemeKind kind : kSchemeKinds) {
        const SweepRequest request{TraceHash{1, 2}, kind, base};
        for (std::size_t row = 0; row < sweepOptionFields().size();
             ++row) {
            const OptionField &f = sweepOptionFields()[row];
            // Flipping the low bit changes any value, bools included.
            SweepRequest changed = request;
            std::vector<std::uint64_t> values = f.get(base);
            values.back() ^= 1;
            f.set(changed.options, values);
            const bool keyed =
                !contains(execution_only, f.member) && f.readBy(kind);
            const std::string what = std::string(schemeKindName(kind)) +
                                     ", option row " +
                                     std::to_string(row);
            EXPECT_EQ(SweepSession::cacheConfigKey(kind, base) !=
                          SweepSession::cacheConfigKey(kind,
                                                       changed.options),
                      keyed)
                << what;
            EXPECT_EQ(SweepSession::batchGroupKey(request) !=
                          SweepSession::batchGroupKey(changed),
                      keyed && !contains(tier_range, f.member))
                << what;
        }
    }
}

TEST(SweepSession, PointRejectsDegenerateZooGeometry)
{
    // A daemon must answer a bad point request with an error, not an
    // assert: the zoo schemes require non-degenerate axes.
    SweepSession session;
    auto handle = session.internProfile(kProfile, kBranches);
    ASSERT_TRUE(handle.ok());
    const TraceHash trace = handle.value().hash;
    EXPECT_FALSE(session.point(trace, SchemeKind::Tage, 0, 5).ok());
    EXPECT_FALSE(session.point(trace, SchemeKind::Tage, 5, 0).ok());
    EXPECT_FALSE(session.point(trace, SchemeKind::Tage, 29, 5).ok());
    EXPECT_FALSE(
        session.point(trace, SchemeKind::Perceptron, 0, 5).ok());
    EXPECT_FALSE(
        session.point(trace, SchemeKind::Perceptron, 65, 5).ok());
    EXPECT_TRUE(
        session.point(trace, SchemeKind::Tage, 5, 5).ok());
    EXPECT_TRUE(
        session.point(trace, SchemeKind::Perceptron, 8, 5).ok());
}
