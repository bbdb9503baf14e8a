/**
 * @file
 * Integration tests crossing module boundaries: workload -> trace file
 * -> predictor -> statistics, end to end.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>

#include "predictor/factory.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/sweep_session.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"
#include "workload/profiles.hh"
#include "workload/synthetic.hh"

using namespace bpsim;

namespace {

class TempFile
{
  public:
    explicit TempFile(const std::string &tag)
        : path_("/tmp/bpsim_it_" + tag + "_" +
                std::to_string(::getpid()) + ".bpt")
    {}
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace

TEST(Integration, WorkloadSurvivesDiskRoundTripExactly)
{
    TempFile tmp("roundtrip");
    MemoryTrace original = generateProfileTrace("compress", 30'000);
    ASSERT_TRUE(saveTrace(original, tmp.path()).ok());
    MemoryTrace loaded = loadTrace(tmp.path()).value();

    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i)
        ASSERT_EQ(loaded[i], original[i]) << "record " << i;
    EXPECT_EQ(loaded.name(), "compress");
}

TEST(Integration, PredictionsIdenticalOnLoadedTrace)
{
    TempFile tmp("predict");
    MemoryTrace original = generateProfileTrace("compress", 30'000);
    ASSERT_TRUE(saveTrace(original, tmp.path()).ok());
    MemoryTrace loaded = loadTrace(tmp.path()).value();

    auto p1 = makePredictor("gshare:10:2");
    auto p2 = makePredictor("gshare:10:2");
    original.reset();
    PredictionStats a = runPredictor(original, *p1);
    PredictionStats b = runPredictor(loaded, *p2);
    EXPECT_EQ(a.mispredicts(), b.mispredicts());
    EXPECT_EQ(a.lookups(), b.lookups());
}

TEST(Integration, SweepOnLoadedTraceMatchesGenerated)
{
    TempFile tmp("sweep");
    MemoryTrace original = generateProfileTrace("compress", 30'000);
    ASSERT_TRUE(saveTrace(original, tmp.path()).ok());
    MemoryTrace loaded = loadTrace(tmp.path()).value();

    PreparedTrace pa(original), pb(loaded);
    SweepOptions o;
    o.minTotalBits = 6;
    o.maxTotalBits = 6;
    SweepResult ra = sweepScheme(pa, SchemeKind::GAs, o);
    SweepResult rb = sweepScheme(pb, SchemeKind::GAs, o);
    for (unsigned r = 0; r <= 6; ++r) {
        EXPECT_EQ(ra.misprediction.at(6, r), rb.misprediction.at(6, r))
            << "rows 2^" << r;
    }
}

TEST(Integration, EveryProfileGeneratesAndPredicts)
{
    for (const auto &name : profileNames()) {
        MemoryTrace trace = generateProfileTrace(name, 4'000);
        EXPECT_GE(trace.conditionalCount(), 4'000u) << name;
        auto p = makePredictor("gshare:8:2");
        trace.reset();
        PredictionStats stats = runPredictor(trace, *p);
        EXPECT_EQ(stats.lookups(), trace.conditionalCount()) << name;
        EXPECT_GT(stats.accuracy(), 0.5) << name;
    }
}

TEST(Integration, DynamicPredictorsBeatStaticBaselines)
{
    MemoryTrace trace = generateProfileTrace("espresso", 100'000);
    auto dynamic = makePredictor("gshare:12:0");
    auto taken = makePredictor("taken");
    auto btfnt = makePredictor("btfnt");

    trace.reset();
    double d = runPredictor(trace, *dynamic).mispRate();
    trace.reset();
    double t = runPredictor(trace, *taken).mispRate();
    trace.reset();
    double b = runPredictor(trace, *btfnt).mispRate();

    EXPECT_LT(d, t);
    EXPECT_LT(d, b);
}

TEST(Integration, TraceLengthInsensitivityOfMispRates)
{
    // DESIGN.md claims rates stabilise well before 10^6 branches; check
    // that doubling a medium trace moves a predictor's rate by little.
    auto misp_at = [](std::uint64_t n) {
        MemoryTrace trace = generateProfileTrace("mpeg_play", n);
        auto p = makePredictor("addr:12");
        return runPredictor(trace, *p).mispRate();
    };
    double half = misp_at(400'000);
    double full = misp_at(800'000);
    EXPECT_NEAR(half, full, 0.02);
}

TEST(Integration, CharacterizationConsistentWithGeneration)
{
    WorkloadParams params = profileParams("verilog", 50'000);
    MemoryTrace trace = generateTrace(params);
    auto ch = TraceCharacterization::measure(trace);
    EXPECT_EQ(ch.dynamicConditionals(), trace.conditionalCount());
    EXPECT_GT(ch.staticConditionals(), 100u);
}

TEST(Integration, TournamentTracksBestComponentOnRealWorkload)
{
    MemoryTrace trace = generateProfileTrace("espresso", 150'000);

    auto run = [&](const std::string &spec) {
        auto p = makePredictor(spec);
        trace.reset();
        return runPredictor(trace, *p).mispRate();
    };
    double bimodal = run("addr:11");
    double gshare = run("gshare:11:0");
    double combo = run("tournament(addr:10,gshare:10:0):10");
    // The combiner should at least approach the better component even
    // with half-size tables.
    EXPECT_LT(combo, std::max(bimodal, gshare));
}

TEST(Integration, Table3PipelineRunsOnProfile)
{
    SweepSession session;
    auto handle = session.internProfile("compress", 40'000);
    ASSERT_TRUE(handle.ok());
    Table3Options opts;
    opts.budgetBits = {9};
    opts.bhtSizes = {128};
    auto rows = session.bestConfigs(handle.value().hash, opts);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows.value().size(), 4u);
    for (const auto &row : rows.value())
        EXPECT_TRUE(row.best[0].has_value()) << row.scheme;
}
