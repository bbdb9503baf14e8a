/**
 * @file
 * Tests for the experiment drivers (Table 3 best-config machinery).
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/sweep_session.hh"
#include "workload/synthetic.hh"

using namespace bpsim;

namespace {

MemoryTrace
smallTrace()
{
    WorkloadParams p;
    p.name = "experiment-unit";
    p.seed = 31;
    p.staticBranches = 100;
    p.functionCount = 10;
    p.targetConditionals = 20'000;
    return generateTrace(p);
}

PreparedTrace
smallPrepared()
{
    return PreparedTrace(smallTrace());
}

/** Table 3 rows for the small workload through a memory-only session. */
std::vector<BestConfigRow>
bestConfigs(const Table3Options &opts)
{
    SweepSession session;
    const TraceHandle handle = session.internTrace(smallTrace());
    auto rows = session.bestConfigs(handle.hash, opts);
    EXPECT_TRUE(rows.ok());
    return rows.ok() ? rows.value() : std::vector<BestConfigRow>{};
}

} // namespace

TEST(Experiment, PaperSweepOptionsMatchFigureAxes)
{
    SweepOptions o = paperSweepOptions();
    EXPECT_EQ(o.minTotalBits, 4u);  // 16 counters, rear tier
    EXPECT_EQ(o.maxTotalBits, 15u); // 32768 counters, front tier
    EXPECT_TRUE(o.trackAliasing);
}

TEST(Experiment, PrepareProfileProducesConditionalStream)
{
    SweepSession session;
    auto handle = session.internProfile("compress", 50'000);
    ASSERT_TRUE(handle.ok());
    auto t = session.prepared(handle.value().hash);
    ASSERT_TRUE(t.ok());
    EXPECT_GE(t.value()->size(), 50'000u);
    EXPECT_EQ(t.value()->name(), "compress");
}

TEST(Experiment, BestConfigTableHasPaperLineup)
{
    Table3Options opts;
    opts.budgetBits = {6, 8};
    opts.bhtSizes = {64, 32};
    auto rows = bestConfigs(opts);

    ASSERT_EQ(rows.size(), 5u); // GAs, gshare, PAs(inf), PAs x2
    EXPECT_EQ(rows[0].scheme, "GAs");
    EXPECT_EQ(rows[1].scheme, "gshare");
    EXPECT_EQ(rows[2].scheme, "PAs(inf)");
    EXPECT_EQ(rows[3].scheme, "PAs(64)");
    EXPECT_EQ(rows[4].scheme, "PAs(32)");

    for (const auto &row : rows) {
        ASSERT_EQ(row.best.size(), 2u) << row.scheme;
        for (const auto &best : row.best) {
            ASSERT_TRUE(best.has_value()) << row.scheme;
            EXPECT_GE(best->mispRate, 0.0);
            EXPECT_LE(best->mispRate, 1.0);
        }
    }
}

TEST(Experiment, BestConfigGeometryAddsUp)
{
    Table3Options opts;
    opts.budgetBits = {7};
    opts.bhtSizes = {64};
    auto rows = bestConfigs(opts);
    for (const auto &row : rows) {
        ASSERT_TRUE(row.best[0].has_value());
        EXPECT_EQ(row.best[0]->rowBits + row.best[0]->colBits, 7u)
            << row.scheme;
    }
}

TEST(Experiment, FirstLevelMissRatesOnlyForFiniteBht)
{
    Table3Options opts;
    opts.budgetBits = {6};
    opts.bhtSizes = {16};
    auto rows = bestConfigs(opts);
    EXPECT_LT(rows[0].bhtMissRate, 0.0); // GAs: not applicable
    EXPECT_LT(rows[2].bhtMissRate, 0.0); // PAs(inf): not applicable
    EXPECT_GE(rows[3].bhtMissRate, 0.0); // PAs(16): reported
}

TEST(Experiment, KiloEntryBhtNamesUseKSuffix)
{
    Table3Options opts;
    opts.budgetBits = {6};
    opts.bhtSizes = {1024, 2048, 128};
    auto rows = bestConfigs(opts);
    EXPECT_EQ(rows[3].scheme, "PAs(1k)");
    EXPECT_EQ(rows[4].scheme, "PAs(2k)");
    EXPECT_EQ(rows[5].scheme, "PAs(128)");
}

TEST(Experiment, BestConfigTableIdenticalAcrossThreadCounts)
{
    Table3Options serial;
    serial.budgetBits = {6, 8};
    serial.bhtSizes = {64, 32};
    serial.threads = 1;
    Table3Options parallel = serial;
    parallel.threads = 4;

    auto rs = bestConfigs(serial);
    auto rp = bestConfigs(parallel);
    ASSERT_EQ(rs.size(), rp.size());
    for (std::size_t i = 0; i < rs.size(); ++i) {
        EXPECT_EQ(rs[i].scheme, rp[i].scheme);
        EXPECT_EQ(rs[i].bhtMissRate, rp[i].bhtMissRate);
        ASSERT_EQ(rs[i].best.size(), rp[i].best.size());
        for (std::size_t b = 0; b < rs[i].best.size(); ++b) {
            ASSERT_EQ(rs[i].best[b].has_value(),
                      rp[i].best[b].has_value());
            if (!rs[i].best[b])
                continue;
            EXPECT_EQ(rs[i].best[b]->rowBits, rp[i].best[b]->rowBits);
            EXPECT_EQ(rs[i].best[b]->colBits, rp[i].best[b]->colBits);
            EXPECT_EQ(rs[i].best[b]->mispRate,
                      rp[i].best[b]->mispRate);
        }
    }
}

TEST(Experiment, SmallerBhtIsNeverBetterThanBigger)
{
    // The paper's central PAs claim: first-level capacity is the
    // bottleneck.  With identical second levels, a 16-entry BHT must
    // not beat a 4096-entry one (allowing sampling noise epsilon).
    PreparedTrace t = smallPrepared();
    SweepOptions big, small;
    big.minTotalBits = small.minTotalBits = 8;
    big.maxTotalBits = small.maxTotalBits = 8;
    big.trackAliasing = small.trackAliasing = false;
    big.bhtEntries = 4096;
    small.bhtEntries = 16;
    SweepResult rb = sweepScheme(t, SchemeKind::PAsFinite, big);
    SweepResult rs = sweepScheme(t, SchemeKind::PAsFinite, small);
    auto bb = rb.misprediction.bestInTier(8);
    auto bs = rs.misprediction.bestInTier(8);
    ASSERT_TRUE(bb && bs);
    EXPECT_LE(bb->value, bs->value + 0.005);
    EXPECT_GT(rs.bhtMissRate, rb.bhtMissRate);
}
