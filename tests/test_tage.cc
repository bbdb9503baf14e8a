/**
 * @file
 * Unit tests for the TAGE predictor: tag/useful-bit update rules,
 * allocation policy boundaries, equivalence between the online
 * predictor and the sweep engine's model replay, and the cold /
 * capacity / aliasing decomposition the modern-predictor re-study
 * relies on.  Suite names start with "TageZoo" so the tsan preset can
 * select them by name.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "predictor/tage.hh"
#include "sim/engine.hh"
#include "sim/interference.hh"
#include "sim/sweep.hh"
#include "workload/synthetic.hh"

using namespace bpsim;

namespace {

MemoryTrace &
sharedWorkload()
{
    static MemoryTrace trace = [] {
        WorkloadParams p;
        p.name = "tage-unit";
        p.seed = 96;
        p.staticBranches = 150;
        p.functionCount = 15;
        p.targetConditionals = 30'000;
        return generateTrace(p);
    }();
    return trace;
}

TageParams
smallParams()
{
    TageParams p;
    p.baseBits = 6;
    p.entryBits = 6;
    p.tagBits = 8;
    p.histories = {4, 8, 16, 32};
    return p;
}

} // namespace

TEST(TageZoo, FreshModelFallsThroughToBase)
{
    TageModel m(smallParams());
    // No tagged entry is valid yet, so the base table provides, and the
    // providing base counter has never been trained: a textbook cold
    // (first-touch) prediction.
    TageStep s = m.step(0x40, 0, true);
    EXPECT_TRUE(s.prediction); // TwoBitCounter boots weakly taken
    EXPECT_EQ(s.provider, 0u);
    EXPECT_TRUE(s.providerWasFresh);
    EXPECT_FALSE(s.allocated); // correct prediction: no allocation
    EXPECT_EQ(m.updates(), 1u);
}

TEST(TageZoo, MispredictAllocatesWeaklyBiasedEntry)
{
    TageModel m(smallParams());
    const Addr pc = 0x40;
    // Base predicts taken; a not-taken outcome mispredicts and must
    // allocate in the first (shortest-history) component, weakly biased
    // toward the actual outcome and not-useful.
    TageStep s = m.step(pc, 0, false);
    EXPECT_TRUE(s.allocated);
    const std::size_t idx = m.taggedIndex(0, pc, 0);
    const TageModel::TaggedEntry &e = m.entryAt(0, idx);
    EXPECT_TRUE(e.valid);
    EXPECT_EQ(e.tag, m.taggedTag(0, pc, 0));
    EXPECT_EQ(e.ctr.raw(), 3u); // weakly not-taken
    EXPECT_EQ(e.useful, 0u);

    // A taken-side mispredict allocates weakly taken (ctr = 4).  After
    // the first step the base counter at this pc sits at weakly
    // not-taken, so a taken outcome under a fresh history mispredicts.
    TageStep s2 = m.step(pc, 1, true);
    ASSERT_TRUE(s2.allocated);
    const std::size_t idx2 = m.taggedIndex(0, pc, 1);
    EXPECT_EQ(m.entryAt(0, idx2).ctr.raw(), 4u); // weakly taken
}

TEST(TageZoo, AllocatedEntryBecomesProvider)
{
    TageModel m(smallParams());
    const Addr pc = 0x40;
    ASSERT_TRUE(m.step(pc, 0, false).allocated);
    // Same pc and history: the allocated component-1 entry now matches
    // and must provide (1-based; 0 would mean the base table).
    TageStep s = m.step(pc, 0, false);
    EXPECT_EQ(s.provider, 1u);
    EXPECT_FALSE(s.providerWasFresh);
    EXPECT_FALSE(s.prediction); // it was allocated weakly not-taken
}

TEST(TageZoo, UsefulBitTracksProviderVersusAltpred)
{
    // Scripted walk that drives the provider chain up to component 3
    // and checks the useful counter moves ONLY when the provider and
    // its altpred disagree: +1 when the provider is right, -1 when it
    // is wrong.
    TageModel m(smallParams());
    const Addr pc = 0x40;

    // s1: base mispredicts (not taken), comp 1 allocated at ctr 3.
    ASSERT_TRUE(m.step(pc, 0, false).allocated);
    // s2: comp 1 provides "not taken" (ctr 3), outcome taken:
    // mispredict trains it to 4 and allocates comp 2 at ctr 4.
    ASSERT_TRUE(m.step(pc, 0, true).allocated);
    // s3: comp 2 provides taken, altpred (comp 1, ctr 4) also taken --
    // agreement, so no useful movement; correct, ctr 4 -> 5.
    ASSERT_EQ(m.step(pc, 0, true).provider, 2u);
    // s4: comp 2 provides taken (ctr 5), outcome not taken: mispredict
    // trains 5 -> 4 and allocates comp 3 at ctr 3.
    ASSERT_TRUE(m.step(pc, 0, false).allocated);

    const std::size_t idx = m.taggedIndex(2, pc, 0);
    ASSERT_EQ(m.entryAt(2, idx).useful, 0u);

    // s5: comp 3 provides "not taken" (ctr 3) while its altpred
    // (comp 2, ctr 4) says taken; outcome not taken: the provider beat
    // its altpred, useful 0 -> 1.
    TageStep s5 = m.step(pc, 0, false);
    EXPECT_EQ(s5.provider, 3u);
    EXPECT_FALSE(s5.prediction);
    EXPECT_EQ(m.entryAt(2, idx).useful, 1u);

    // s6: same disagreement, outcome taken: the provider lost,
    // useful 1 -> 0, and the mispredict allocates component 4.
    TageStep s6 = m.step(pc, 0, true);
    EXPECT_EQ(s6.provider, 3u);
    EXPECT_TRUE(s6.allocated);
    EXPECT_EQ(m.entryAt(2, idx).useful, 0u);
}

TEST(TageZoo, UsefulEntriesAgeInsteadOfBeingStolen)
{
    // Single tagged component, 2 entries, 2-bit history: h=0 and h=3
    // fold to the SAME index with DIFFERENT tags, so we can stage a
    // tag mismatch against a useful entry.  The allocation rule must
    // then age (decrement) the entry, not steal it; once aged to zero
    // the next mispredict may steal it.
    TageParams p;
    p.baseBits = 1;
    p.entryBits = 1;
    p.tagBits = 2;
    p.histories = {2};
    TageModel m(p);
    const Addr pc = 0x40;
    const std::size_t idx = m.taggedIndex(0, pc, 0);
    ASSERT_EQ(m.taggedIndex(0, pc, 3), idx);
    ASSERT_NE(m.taggedTag(0, pc, 3), m.taggedTag(0, pc, 0));

    // Build a useful entry under h=0: allocate, train to taken, then
    // let it beat the base altpred once.
    ASSERT_TRUE(m.step(pc, 0, false).allocated); // ctr 3, tag(h=0)
    ASSERT_EQ(m.step(pc, 0, true).provider, 1u); // ctr 3 -> 4
    TageStep win = m.step(pc, 0, true);          // provider taken,
    ASSERT_TRUE(win.prediction);                 // base altpred not
    ASSERT_EQ(m.entryAt(0, idx).useful, 1u);     // taken: useful 0->1

    // h=3 maps to the same slot with a different tag: no provider, the
    // base mispredicts, and the only candidate is valid AND useful, so
    // the allocator must decrement it and allocate nothing.
    TageStep aged = m.step(pc, 3, true);
    EXPECT_EQ(aged.provider, 0u);
    EXPECT_FALSE(aged.allocated);
    EXPECT_EQ(m.entryAt(0, idx).useful, 0u);
    EXPECT_EQ(m.entryAt(0, idx).tag, m.taggedTag(0, pc, 0)) <<
        "a useful entry must not be stolen";

    // Now unprotected: the next mispredict under h=3 steals the slot.
    TageStep stolen = m.step(pc, 3, false);
    EXPECT_TRUE(stolen.allocated);
    EXPECT_EQ(m.entryAt(0, idx).tag, m.taggedTag(0, pc, 3));
    EXPECT_EQ(m.entryAt(0, idx).ctr.raw(), 3u);
    EXPECT_EQ(m.entryAt(0, idx).useful, 0u);
}

TEST(TageZoo, ResetRestoresColdState)
{
    TageModel m(smallParams());
    for (int i = 0; i < 32; ++i)
        m.step(0x40 + 4 * (i % 5), static_cast<std::uint64_t>(i), i % 3 == 0);
    ASSERT_GT(m.updates(), 0u);
    m.reset();
    EXPECT_EQ(m.updates(), 0u);
    TageStep s = m.step(0x40, 0, true);
    EXPECT_EQ(s.provider, 0u);
    EXPECT_TRUE(s.providerWasFresh);
}

TEST(TageZoo, ResetKeysUndoesARunLikeReset)
{
    // Undo one branch's run key by key, then replay another branch:
    // every step must match a model that was never touched.
    const TageParams p = smallParams();
    TageModel undone(p), fresh(p);
    const auto keys = [&](Addr pc, std::uint64_t ghist,
                          std::uint32_t *idx, std::uint16_t *tag) {
        for (unsigned j = 0; j < p.histories.size(); ++j) {
            idx[j] = static_cast<std::uint32_t>(
                undone.taggedIndex(j, pc, ghist));
            tag[j] = undone.taggedTag(j, pc, ghist);
        }
    };
    std::uint32_t idx[4];
    std::uint16_t tag[4];
    for (int i = 0; i < 200; ++i) {
        const auto ghist = static_cast<std::uint64_t>(i * 0x9e37);
        keys(0x40, ghist, idx, tag);
        undone.stepWithKeys(undone.baseIndex(0x40), idx, 1, tag, 1,
                            i % 3 != 0);
    }
    for (int i = 0; i < 200; ++i) {
        keys(0x40, static_cast<std::uint64_t>(i * 0x9e37), idx, tag);
        undone.resetKeys(undone.baseIndex(0x40), idx, 1);
    }
    for (int i = 0; i < 200; ++i) {
        const Addr pc = 0x40 + 4 * (i % 2);
        const auto ghist = static_cast<std::uint64_t>(i * 0x5bd1);
        const TageStep a = undone.step(pc, ghist, i % 5 != 0);
        const TageStep b = fresh.step(pc, ghist, i % 5 != 0);
        EXPECT_EQ(a.prediction, b.prediction) << i;
        EXPECT_EQ(a.provider, b.provider) << i;
        EXPECT_EQ(a.providerWasFresh, b.providerWasFresh) << i;
        EXPECT_EQ(a.allocated, b.allocated) << i;
    }
}

TEST(TageZooSweep, ModelReplayMatchesOnlinePredictor)
{
    // The sweep engine replays a TageModel against the prepared trace's
    // precomputed global history; the online TagePredictor maintains
    // its own HistoryRegister.  Both paths must produce the same
    // misprediction rate.
    PreparedTrace prepared(sharedWorkload());
    SweepOptions o;
    ConfigResult fast = simulateConfig(prepared, SchemeKind::Tage,
                                       6, 6, o);

    TagePredictor online(tageSweepParams(6, 6, o));
    sharedWorkload().reset();
    double online_misp = runPredictor(sharedWorkload(), online).mispRate();
    EXPECT_NEAR(fast.mispRate, online_misp, 1e-12);
}

TEST(TageZooSweep, AxisMappingAndOptionsReachTheModel)
{
    SweepOptions o;
    o.tageTagBits = 10;
    o.tageHistories = {2, 6, 30};
    TageParams p = tageSweepParams(7, 5, o);
    EXPECT_EQ(p.entryBits, 7u); // rows = per-component entries
    EXPECT_EQ(p.baseBits, 5u);  // cols = base table
    EXPECT_EQ(p.tagBits, 10u);
    EXPECT_EQ(p.histories, (std::vector<unsigned>{2, 6, 30}));
}

TEST(TageZooSweep, PlanSkipsDegenerateGeometries)
{
    // A TAGE point needs >= 1 bit on both axes; the planner must drop
    // the degenerate all-rows / all-cols splits instead of asserting.
    SweepOptions o;
    o.minTotalBits = 4;
    o.maxTotalBits = 6;
    for (const ConfigJob &job : planSweep(SchemeKind::Tage, o)) {
        EXPECT_GE(job.rowBits, 1u);
        EXPECT_GE(job.colBits, 1u);
    }
    for (const ConfigJob &job : planSweep(SchemeKind::Perceptron, o)) {
        EXPECT_GE(job.rowBits, 1u);
        EXPECT_LE(job.rowBits, 64u);
    }
}

TEST(TageZooInterference, PartitionCoversEverySharedMispredict)
{
    // The three-C invariant: every shared mispredict is exactly one of
    // aliasing (destructive), cold, or capacity.
    PreparedTrace prepared(sharedWorkload());
    SweepOptions o;
    InterferenceResult r = analyzeInterference(
        prepared, SchemeKind::Tage, 5, 5, o);
    EXPECT_EQ(r.instances, prepared.size());
    EXPECT_EQ(r.sharedMispredicts,
              r.aliasingMispredicts() + r.coldMispredicts +
                  r.capacityMispredicts);
    EXPECT_NEAR(r.aliasingRate() + r.coldRate() + r.capacityRate(),
                r.sharedMispRate(), 1e-12);
}

TEST(TageZooInterference, SharedRateMatchesSweepPoint)
{
    PreparedTrace prepared(sharedWorkload());
    SweepOptions o;
    ConfigResult sweep = simulateConfig(prepared, SchemeKind::Tage,
                                        6, 6, o);
    InterferenceResult r = analyzeInterference(
        prepared, SchemeKind::Tage, 6, 6, o);
    EXPECT_NEAR(r.sharedMispRate(), sweep.mispRate, 1e-12);
}

TEST(TageZooInterference, TaggingConvertsAliasingIntoColdMisses)
{
    // The point of the re-study: at equal storage pressure the tagged
    // scheme shows (much) less destructive aliasing than an untagged
    // global-history scheme, because a tag mismatch falls through to a
    // shorter table instead of training a stranger's counter -- those
    // mispredictions surface as cold/capacity misses instead.
    PreparedTrace prepared(sharedWorkload());
    SweepOptions o;
    InterferenceResult tage = analyzeInterference(
        prepared, SchemeKind::Tage, 4, 4, o);
    InterferenceResult gshare = analyzeInterference(
        prepared, SchemeKind::Gshare, 6, 0, o);
    EXPECT_LT(tage.aliasingRate(), gshare.aliasingRate());
    EXPECT_GT(tage.coldMispredicts, 0u);
}

TEST(TageZooTelemetry, BatchedSweepReportsModelGroupCounters)
{
    // TAGE sweeps now run the batched model-lane engine by default:
    // the jobs land in model groups (not 2-bit fused groups, not the
    // per-config fallback), and the telemetry reports the model-side
    // population -- groups, lanes, batches, blocks -- with measured
    // busy/span seconds and no NaNs from the zero-lane 2-bit
    // accessors.
    PreparedTrace prepared(sharedWorkload());
    SweepOptions o;
    o.minTotalBits = 6;
    o.maxTotalBits = 8;
    const std::size_t planned =
        planSweep(SchemeKind::Tage, o).size();
    SweepResult r = sweepScheme(prepared, SchemeKind::Tage, o);

    EXPECT_EQ(r.kernel.fusedGroups, 0u);
    EXPECT_EQ(r.kernel.fallbackJobs, 0u);
    EXPECT_EQ(r.kernel.lanes, 0u);
    EXPECT_GT(r.kernel.modelGroups, 0u);
    EXPECT_EQ(r.kernel.modelLanes, planned);
    EXPECT_GT(r.kernel.modelBatches, 0u);
    EXPECT_GT(r.kernel.blocksReplayed, 0u);
    EXPECT_EQ(r.kernel.laneBatches, 0u);
    EXPECT_GT(r.kernel.shardWorkers, 0u);
    EXPECT_GE(r.kernel.busySeconds, 0.0);
    EXPECT_GE(r.kernel.spanSeconds, 0.0);

    const double util = r.kernel.workerUtilization();
    EXPECT_FALSE(std::isnan(util));
    EXPECT_GE(util, 0.0);
    EXPECT_LE(util, 1.0 + 1e-9);
    EXPECT_FALSE(std::isnan(r.kernel.lanesPerGroup()));
    EXPECT_EQ(r.kernel.lanesPerGroup(), 0.0);
    EXPECT_GT(r.kernel.modelLanesPerGroup(), 0.0);
    EXPECT_FALSE(std::isnan(r.kernel.hotBytesPerBranch()));
    EXPECT_EQ(r.kernel.hotBytesPerBranch(), 0.0);

    // The misprediction surface is populated; the aliasing surfaces
    // stay all-zero (analyzeInterference owns TAGE's aliasing story).
    ASSERT_FALSE(r.misprediction.tiers().empty());
    for (const auto &tier : r.aliasing.tiers())
        for (const auto &pt : tier.points)
            EXPECT_EQ(pt.value, 0.0);
}

TEST(TageZooTelemetry, ZeroedCountersProduceFiniteRatios)
{
    // A cache hit reports an all-zero KernelTelemetry; every derived
    // ratio must degrade to 0.0 rather than dividing by zero.
    KernelTelemetry k;
    EXPECT_EQ(k.lanesPerGroup(), 0.0);
    EXPECT_EQ(k.modelLanesPerGroup(), 0.0);
    EXPECT_EQ(k.segmentsPerGroup(), 0.0);
    EXPECT_EQ(k.shardsPerGroup(), 0.0);
    EXPECT_EQ(k.workerUtilization(), 0.0);
    EXPECT_EQ(k.hotBytesPerBranch(), 0.0);
}
