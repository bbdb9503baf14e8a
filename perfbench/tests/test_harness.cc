/**
 * Unit tests for the benchmark's own logic: span self time, failure
 * accounting, and seed determinism of the generated inputs.
 */

#include <set>

#include <gtest/gtest.h>

#include "harness/requests.hh"
#include "harness/spans.hh"
#include "harness/tally.hh"
#include "workload/profiles.hh"
#include "workload/trace_key.hh"

namespace perfbench {
namespace {

Span
span(std::uint64_t id, std::uint64_t parent, double start, double end,
     std::string name = "span")
{
    return Span{std::move(name), start, end, id, parent, 0};
}

TEST(Spans, SelfTimeSubtractsNestedChildren)
{
    // root [0,10] > a [1,4] > a1 [2,3]; root > b [5,7]
    const std::vector<Span> spans = {
        span(1, 0, 0, 10), span(2, 1, 1, 4), span(3, 2, 2, 3),
        span(4, 1, 5, 7)};
    const auto self = selfSeconds(spans);
    EXPECT_DOUBLE_EQ(self.at(1), 10 - 3 - 2);
    EXPECT_DOUBLE_EQ(self.at(2), 3 - 1);
    EXPECT_DOUBLE_EQ(self.at(3), 1);
    EXPECT_DOUBLE_EQ(self.at(4), 2);
}

TEST(Spans, OverlappingChildrenCountOnceAndAreClipped)
{
    // Concurrent children [1,5] and [3,6] cover [1,6]; a child running
    // past the parent's end counts only inside the parent.
    const std::vector<Span> spans = {
        span(1, 0, 0, 8), span(2, 1, 1, 5), span(3, 1, 3, 6),
        span(4, 1, 7, 12)};
    EXPECT_DOUBLE_EQ(selfSeconds(spans).at(1), 8 - 5 - 1);
}

TEST(Spans, SelfTimeByNameSumsSpansOfOneLayer)
{
    const std::vector<Span> spans = {span(1, 0, 0, 10, "root"),
                                     span(2, 1, 0, 2, "layer"),
                                     span(3, 1, 4, 5, "layer")};
    const auto byName = selfSecondsByName(spans);
    EXPECT_DOUBLE_EQ(byName.at("layer"), 3);
    EXPECT_DOUBLE_EQ(byName.at("root"), 7);
}

TEST(Spans, RecorderKeepsParentsAndRequestsAndCanBeOff)
{
    SpanRecorder on(true);
    {
        ScopedSpan root(on, "root");
        ScopedSpan child(on, "child", root.id(), 42);
        child.rename("renamed");
    }
    const std::vector<Span> spans = on.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "renamed");
    EXPECT_EQ(spans[0].parent, spans[1].id);
    EXPECT_EQ(spans[0].request, 42u);
    EXPECT_LE(spans[1].start, spans[0].start);
    EXPECT_GE(spans[1].end, spans[0].end);

    SpanRecorder off(false);
    {
        ScopedSpan s(off, "x");
        EXPECT_GE(s.finish(), 0.0);
    }
    EXPECT_TRUE(off.spans().empty());
}

TEST(Tally, FailedFracCountsErrorsAndMismatches)
{
    Tally t;
    t.pass();
    t.pass();
    t.error("sweep returned an error");
    t.check(false, "surface differs");
    t.check(true, "unused");
    EXPECT_EQ(t.attempted(), 5u);
    EXPECT_EQ(t.failed(), 2u);
    ASSERT_EQ(t.problems().size(), 2u);
    EXPECT_NE(t.problems()[0].find("error"), std::string::npos);
    EXPECT_NE(t.problems()[1].find("mismatch"), std::string::npos);
}

std::vector<bpsim::TraceHash>
serviceTraces(std::uint64_t seed)
{
    std::vector<bpsim::TraceHash> out;
    for (const std::string &p : serviceProfiles())
        out.push_back(bpsim::syntheticTraceKey(
            traceParams(p, kTimedBranches, seed)));
    return out;
}

TEST(Inputs, SameSeedGivesIdenticalScriptsAndRequestSets)
{
    for (std::uint64_t seed : {kDefaultSeed, std::uint64_t{7}}) {
        for (unsigned c = 0; c < 4; ++c) {
            EXPECT_EQ(serviceScript(seed, c, serviceTraces(seed)),
                      serviceScript(seed, c, serviceTraces(seed)));
        }
        EXPECT_EQ(describeRequestSet(paperRequestSet(), kTimedBranches,
                                     seed),
                  describeRequestSet(paperRequestSet(), kTimedBranches,
                                     seed));
    }
    EXPECT_NE(serviceScript(kDefaultSeed, 0, serviceTraces(kDefaultSeed)),
              serviceScript(7, 0, serviceTraces(7)));
    EXPECT_NE(serviceScript(kDefaultSeed, 0, serviceTraces(kDefaultSeed)),
              serviceScript(kDefaultSeed, 1, serviceTraces(kDefaultSeed)));
    EXPECT_NE(describeRequestSet(paperRequestSet(), kTimedBranches,
                                 kDefaultSeed),
              describeRequestSet(paperRequestSet(), kTimedBranches, 7));
}

TEST(Inputs, DefaultSeedKeepsProfileSeeds)
{
    for (const std::string &p : serviceProfiles()) {
        EXPECT_EQ(traceParams(p, 1000, kDefaultSeed).seed,
                  bpsim::profileParams(p, 1000).seed);
        EXPECT_NE(traceParams(p, 1000, 7).seed,
                  bpsim::profileParams(p, 1000).seed);
    }
}

TEST(Inputs, ScriptsMixRepeatsAndLightOps)
{
    const auto script = serviceScript(kDefaultSeed, 0,
                                      serviceTraces(kDefaultSeed));
    std::size_t sweeps = 0, light = 0;
    for (const std::string &line : script)
        (line.find("\"sweep\"") != std::string::npos ? sweeps : light) += 1;
    EXPECT_EQ(sweeps, kServiceSweepsPerClient);
    EXPECT_EQ(light, kServiceSweepsPerClient);
}

TEST(Inputs, RequestSetCoversEveryBenchAndReplayPath)
{
    const auto requests = paperRequestSet();
    std::set<std::string> benches;
    std::set<ReplayPath> paths;
    for (const PaperRequest &r : requests) {
        benches.insert(r.bench);
        if (r.op == OpKind::Sweep)
            paths.insert(replayPath(r.kind, r.options));
    }
    EXPECT_EQ(benches.size(), paperBenches().size());
    EXPECT_EQ(paths.size(), static_cast<std::size_t>(kReplayPaths));
}

} // namespace
} // namespace perfbench
