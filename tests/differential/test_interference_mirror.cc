/**
 * @file
 * Differential check of analyzeInterference against its reference
 * mirror (interference_mirror.hh): all seven InterferenceResult
 * counters must agree exactly, for every scheme, on two generated
 * workloads of different branch footprints.
 *
 * Geometries include a table without rows, a table without columns
 * and a row width above 15 (wider than the sweep's narrow record), and
 * PAs(bht) runs under every BhtResetPolicy on a BHT small enough to
 * miss.  The zoo's row width is TAGE's entry width and the
 * perceptron's history length; TAGE needs at least one row and column
 * bit, and its widest case stays at 12 bits because the mirror gives
 * every static branch a full private TAGE.  Every case runs the
 * analyzer at 1, 3 and 4 threads: its private pass splits static
 * branches across executors, and no split may change a count.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "interference_mirror.hh"
#include "workload/synthetic.hh"

using namespace bpsim;

namespace {

using Geometry = std::pair<unsigned, unsigned>; // (row bits, col bits)

const PreparedTrace &
workload(bool wide)
{
    static const auto make = [](std::uint64_t seed, std::size_t statics,
                                unsigned functions) {
        WorkloadParams p;
        p.name = "interference-mirror-" + std::to_string(seed);
        p.seed = seed;
        p.staticBranches = statics;
        p.functionCount = functions;
        p.targetConditionals = 30'000;
        return PreparedTrace(generateTrace(p));
    };
    static const PreparedTrace narrow = make(61, 60, 6);
    static const PreparedTrace broad = make(62, 700, 50);
    return wide ? broad : narrow;
}

std::vector<Geometry>
geometries(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::Tage:
        return {{1, 1}, {6, 4}, {12, 2}};
      case SchemeKind::Perceptron:
        return {{1, 0}, {8, 4}, {20, 6}};
      default:
        return {{0, 6}, {7, 0}, {17, 2}, {5, 3}};
    }
}

void
expectMatchesMirror(const PreparedTrace &t, SchemeKind kind,
                    const Geometry &g, SweepOptions opts,
                    const std::string &what)
{
    const InterferenceResult want =
        mirror::mirrorInterference(t, kind, g.first, g.second, opts);
    for (unsigned threads : {1u, 3u, 4u}) {
        opts.threads = threads;
        const InterferenceResult got =
            analyzeInterference(t, kind, g.first, g.second, opts);
        const std::string ctx = what + " " + schemeKindName(kind) +
            " r=" + std::to_string(g.first) + " c=" +
            std::to_string(g.second) + " on " + t.name() + " at " +
            std::to_string(threads) + " threads";
        EXPECT_EQ(got.instances, want.instances) << ctx;
        EXPECT_EQ(got.sharedMispredicts, want.sharedMispredicts) << ctx;
        EXPECT_EQ(got.privateMispredicts, want.privateMispredicts) << ctx;
        EXPECT_EQ(got.destructive, want.destructive) << ctx;
        EXPECT_EQ(got.constructive, want.constructive) << ctx;
        EXPECT_EQ(got.coldMispredicts, want.coldMispredicts) << ctx;
        EXPECT_EQ(got.capacityMispredicts, want.capacityMispredicts)
            << ctx;
    }
}

} // namespace

TEST(InterferenceMirror, EverySchemeAndGeometryMatchesExactly)
{
    SweepOptions opts;
    opts.pathBitsPerTarget = 3;
    opts.bhtEntries = 32;
    opts.bhtAssoc = 2;
    for (bool wide : {false, true})
        for (SchemeKind kind : kSchemeKinds)
            for (const Geometry &g : geometries(kind))
                expectMatchesMirror(workload(wide), kind, g, opts,
                                    "default");
}

TEST(InterferenceMirror, PasBhtMatchesUnderEveryResetPolicy)
{
    for (BhtResetPolicy policy :
         {BhtResetPolicy::C3ffPrefix, BhtResetPolicy::Zeros,
          BhtResetPolicy::Ones, BhtResetPolicy::Hold}) {
        SweepOptions opts;
        opts.bhtEntries = 64;
        opts.bhtAssoc = 4;
        opts.bhtResetPolicy = policy;
        for (bool wide : {false, true})
            for (const Geometry &g : geometries(SchemeKind::PAsFinite))
                expectMatchesMirror(workload(wide), SchemeKind::PAsFinite,
                                    g, opts, bhtResetPolicyName(policy));
    }
}

TEST(InterferenceMirror, PathMatchesAtEveryTargetWidthBound)
{
    for (unsigned bits : {1u, 16u}) {
        SweepOptions opts;
        opts.pathBitsPerTarget = bits;
        for (bool wide : {false, true})
            expectMatchesMirror(workload(wide), SchemeKind::Path, {9, 3},
                                opts, "path bits " + std::to_string(bits));
    }
}
