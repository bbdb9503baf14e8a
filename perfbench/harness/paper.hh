/**
 * @file
 * One pass of the paper workloads: every request behind the figure
 * and table benches, issued in-process through one SweepSession, with
 * each bench's output rendered as the bench renders it.
 *
 * paper_cold runs a pass on an empty .bpc directory; paper_warm runs
 * one on a directory an earlier cold pass filled.  The golden check is
 * a pass at the golden branch count whose per-bench results are
 * compared with bench/golden/<bench>.golden.
 */

#ifndef PERFBENCH_HARNESS_PAPER_HH
#define PERFBENCH_HARNESS_PAPER_HH

#include <cstdint>
#include <string>

#include "harness/requests.hh"
#include "service/json.hh"

namespace perfbench {

struct PaperPassConfig
{
    /** .bpc result-cache directory; empty keeps results in memory. */
    std::string cacheDir;
    std::uint64_t branches = kTimedBranches;
    std::uint64_t seed = kDefaultSeed;
    /** Record spans and per-layer counters. */
    bool trace = false;
    /** The cache directory starts empty, so build each trace's
     *  prepared form (sim.prepare) before its first sweep. */
    bool cold = true;
    /** When set, compare each bench's results with
     *  <goldenDir>/<bench>.golden (exact equality). */
    std::string goldenDir;
    /** Where a traced pass writes its spans (JSON array). */
    std::string spansPath;
};

/**
 * Run one pass and return its result object: ready_at (monotonic
 * seconds when the first request is issued), wall_s, counts,
 * per-request latencies and digests, failures, and -- for a traced
 * pass -- a "layers" object.
 */
bpsim::service::JsonValue runPaperPass(const PaperPassConfig &config);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_PAPER_HH
