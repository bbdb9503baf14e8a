/**
 * @file
 * The benchmark's inputs, all derived from the workload seed.
 *
 *  - traceParams(): a paper profile's generator parameters.  The
 *    default seed keeps every profile's own seed, so surfaces match
 *    the committed golden files; any other seed re-seeds each profile.
 *  - paperRequestSet(): the requests behind the paper's figure and
 *    table benches (bench/fig*.cc, bench/table*.cc), in bench order,
 *    each with the profile, SchemeKind and SweepOptions its bench
 *    uses.
 *  - serviceScript(): one explorer client's protocol lines.
 */

#ifndef PERFBENCH_HARNESS_REQUESTS_HH
#define PERFBENCH_HARNESS_REQUESTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sweep.hh"
#include "trace/memory_trace.hh"
#include "trace/trace_hash.hh"
#include "workload/builder.hh"

namespace perfbench {

/** The seed at which profiles keep their own generator seeds. */
constexpr std::uint64_t kDefaultSeed = 1;

/** Trace length of the timed paper and service passes.  The benches
 *  default to each profile's own length (1.5M-2.5M branches); at this
 *  length a paper pass spends its time in the same layers, in nearly
 *  the same shares, while a pass stays short enough to repeat. */
constexpr std::uint64_t kTimedBranches = 300000;

/** Trace length the bench/golden files were emitted with. */
constexpr std::uint64_t kGoldenBranches = 6000;

bpsim::WorkloadParams traceParams(const std::string &profile,
                                  std::uint64_t branches,
                                  std::uint64_t seed);

enum class OpKind
{
    Sweep,        ///< SweepSession::sweep
    Interference, ///< analyzeInterference on the prepared trace
    Characterize, ///< TraceCharacterization::measure
};

struct PaperRequest
{
    /** Bench the request mirrors, e.g. "fig5_gas_aliasing". */
    std::string bench;
    std::string profile;
    OpKind op = OpKind::Sweep;
    bpsim::SchemeKind kind = bpsim::SchemeKind::GAs;
    bpsim::SweepOptions options;
    /** Table-3 scheme name or fig_tage_aliasing budget label. */
    std::string label;
    /** Geometry of an Interference request. */
    unsigned rowBits = 0;
    unsigned colBits = 0;
};

/** Bench names in the order their requests run. */
const std::vector<std::string> &paperBenches();

/** Sweep threads are 0 (all hardware threads), the benches' default. */
std::vector<PaperRequest> paperRequestSet();

/** One text line per request plus the trace key each profile resolves
 *  to at @p seed: equal seeds give byte-identical text. */
std::string describeRequestSet(const std::vector<PaperRequest> &requests,
                               std::uint64_t branches,
                               std::uint64_t seed);

/** Which replay path a sweep request selects when it misses. */
enum class ReplayPath
{
    Fused, ///< fused packed 2-bit groups
    Alias, ///< aliasing-tracked per-config replay
    Bht,   ///< PAs through finite first-level BHT streams
    Model, ///< TAGE / perceptron model groups
};

constexpr int kReplayPaths = 4;

ReplayPath replayPath(bpsim::SchemeKind kind,
                      const bpsim::SweepOptions &options);

const char *replayPathName(ReplayPath path);

/** Configurations one sweep simulates (bcus per branch). */
std::uint64_t sweepConfigs(bpsim::SchemeKind kind,
                           const bpsim::SweepOptions &options);

/** Conditional branches of @p trace: a sweep's bcus are
 *  sweepConfigs() times this. */
std::uint64_t conditionalBranches(const bpsim::MemoryTrace &trace);

/** Traces the service workload interns during set-up. */
const std::vector<std::string> &serviceProfiles();

/** Sweep round trips in one client script. */
constexpr unsigned kServiceSweepsPerClient = 30;

/**
 * The protocol lines of explorer client @p client: sweeps of gshare,
 * GAs and PAs at the protocol defaults (aliasing tracked) over
 * overlapping tier windows, every third one repeating an earlier sweep
 * of the client, and a light op after every sweep: a point probe
 * after two sweeps in three, else a ping or a stats query in turn.  Traces are named by registry key (@p traces, in
 * serviceProfiles() order).
 */
std::vector<std::string>
serviceScript(std::uint64_t seed, unsigned client,
              const std::vector<bpsim::TraceHash> &traces);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_REQUESTS_HH
