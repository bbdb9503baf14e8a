/**
 * @file
 * One pass of the service workload: an in-process SweepServer on a
 * unix socket and a closed loop of explorer clients (one per hardware
 * thread), each holding one connection and sending its next protocol
 * line only after the reply to the previous one arrives.  Traces are
 * interned during set-up.
 */

#ifndef PERFBENCH_HARNESS_SERVICE_HH
#define PERFBENCH_HARNESS_SERVICE_HH

#include <cstdint>
#include <string>

#include "harness/requests.hh"
#include "service/json.hh"

namespace perfbench {

struct ServicePassConfig
{
    std::uint64_t branches = kTimedBranches;
    std::uint64_t seed = kDefaultSeed;
    bool trace = false;
    /** Socket path, relative to the working directory. */
    std::string socketPath;
    std::string spansPath;
    /** Recompute every distinct sweep on the cold path, compare each
     *  sweep reply with it, and sample the reference model.  This
     *  costs about as much as the timed region, so a run does it on
     *  its first pass only; every later pass must produce the same
     *  digest, which covers every reply. */
    bool coldCheck = true;
};

/** Run one pass; the result object mirrors runPaperPass()'s. */
bpsim::service::JsonValue runServicePass(const ServicePassConfig &config);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_SERVICE_HH
