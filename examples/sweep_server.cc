/**
 * @file
 * The sweep daemon binary: SweepSession as a service.
 *
 *   ./sweep_server [cache=DIR] [cache_budget=BYTES] [threads=N]
 *                  [socket=PATH] [max_bits=N]
 *
 * Speaks the newline-delimited JSON protocol of src/service/ --
 * one request line in, one response line out (see DESIGN.md "Sweep
 * service" and README "Sweep service quickstart").  By default it
 * serves stdin/stdout, which is what bpsim_client spawns as a
 * private engine; with socket=PATH it accepts any number of
 * concurrent clients on a local unix socket, coalescing their
 * overlapping sweeps into shared replays.
 *
 * The banner and diagnostics go to stderr: stdout carries protocol
 * bytes only.
 *
 *   cache=DIR          persistent .bpc result cache (shared safely
 *                      across processes; flock + atomic rename)
 *   cache_budget=N     on-disk LRU budget in bytes (0 = unbounded)
 *   threads=N          lane shards per sweep group (0 = all cores)
 *   socket=PATH        serve a unix socket instead of stdin/stdout
 *   max_bits=N         largest tier a request may ask for
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/config.hh"
#include "common/simd.hh"
#include "service/server.hh"

using namespace bpsim;

int
main(int argc, char **argv)
{
    Config cfg = Config::parseArgs(argc, argv);
    // Reject a typo'd BPSIM_SIMD override at startup: a daemon that
    // silently served every sweep with auto-detection would be much
    // harder to notice than one that refuses to start.
    cli::orFatal(simdEnvStatus());

    service::ServerOptions opts;
    opts.cacheDir = cfg.getString("cache", "");
    opts.cacheBudgetBytes = static_cast<std::uint64_t>(
        cli::requireInt(cfg, "cache_budget", 0));
    opts.threads =
        static_cast<unsigned>(cli::requireInt(cfg, "threads", 1));
    opts.limits.maxTotalBits = static_cast<unsigned>(cli::requireInt(
        cfg, "max_bits", opts.limits.maxTotalBits));
    const std::string socket = cfg.getString("socket", "");

    service::SweepServer server(opts);
    if (!socket.empty()) {
        std::fprintf(stderr,
                     "sweep_server: serving unix socket %s (cache=%s, "
                     "threads=%u)\n",
                     socket.c_str(),
                     opts.cacheDir.empty() ? "<memory>"
                                           : opts.cacheDir.c_str(),
                     opts.threads);
        cli::orFatal(server.serveSocket(socket));
    } else {
        std::fprintf(stderr,
                     "sweep_server: serving stdin/stdout (cache=%s, "
                     "threads=%u)\n",
                     opts.cacheDir.empty() ? "<memory>"
                                           : opts.cacheDir.c_str(),
                     opts.threads);
        cli::orFatal(server.servePipe(stdin, stdout));
    }

    const service::ServerStats stats = server.stats();
    std::fprintf(stderr,
                 "sweep_server: done (%llu requests, %llu errors, "
                 "%llu drains, %llu coalesced)\n",
                 static_cast<unsigned long long>(stats.requests),
                 static_cast<unsigned long long>(stats.errors),
                 static_cast<unsigned long long>(stats.queue.drains),
                 static_cast<unsigned long long>(
                     stats.queue.batch.coalescedRequests));
    return 0;
}
