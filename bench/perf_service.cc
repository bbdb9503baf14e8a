/**
 * @file
 * Service coalescing benchmark: what the sweep daemon's BatchQueue
 * buys when M clients ask for overlapping sweeps at once.
 *
 *   serial     M requests served one after another by a plain
 *              SweepSession (every request a full trace replay; the
 *              no-daemon baseline)
 *   service    the same M requests submitted concurrently through
 *              SweepServer::submitSweep -- submitters that pile up
 *              behind a drain are combined, and requests sharing a
 *              first-level stream are answered by ONE envelope
 *              replay sliced per request
 *
 * All requests run with bypassCache, so neither mode ever answers
 * from the result cache: the comparison isolates the coalescing
 * machinery itself.  Every service response is verified bit-identical
 * to its serial counterpart (a coalesced slice that differed would
 * make the whole design unsound), so the timing comparison is fair.
 *
 * Speedups are *reported*, never asserted -- the committed
 * BENCH_service.json seeds the perf trajectory; the `perf` ctest
 * label just smokes the binary (see EXPERIMENTS.md).
 *
 * Knobs: branches=N (default 400000), clients=M (default 8),
 * reps=N (best-of, default 2), profile=NAME, json=FILE.
 */

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <optional>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "service/server.hh"

using namespace bpsim;
using namespace bpsim::bench;

namespace {

/** The lattice client @p i asks for: overlapping, not identical,
 *  tier ranges -- the realistic "several explorers on one trace"
 *  shape the daemon exists for. */
SweepRequest
clientRequest(const TraceHash &trace, unsigned i)
{
    SweepOptions opts;
    opts.minTotalBits = 4 + i % 3;
    opts.maxTotalBits = 12;
    opts.trackAliasing = true;
    opts.threads = 1;
    SweepRequest request{trace, SchemeKind::Gshare, opts};
    request.bypassCache = true; // measure replays, not cache hits
    return request;
}

void
checkIdentical(const SweepResult &expect, const SweepResult &got,
               unsigned client)
{
    const auto &a = expect.misprediction.tiers();
    const auto &b = got.misprediction.tiers();
    bpsim_assert(a.size() == b.size(), "tier count drift, client ",
                 client);
    for (std::size_t t = 0; t < a.size(); ++t)
        for (std::size_t p = 0; p < a[t].points.size(); ++p)
            bpsim_assert(
                a[t].points[p].value == b[t].points[p].value,
                "coalesced slice diverges from the serial sweep "
                "(client ", client, ", tier 2^", a[t].totalBits,
                ") -- coalescing is not bit-identical");
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg = Config::parseArgs(argc, argv);
    const auto branches = static_cast<std::uint64_t>(
        cli::requireInt(cfg, "branches", 400000));
    const auto clients = static_cast<unsigned>(
        cli::requireInt(cfg, "clients", 8));
    const auto reps =
        static_cast<unsigned>(cli::requireInt(cfg, "reps", 2));
    const std::string profile =
        cfg.getString("profile", "mpeg_play");
    const std::string json_path =
        cfg.getString("json", "BENCH_service.json");

    banner("Sweep service: serial clients vs coalescing BatchQueue");
    std::printf("profile %s, %llu conditional branches, %u clients, "
                "gshare tiers 2^4..2^12, best of %u rep%s\n\n",
                profile.c_str(),
                static_cast<unsigned long long>(branches), clients,
                reps, reps == 1 ? "" : "s");

    // Serial baseline + reference results.
    SweepSession serial_session;
    TraceHandle handle =
        internProfile(serial_session, profile, branches);
    std::vector<std::optional<SweepResult>> reference(clients);
    double serial_s = 0.0;
    for (unsigned rep = 0; rep < reps; ++rep) {
        WallTimer timer;
        for (unsigned i = 0; i < clients; ++i) {
            SweepResult r =
                cli::orFatal(serial_session.sweep(
                                 clientRequest(handle.hash, i)))
                    .result;
            if (rep == 0)
                reference[i].emplace(std::move(r));
        }
        const double s = timer.seconds();
        serial_s = rep == 0 ? s : std::min(serial_s, s);
    }

    // Service mode: the same requests, submitted concurrently.
    service::ServerOptions opts;
    opts.threads = 1; // coalescing, not thread-parallel replay
    service::SweepServer server(opts);
    cli::orFatal(
        server.session().internProfile(profile, branches));

    double service_s = 0.0;
    for (unsigned rep = 0; rep < reps; ++rep) {
        std::barrier gate(clients);
        std::vector<std::thread> threads;
        WallTimer timer;
        for (unsigned i = 0; i < clients; ++i) {
            threads.emplace_back([&, i] {
                gate.arrive_and_wait();
                SweepResult r =
                    cli::orFatal(server.submitSweep(
                                     clientRequest(handle.hash, i)))
                        .result;
                checkIdentical(*reference[i], r, i);
            });
        }
        for (std::thread &t : threads)
            t.join();
        const double s = timer.seconds();
        service_s = rep == 0 ? s : std::min(service_s, s);
    }

    const service::ServerStats stats = server.stats();
    const double speedup = serial_s / service_s;
    std::printf("serial   %9.3f s (%u full replays)\n", serial_s,
                clients);
    std::printf("service  %9.3f s (%5.2fx; %llu envelope replays, "
                "%llu fused groups, %llu of %llu requests "
                "coalesced)\n",
                service_s, speedup,
                static_cast<unsigned long long>(
                    stats.queue.batch.envelopeSweeps),
                static_cast<unsigned long long>(
                    stats.queue.batch.fusedGroupsFormed),
                static_cast<unsigned long long>(
                    stats.queue.batch.coalescedRequests),
                static_cast<unsigned long long>(
                    stats.queue.submissions));
    std::printf("(every service response verified bit-identical to "
                "its serial counterpart)\n");

    FILE *json = std::fopen(json_path.c_str(), "w");
    if (!json)
        bpsim_fatal("cannot write ", json_path);
    std::fprintf(json, "{\n  \"bench\": \"perf_service\",\n");
    writeHost(json);
    std::fprintf(json, "  \"profile\": \"%s\",\n", profile.c_str());
    std::fprintf(json, "  \"branches\": %llu,\n",
                 static_cast<unsigned long long>(branches));
    std::fprintf(json, "  \"clients\": %u,\n", clients);
    std::fprintf(json, "  \"reps\": %u,\n", reps);
    std::fprintf(json, "  \"scheme\": \"gshare\",\n");
    std::fprintf(json, "  \"tiers\": [4, 12],\n");
    std::fprintf(json,
                 "  \"serial\": {\"seconds\": %.6f, \"replays\": "
                 "%u},\n",
                 serial_s, clients);
    std::fprintf(
        json,
        "  \"service\": {\"seconds\": %.6f, \"speedup\": %.3f,\n"
        "    \"submissions\": %llu, \"drains\": %llu, "
        "\"multi_request_drains\": %llu,\n"
        "    \"envelope_sweeps\": %llu, \"fused_groups\": %llu, "
        "\"coalesced_requests\": %llu},\n",
        service_s, speedup,
        static_cast<unsigned long long>(stats.queue.submissions),
        static_cast<unsigned long long>(stats.queue.drains),
        static_cast<unsigned long long>(
            stats.queue.multiRequestDrains),
        static_cast<unsigned long long>(
            stats.queue.batch.envelopeSweeps),
        static_cast<unsigned long long>(
            stats.queue.batch.fusedGroupsFormed),
        static_cast<unsigned long long>(
            stats.queue.batch.coalescedRequests));
    std::fprintf(json, "  \"verified\": \"bit-identical to serial "
                       "sweeps\"\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
}
