#include "harness/service.hh"

#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#include "common/random.hh"
#include "common/thread_pool.hh"
#include "harness/checks.hh"
#include "harness/host.hh"
#include "harness/json_out.hh"
#include "harness/spans.hh"
#include "harness/tally.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "workload/trace_key.hh"

namespace perfbench {

using namespace bpsim;
using service::JsonValue;

namespace {

struct Reply
{
    std::string text;
    std::string transportError;
    double seconds = 0.0;
};

/** Runs SweepServer::serveSocket on its own thread; stops the server
 *  and joins the thread on every exit path. */
class ServerThread
{
  public:
    ServerThread(service::SweepServer &server, const std::string &path)
        : server_(server),
          thread_([this, path] { status_ = server_.serveSocket(path); })
    {
    }
    /** Exception paths only; the normal path checks stop()'s status. */
    ~ServerThread() { static_cast<void>(stop()); }

    ServerThread(const ServerThread &) = delete;
    ServerThread &operator=(const ServerThread &) = delete;

    /** Shut the server down and wait for it; returns serveSocket's
     *  status. */
    Status
    stop()
    {
        if (thread_.joinable()) {
            server_.handleLine(R"({"op":"shutdown"})");
            thread_.join();
        }
        return status_;
    }

  private:
    service::SweepServer &server_;
    Status status_;
    std::thread thread_;
};

/** Limits wide enough for a full sweep reply. */
service::JsonLimits
replyLimits()
{
    service::JsonLimits limits;
    limits.maxMembers = 1u << 16;
    limits.maxDepth = 32;
    return limits;
}

} // namespace

JsonValue
runServicePass(const ServicePassConfig &cfg)
{
    const unsigned clients = ThreadPool::hardwareThreads();
    SpanRecorder spans(cfg.trace);
    Tally tally;

    // Set-up: server, traces, connections, scripts.
    service::ServerOptions options;
    options.threads = ThreadPool::hardwareThreads();
    service::SweepServer server(options);
    std::vector<TraceHash> traces;
    double internS = 0.0;
    for (const std::string &profile : serviceProfiles()) {
        ScopedSpan s(spans, "trace.intern");
        const TraceHandle handle =
            internParams(server.session().registry(),
                         traceParams(profile, cfg.branches, cfg.seed));
        internS += s.finish();
        traces.push_back(handle.hash);
    }
    ServerThread serverThread(server, cfg.socketPath);
    std::vector<service::LineChannel> channels;
    const double connectDeadline = monotonicSeconds() + 10.0;
    while (channels.size() < clients) {
        Result<service::LineChannel> ch =
            service::connectUnixSocket(cfg.socketPath);
        if (ch.ok()) {
            channels.push_back(std::move(ch).value());
        } else if (monotonicSeconds() > connectDeadline) {
            tally.error("connect: " + ch.error().message());
            break;
        } else {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }
    std::vector<std::vector<std::string>> scripts;
    std::vector<std::vector<service::Request>> parsed;
    for (unsigned c = 0; c < clients; ++c) {
        scripts.push_back(serviceScript(cfg.seed, c, traces));
        parsed.emplace_back();
        for (const std::string &line : scripts.back()) {
            Result<JsonValue> json = service::parseJson(line);
            Result<service::Request> req =
                json.ok() ? service::parseRequest(json.value())
                          : Result<service::Request>(json.error());
            if (!req.ok()) {
                tally.error("script line: " + req.error().message());
                parsed.back().emplace_back();
                continue;
            }
            parsed.back().push_back(std::move(req).value());
        }
    }
    std::vector<std::vector<Reply>> replies(clients);
    std::vector<std::string> clientErrors(clients);
    const std::uint64_t missesBefore = server.session().registry().misses();
    const std::uint64_t recordsBefore =
        server.session().registry().residentRecords();

    // Timed region: the closed loop.
    const double readyAt = monotonicSeconds();
    ScopedSpan pass(spans, "bench.pass");
    {
        std::vector<std::jthread> workers;
        for (unsigned c = 0; c < channels.size(); ++c) {
            workers.emplace_back([&, c] {
              try {
                ScopedSpan client(spans, "service.client", pass.id());
                for (std::size_t j = 0; j < scripts[c].size(); ++j) {
                    const std::uint64_t rid = (c + 1) * 100000 + j;
                    ScopedSpan rt(spans,
                                  std::string("service.") +
                                      service::requestOpName(
                                          parsed[c][j].op),
                                  client.id(), rid);
                    Result<std::string> reply =
                        service::roundTrip(channels[c], scripts[c][j]);
                    Reply r;
                    r.seconds = rt.finish();
                    if (reply.ok())
                        r.text = std::move(reply).value();
                    else
                        r.transportError = reply.error().message();
                    replies[c].push_back(std::move(r));
                }
              } catch (const std::exception &e) {
                clientErrors[c] = e.what();
              }
            });
        }
    }
    const double wall = monotonicSeconds() - readyAt;
    pass.finish();
    const std::uint64_t timedGenerations =
        server.session().registry().misses() - missesBefore;
    const std::uint64_t timedRecords =
        server.session().registry().residentRecords() - recordsBefore;
    const service::ServerStats stats = server.stats();
    const ResultCache::Stats cacheStats = server.session().cache().stats();

    const Status serveStatus = serverThread.stop();
    if (!serveStatus.ok())
        tally.error("serveSocket: " + serveStatus.error().message());
    for (const std::string &e : clientErrors)
        if (!e.empty())
            tally.error("client: " + e);

    // Checks, outside the timed region: every point against a direct
    // probe and, with coldCheck, every sweep reply against the same
    // request computed on the cold path (an uncached, uncoalesced
    // sweep) plus the reference-model samples.
    std::map<TraceHash, std::uint64_t> conds;
    for (const TraceHash &h : traces) {
        conds[h] = conditionalBranches(
            *server.session().registry().lookup(h).trace);
    }
    struct Expected
    {
        SweepRequest request;
        std::string render;
        std::optional<SweepResult> result;
        std::string error;
    };
    // One cold-path sweep per distinct request line (id aside), in
    // order of first appearance, computed concurrently: one sweep
    // thread each, as the engine's results do not depend on it.
    auto sweepKey = [&](unsigned c, std::size_t j) {
        JsonValue key = service::parseJson(scripts[c][j]).value();
        key.object().erase("id");
        return key.render();
    };
    std::map<std::string, Expected> expected;
    std::vector<Expected *> sampled;
    for (unsigned c = 0; cfg.coldCheck && c < channels.size(); ++c) {
        for (std::size_t j = 0; j < replies[c].size(); ++j) {
            const service::Request &req = parsed[c][j];
            if (req.op != service::RequestOp::Sweep)
                continue;
            auto [it, fresh] = expected.try_emplace(sweepKey(c, j));
            if (!fresh)
                continue;
            it->second.request = SweepRequest{
                req.trace.hash, server.schemes().resolve(req.scheme).value(),
                req.options, true};
            it->second.request.options.threads = 1;
            sampled.push_back(&it->second);
        }
    }
    {
        std::atomic<std::size_t> next{0};
        std::vector<std::jthread> workers;
        for (unsigned w = 0; w < clients; ++w) {
            workers.emplace_back([&] {
                for (std::size_t k; (k = next++) < sampled.size();) {
                    Expected &e = *sampled[k];
                    Result<SweepResponse> r = server.session().sweep(e.request);
                    if (!r.ok()) {
                        e.error = r.error().message();
                        continue;
                    }
                    e.result = r.value().result;
                    e.render = service::sweepResponseJson(r.value())
                                   .find("result")
                                   ->render();
                }
            });
        }
    }
    std::vector<double> sweepMs, lightMs, outsideMs, memoryHitUs;
    double replayS = 0.0, replayBcus = 0.0;
    std::uint64_t bcus = 0, lines = 0, sweepReplies = 0;
    HashStream digest("perfbench.service.v1");
    for (unsigned c = 0; c < clients && c < channels.size(); ++c) {
        for (std::size_t j = 0; j < replies[c].size(); ++j) {
            ++lines;
            const Reply &rep = replies[c][j];
            const service::Request &req = parsed[c][j];
            const bool sweep = req.op == service::RequestOp::Sweep;
            (sweep ? sweepMs : lightMs).push_back(rep.seconds * 1e3);
            if (!rep.transportError.empty()) {
                tally.error("transport: " + rep.transportError);
                continue;
            }
            Result<JsonValue> json =
                service::parseJson(rep.text, replyLimits());
            const JsonValue *ok = json.ok() ? json.value().find("ok") : nullptr;
            if (!ok || !ok->isBool() || !ok->asBool()) {
                tally.error("reply: " + rep.text.substr(0, 200));
                continue;
            }
            const JsonValue &v = json.value();
            if (sweep) {
                ++sweepReplies;
                const JsonValue *result = v.find("result");
                const std::string actual = result ? result->render() : "";
                if (!cfg.coldCheck) {
                    tally.pass();
                } else if (const Expected &e = expected.at(sweepKey(c, j));
                           !e.result) {
                    tally.error("cold sweep: " + e.error);
                    continue;
                } else {
                    tally.check(actual == e.render,
                                "sweep reply differs from the cold path: " +
                                    scripts[c][j]);
                }
                digest.str(actual);
                const double engine = v.find("seconds")->asDouble();
                outsideMs.push_back((rep.seconds - engine) * 1e3);
                const std::uint64_t b =
                    sweepConfigs(server.schemes().resolve(req.scheme).value(),
                                 req.options) *
                    conds[req.trace.hash];
                bcus += b;
                if (v.find("cache_hit")->asBool()) {
                    memoryHitUs.push_back(engine * 1e6);
                } else {
                    replayS += engine;
                    replayBcus += static_cast<double>(b);
                }
            } else if (req.op == service::RequestOp::Point) {
                Result<ConfigResult> direct = server.session().point(
                    req.trace.hash,
                    server.schemes().resolve(req.scheme).value(),
                    req.rowBits, req.colBits, req.options);
                const JsonValue *misp = v.find("misp_rate");
                tally.check(direct.ok() && misp &&
                                misp->asDouble() == direct.value().mispRate,
                            "point reply differs: " + scripts[c][j]);
                if (misp)
                    digest.f64(misp->asDouble());
            } else {
                tally.pass();
            }
        }
    }
    std::erase_if(sampled, [](const Expected *e) { return !e->result; });
    Pcg32 rng(cfg.seed, 0x736572766963ULL);
    for (unsigned s = 0; s < kReferenceSamples && !sampled.empty(); ++s) {
        const Expected &e = *sampled[rng.nextBounded(
            static_cast<std::uint32_t>(sampled.size()))];
        const TraceHandle handle =
            server.session().registry().lookup(e.request.trace);
        checkAgainstReference(*handle.trace, e.request.kind,
                              e.request.options, e.result->misprediction,
                              rng, tally);
    }

    JsonValue::Object out;
    out.emplace("ready_at", JsonValue(readyAt));
    out.emplace("wall_s", JsonValue(wall));
    out.emplace("requests", count(lines));
    out.emplace("sweeps", count(sweepReplies));
    out.emplace("bcus", count(bcus));
    out.emplace("sweep_ms", numbers(sweepMs));
    out.emplace("light_ms", numbers(lightMs));
    out.emplace("digest", JsonValue(digest.digest().hex()));
    out.emplace("peak_rss_mb", JsonValue(peakRssMb()));

    if (cfg.trace) {
        double parseS = 0.0;
        constexpr int kParseRepeats = 20;
        std::uint64_t parsedLines = 0;
        const double t0 = monotonicSeconds();
        for (int rep = 0; rep < kParseRepeats; ++rep) {
            for (const auto &script : scripts) {
                for (const std::string &line : script) {
                    Result<JsonValue> json = service::parseJson(line);
                    if (json.ok())
                        static_cast<void>(service::parseRequest(json.value()));
                    ++parsedLines;
                }
            }
        }
        parseS = monotonicSeconds() - t0;

        const KernelTelemetry &kernel = stats.queue.batch.kernel;
        JsonValue::Object l;
        l.emplace("trace.intern_s", JsonValue(internS));
        l.emplace("workload.generations", count(timedGenerations));
        l.emplace("workload.generated_mbranches",
                  JsonValue(static_cast<double>(timedRecords) / 1e6));
        l.emplace("sim.replay_s.alias", JsonValue(replayS));
        l.emplace("sim.bcus.alias", JsonValue(replayBcus));
        l.emplace("sim.fused_groups", count(kernel.fusedGroups));
        l.emplace("sim.lanes_per_group", JsonValue(kernel.lanesPerGroup()));
        l.emplace("sim.fallback_jobs", count(kernel.fallbackJobs));
        l.emplace("sim.model_lanes_per_group",
                  JsonValue(kernel.modelLanesPerGroup()));
        l.emplace("sim.worker_utilization",
                  JsonValue(kernel.workerUtilization()));
        l.emplace("sim.hot_bytes_per_branch",
                  JsonValue(kernel.hotBytesPerBranch()));
        l.emplace("cache.memory_hit_us", numbers(memoryHitUs));
        l.emplace("cache.hits", count(cacheStats.hits()));
        l.emplace("cache.lookups", count(cacheStats.hits() + cacheStats.misses));
        l.emplace("cache.misses", count(cacheStats.misses));
        l.emplace("cache.disk_hits", count(cacheStats.diskHits));
        l.emplace("cache.store_failures", count(cacheStats.storeFailures));
        l.emplace("cache.corrupt", count(cacheStats.corrupt));
        l.emplace("service.outside_engine_ms", numbers(outsideMs));
        const auto &q = stats.queue;
        l.emplace("service.coalesced_frac",
                  JsonValue(q.submissions ? static_cast<double>(
                                                q.batch.coalescedRequests) /
                                                static_cast<double>(q.submissions)
                                          : 0.0));
        l.emplace("service.requests_per_drain",
                  JsonValue(q.drains ? static_cast<double>(q.submissions) /
                                           static_cast<double>(q.drains)
                                     : 0.0));
        l.emplace("service.envelope_sweeps", count(q.batch.envelopeSweeps));
        l.emplace("service.errors", count(stats.errors));
        l.emplace("service.parse_us",
                  JsonValue(parsedLines ? parseS * 1e6 /
                                              static_cast<double>(parsedLines)
                                        : 0.0));
        const std::vector<Span> all = spans.spans();
        JsonValue::Object self;
        for (const auto &[name, sec] : selfSecondsByName(all))
            self.emplace(name, JsonValue(sec));
        l.emplace("self_s", JsonValue(std::move(self)));
        l.emplace("bench.unaccounted_s",
                  JsonValue(selfSeconds(all).at(pass.id())));
        out.emplace("layers", JsonValue(std::move(l)));
        if (!cfg.spansPath.empty() && !spans.writeJson(cfg.spansPath))
            tally.error("cannot write " + cfg.spansPath);
    }
    out.emplace("attempted", count(tally.attempted()));
    out.emplace("failed", count(tally.failed()));
    JsonValue::Array problems;
    for (const std::string &p : tally.problems())
        problems.emplace_back(p);
    out.emplace("problems", JsonValue(std::move(problems)));
    return JsonValue(std::move(out));
}

} // namespace perfbench
