/**
 * @file
 * In-process tests of the sweep daemon: every protocol verb through
 * SweepServer::handleLine, the central bit-identity contract (a sweep
 * served over the wire decodes to exactly the surfaces a direct
 * SweepSession computes), error classification, and the registry
 * extension points (a custom workload and a custom scheme alias are
 * served like builtins).
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <functional>
#include <thread>
#include <type_traits>

#include "service/client.hh"
#include "service/server.hh"
#include "sim/sweep_session.hh"
#include "trace/trace_io.hh"
#include "workload/profiles.hh"
#include "workload/synthetic.hh"

using namespace bpsim;
using namespace bpsim::service;

namespace {

constexpr const char *kProfile = "compress";
constexpr std::uint64_t kBranches = 20000;

SweepOptions
smallSweep()
{
    SweepOptions opts;
    opts.minTotalBits = 4;
    opts.maxTotalBits = 7;
    return opts;
}

JsonValue
handle(SweepServer &server, const std::string &line)
{
    Result<JsonValue> parsed = parseJson(server.handleLine(line));
    EXPECT_TRUE(parsed.ok());
    return parsed.ok() ? std::move(parsed).value() : JsonValue();
}

bool
isOk(const JsonValue &response)
{
    const JsonValue *ok = response.find("ok");
    return ok && ok->isBool() && ok->asBool();
}

std::string
errorCode(const JsonValue &response)
{
    const JsonValue *error = response.find("error");
    if (!error)
        return "";
    const JsonValue *code = error->find("code");
    return code && code->isString() ? code->asString() : "";
}

/** Decode a wire surface and compare bit-exactly against @p expect. */
void
expectWireSurfaceIdentical(const JsonValue &wire,
                           const Surface &expect)
{
    ASSERT_TRUE(wire.isArray());
    ASSERT_EQ(wire.array().size(), expect.tiers().size());
    for (std::size_t t = 0; t < expect.tiers().size(); ++t) {
        const SurfaceTier &tier = expect.tiers()[t];
        const JsonValue &wt = wire.array()[t];
        EXPECT_EQ(wt.find("total_bits")->asInt(),
                  static_cast<std::int64_t>(tier.totalBits));
        const JsonValue *points = wt.find("points");
        ASSERT_TRUE(points && points->isArray());
        ASSERT_EQ(points->array().size(), tier.points.size());
        for (std::size_t p = 0; p < tier.points.size(); ++p) {
            const JsonValue &wp = points->array()[p];
            EXPECT_EQ(wp.find("row_bits")->asInt(),
                      static_cast<std::int64_t>(
                          tier.points[p].rowBits));
            EXPECT_EQ(wp.find("col_bits")->asInt(),
                      static_cast<std::int64_t>(
                          tier.points[p].colBits));
            const double wire_value =
                wp.find("value")->asDouble();
            EXPECT_EQ(std::memcmp(&wire_value,
                                  &tier.points[p].value,
                                  sizeof(double)),
                      0)
                << expect.name() << " tier " << tier.totalBits
                << " point " << p;
        }
    }
}

std::string
sweepLine(const std::string &scheme, unsigned min_bits,
          unsigned max_bits)
{
    return std::string("{\"op\":\"sweep\",\"id\":\"s\",\"trace\":"
                       "{\"profile\":\"") +
           kProfile + "\",\"branches\":" +
           std::to_string(kBranches) + "},\"scheme\":\"" + scheme +
           "\",\"options\":{\"min_bits\":" +
           std::to_string(min_bits) +
           ",\"max_bits\":" + std::to_string(max_bits) + "}}";
}

TEST(Service, PingEchoesId)
{
    SweepServer server;
    JsonValue response =
        handle(server, "{\"op\":\"ping\",\"id\":\"hello\"}");
    EXPECT_TRUE(isOk(response));
    EXPECT_EQ(response.find("id")->asString(), "hello");
    EXPECT_EQ(response.find("op")->asString(), "ping");
}

TEST(Service, SweepMatchesDirectSessionBitForBit)
{
    SweepServer server;
    JsonValue response = handle(server, sweepLine("gshare", 4, 7));
    ASSERT_TRUE(isOk(response)) << server.handleLine(sweepLine(
        "gshare", 4, 7));

    // The reference: a direct in-process session with same options.
    SweepSession session;
    TraceHandle trace = session.internProfile(kProfile, kBranches)
                            .value();
    SweepResponse direct =
        session
            .sweep(SweepRequest{trace.hash, SchemeKind::Gshare,
                                smallSweep()})
            .value();

    EXPECT_EQ(response.find("trace")->asString(), trace.hash.hex());
    EXPECT_EQ(response.find("scheme")->asString(), "gshare");
    const JsonValue *result = response.find("result");
    ASSERT_NE(result, nullptr);
    expectWireSurfaceIdentical(*result->find("misprediction"),
                               direct.result.misprediction);
    expectWireSurfaceIdentical(*result->find("aliasing"),
                               direct.result.aliasing);
    expectWireSurfaceIdentical(*result->find("harmless"),
                               direct.result.harmless);
    const double wire_miss =
        result->find("bht_miss_rate")->asDouble();
    EXPECT_EQ(std::memcmp(&wire_miss, &direct.result.bhtMissRate,
                          sizeof(double)),
              0);
}

TEST(Service, RepeatedSweepHitsTheCache)
{
    SweepServer server;
    JsonValue first = handle(server, sweepLine("GAs", 4, 6));
    ASSERT_TRUE(isOk(first));
    EXPECT_FALSE(first.find("cache_hit")->asBool());
    JsonValue second = handle(server, sweepLine("GAs", 4, 6));
    ASSERT_TRUE(isOk(second));
    EXPECT_TRUE(second.find("cache_hit")->asBool());
    ASSERT_TRUE(first.find("result"));
    ASSERT_TRUE(second.find("result"));
    // Cached responses are byte-identical on the wire too.
    EXPECT_EQ(first.find("result")->render(),
              second.find("result")->render());
}

TEST(Service, InternThenSweepByHash)
{
    SweepServer server;
    JsonValue interned = handle(
        server, std::string("{\"op\":\"intern\",\"trace\":"
                            "{\"profile\":\"") +
                    kProfile + "\",\"branches\":" +
                    std::to_string(kBranches) + "}}");
    ASSERT_TRUE(isOk(interned));
    const std::string hash = interned.find("trace")->asString();
    EXPECT_GT(interned.find("records")->asInt(), 0);

    JsonValue swept = handle(
        server,
        "{\"op\":\"sweep\",\"trace\":{\"hash\":\"" + hash +
            "\"},\"scheme\":\"GAg\",\"options\":{\"min_bits\":4,"
            "\"max_bits\":6}}");
    EXPECT_TRUE(isOk(swept));
    EXPECT_EQ(swept.find("trace")->asString(), hash);
}

TEST(Service, SweepByFileAndPoint)
{
    const std::string path =
        ::testing::TempDir() + "service_trace.bpt";
    MemoryTrace trace =
        generateTrace(profileParams(kProfile, kBranches));
    ASSERT_TRUE(saveTrace(trace, path).ok());

    SweepServer server;
    JsonValue swept = handle(
        server, "{\"op\":\"sweep\",\"trace\":{\"file\":\"" + path +
                    "\"},\"scheme\":\"addr\",\"options\":"
                    "{\"min_bits\":4,\"max_bits\":6,"
                    "\"aliasing\":false}}");
    EXPECT_TRUE(isOk(swept));

    JsonValue point = handle(
        server, "{\"op\":\"point\",\"trace\":{\"file\":\"" + path +
                    "\"},\"scheme\":\"GAs\",\"row_bits\":3,"
                    "\"col_bits\":3}");
    ASSERT_TRUE(isOk(point));
    EXPECT_GE(point.find("misp_rate")->asDouble(), 0.0);
    EXPECT_LE(point.find("misp_rate")->asDouble(), 1.0);

    std::filesystem::remove(path);
}

TEST(Service, PointMatchesDirectSimulateConfig)
{
    SweepServer server;
    JsonValue point = handle(
        server, std::string("{\"op\":\"point\",\"trace\":"
                            "{\"profile\":\"") +
                    kProfile + "\",\"branches\":" +
                    std::to_string(kBranches) +
                    "},\"scheme\":\"gshare\",\"row_bits\":4,"
                    "\"col_bits\":3}");
    ASSERT_TRUE(isOk(point));

    SweepSession session;
    TraceHandle trace =
        session.internProfile(kProfile, kBranches).value();
    ConfigResult direct =
        session.point(trace.hash, SchemeKind::Gshare, 4, 3).value();
    const double wire = point.find("misp_rate")->asDouble();
    EXPECT_EQ(std::memcmp(&wire, &direct.mispRate, sizeof(double)),
              0);
}

TEST(Service, ErrorClassification)
{
    SweepServer server;
    EXPECT_EQ(errorCode(handle(server, "not json at all")),
              "bad_json");
    EXPECT_EQ(errorCode(handle(server, "{\"op\":\"warp\"}")),
              "bad_request");
    // A removed option key is an unknown field, never silently ignored.
    EXPECT_EQ(errorCode(handle(
                  server,
                  "{\"op\":\"sweep\",\"trace\":{\"profile\":"
                  "\"compress\"},\"scheme\":\"GAs\",\"options\":"
                  "{\"fused_threads\":4}}")),
              "bad_request");
    EXPECT_EQ(errorCode(handle(
                  server,
                  "{\"op\":\"sweep\",\"trace\":{\"profile\":"
                  "\"compress\",\"branches\":20000},\"scheme\":"
                  "\"yags\"}")),
              "unknown_scheme");
    EXPECT_EQ(errorCode(handle(
                  server,
                  "{\"op\":\"sweep\",\"trace\":{\"profile\":"
                  "\"no_such_profile\"},\"scheme\":\"GAs\"}")),
              "unknown_profile");
    EXPECT_EQ(
        errorCode(handle(
            server,
            "{\"op\":\"sweep\",\"trace\":{\"hash\":"
            "\"0000000000000001000000000000beef\"},\"scheme\":"
            "\"GAs\",\"options\":{\"min_bits\":4,\"max_bits\":5}}")),
        "failed");
    EXPECT_EQ(errorCode(handle(
                  server,
                  std::string(server.options().limits.maxLineBytes +
                                  1,
                              ' '))),
              "oversized_line");

    // The id is echoed even on malformed requests, and the server
    // keeps serving after every error.
    JsonValue err =
        handle(server, "{\"op\":\"nope\",\"id\":\"keepme\"}");
    EXPECT_EQ(err.find("id")->asString(), "keepme");
    EXPECT_TRUE(
        isOk(handle(server, "{\"op\":\"ping\",\"id\":\"alive\"}")));
}

TEST(Service, StatsAndCatalogReportState)
{
    SweepServer server;
    handle(server, sweepLine("gshare", 4, 5));
    handle(server, sweepLine("gshare", 4, 5));
    // A fused replay (aliasing off) so the kernel telemetry below has
    // an envelope execution to describe.
    handle(server,
           std::string("{\"op\":\"sweep\",\"trace\":{\"profile\":\"") +
               kProfile + "\",\"branches\":" +
               std::to_string(kBranches) +
               "},\"scheme\":\"gshare\",\"options\":{\"min_bits\":4,"
               "\"max_bits\":5,\"aliasing\":false}}");
    handle(server, "definitely not json");

    JsonValue stats = handle(server, "{\"op\":\"stats\"}");
    ASSERT_TRUE(isOk(stats));
    EXPECT_GE(stats.find("requests")->asInt(), 4);
    EXPECT_GE(stats.find("errors")->asInt(), 1);
    const JsonValue *queue = stats.find("queue");
    ASSERT_NE(queue, nullptr);
    EXPECT_GE(queue->find("submissions")->asInt(), 2);
    EXPECT_GE(queue->find("cache_hits")->asInt(), 1);
    EXPECT_EQ(stats.find("traces_interned")->asInt(), 1);

    // Kernel telemetry from the envelope replay the first sweep ran
    // (the repeat was a cache hit and contributes nothing).
    const JsonValue *kernel = stats.find("kernel");
    ASSERT_NE(kernel, nullptr);
    EXPECT_FALSE(kernel->find("target")->asString().empty());
    EXPECT_GE(kernel->find("fused_groups")->asInt(), 1);
    EXPECT_GE(kernel->find("lanes")->asInt(), 1);
    EXPECT_GE(kernel->find("segments")->asInt(),
              kernel->find("fused_groups")->asInt());
    EXPECT_GE(kernel->find("lane_shards")->asInt(),
              kernel->find("fused_groups")->asInt());
    EXPECT_GE(kernel->find("shard_tasks")->asInt(),
              kernel->find("fused_groups")->asInt());
    EXPECT_GE(kernel->find("segments_per_group")->asDouble(), 1.0);
    EXPECT_GE(kernel->find("shards_per_group")->asDouble(), 1.0);
    ASSERT_NE(kernel->find("worker_utilization"), nullptr);
    ASSERT_NE(kernel->find("warmup_branches"), nullptr);
    EXPECT_EQ(kernel->find("fallback_jobs")->asInt(), 0);
    // The object carries every telemetry-table entry: the target as a
    // string, counters as integers, seconds and ratios as reals.
    std::size_t fields = 0;
    KernelTelemetry::forEachField([&](const char *key, auto field, auto) {
        ++fields;
        const JsonValue *v = kernel->find(key);
        ASSERT_NE(v, nullptr) << key;
        using T = decltype(field);
        EXPECT_EQ(v->isString(),
                  (std::is_same_v<T, SimdTarget KernelTelemetry::*>))
            << key;
        EXPECT_EQ(v->isInt(),
                  (std::is_same_v<T, std::uint64_t KernelTelemetry::*>))
            << key;
    });
    EXPECT_EQ(kernel->object().size(), fields);

    JsonValue catalog = handle(server, "{\"op\":\"catalog\"}");
    ASSERT_TRUE(isOk(catalog));
    const JsonValue *schemes = catalog.find("schemes");
    const JsonValue *workloads = catalog.find("workloads");
    ASSERT_TRUE(schemes && schemes->isArray());
    ASSERT_TRUE(workloads && workloads->isArray());
    EXPECT_GE(schemes->array().size(), 7u);
    EXPECT_EQ(workloads->array().size(), 14u);
}

TEST(Service, ShutdownSetsTheFlag)
{
    SweepServer server;
    EXPECT_FALSE(server.shutdownRequested());
    JsonValue response =
        handle(server, "{\"op\":\"shutdown\",\"id\":\"bye\"}");
    EXPECT_TRUE(isOk(response));
    EXPECT_TRUE(server.shutdownRequested());
}

TEST(Service, CustomWorkloadAndSchemeAliasServeLikeBuiltins)
{
    // The extension point: a host registers a bespoke workload and
    // its own scheme alias, and the protocol serves both.
    WorkloadRegistry workloads = WorkloadRegistry::withBuiltins();
    ASSERT_TRUE(workloads
                    .registerWorkload(
                        "tiny_loop",
                        [](SweepSession &session, std::uint64_t n) {
                            WorkloadParams params =
                                profileParams("compress",
                                              n ? n : 5000);
                            return Result<TraceHandle>(
                                session.internTrace(
                                    generateTrace(params)));
                        })
                    .ok());
    // Duplicate registration is refused.
    EXPECT_FALSE(
        workloads.registerWorkload("tiny_loop", nullptr).ok());

    SchemeRegistry schemes = SchemeRegistry::withBuiltins();
    ASSERT_TRUE(
        schemes.registerScheme("mcfarling", SchemeKind::Gshare)
            .ok());

    SweepServer server(ServerOptions{}, std::move(schemes),
                       std::move(workloads));
    JsonValue response = handle(
        server,
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"tiny_loop\"},"
        "\"scheme\":\"mcfarling\",\"options\":{\"min_bits\":4,"
        "\"max_bits\":6}}");
    EXPECT_TRUE(isOk(response));
    EXPECT_EQ(response.find("scheme")->asString(), "gshare");

    JsonValue catalog = handle(server, "{\"op\":\"catalog\"}");
    bool found = false;
    for (const JsonValue &name :
         catalog.find("workloads")->array())
        found = found || name.asString() == "tiny_loop";
    EXPECT_TRUE(found);
}

TEST(Service, BatchQueueCountsSubmissions)
{
    SweepServer server;
    SweepSession session;
    TraceHandle trace =
        session.internProfile(kProfile, kBranches).value();
    // Same trace interned through the server's own session.
    handle(server, sweepLine("gshare", 4, 5));

    Result<SweepResponse> direct = server.submitSweep(SweepRequest{
        session.internProfile(kProfile, kBranches).value().hash,
        SchemeKind::Gshare, smallSweep()});
    ASSERT_TRUE(direct.ok());
    const ServerStats stats = server.stats();
    EXPECT_GE(stats.queue.submissions, 2u);
    EXPECT_GE(stats.queue.drains, 2u);
    static_cast<void>(trace);
}

TEST(Service, ZooSchemesServeWithStructuredOptions)
{
    SweepServer server;

    // Both zoo schemes are first-class catalog citizens.
    JsonValue catalog = handle(server, "{\"op\":\"catalog\"}");
    ASSERT_TRUE(isOk(catalog));
    bool has_tage = false;
    bool has_perceptron = false;
    for (const JsonValue &name : catalog.find("schemes")->array()) {
        has_tage = has_tage || name.asString() == "tage";
        has_perceptron =
            has_perceptron || name.asString() == "perceptron";
    }
    EXPECT_TRUE(has_tage);
    EXPECT_TRUE(has_perceptron);

    // A TAGE sweep with the full option set matches a direct session
    // bit for bit.
    JsonValue resp = handle(
        server,
        std::string("{\"op\":\"sweep\",\"trace\":{\"profile\":\"") +
            kProfile + "\",\"branches\":" +
            std::to_string(kBranches) +
            "},\"scheme\":\"tage\",\"options\":{\"min_bits\":4,"
            "\"max_bits\":6,\"tage_tag_bits\":6,"
            "\"tage_histories\":[2,5,11]}}");
    ASSERT_TRUE(isOk(resp)) << errorCode(resp);
    EXPECT_EQ(resp.find("scheme")->asString(), "tage");

    SweepSession direct;
    TraceHandle trace =
        direct.internProfile(kProfile, kBranches).value();
    SweepOptions opts = smallSweep();
    opts.maxTotalBits = 6;
    opts.tageTagBits = 6;
    opts.tageHistories = {2, 5, 11};
    SweepResponse expect =
        direct.sweep(SweepRequest{trace.hash, SchemeKind::Tage, opts})
            .value();
    const JsonValue *result = resp.find("result");
    ASSERT_NE(result, nullptr);
    expectWireSurfaceIdentical(*result->find("misprediction"),
                               expect.result.misprediction);

    // Perceptron serves too, and a point probe round-trips.
    EXPECT_TRUE(isOk(handle(
        server,
        std::string("{\"op\":\"sweep\",\"trace\":{\"profile\":\"") +
            kProfile + "\",\"branches\":" +
            std::to_string(kBranches) +
            "},\"scheme\":\"perceptron\",\"options\":{\"min_bits\":4,"
            "\"max_bits\":6,\"perceptron_tables\":3}}")));
    EXPECT_TRUE(isOk(handle(
        server,
        std::string("{\"op\":\"point\",\"trace\":{\"profile\":\"") +
            kProfile + "\",\"branches\":" +
            std::to_string(kBranches) +
            "},\"scheme\":\"tage\",\"row_bits\":5,\"col_bits\":5}")));
}

TEST(Service, ZooOptionValidationRejectsBadGeometry)
{
    SweepServer server;
    auto sweep_with = [&](const std::string &options) {
        return errorCode(handle(
            server,
            std::string(
                "{\"op\":\"sweep\",\"trace\":{\"profile\":\"") +
                kProfile + "\",\"branches\":" +
                std::to_string(kBranches) +
                "},\"scheme\":\"tage\",\"options\":{\"min_bits\":4,"
                "\"max_bits\":6," +
                options + "}}"));
    };
    // tage_histories must be a non-empty, <= 8 entry, strictly
    // ascending array of 1..64 -- each violation is a structured
    // bad_request, never a crash.
    EXPECT_EQ(sweep_with("\"tage_histories\":7"), "bad_request");
    EXPECT_EQ(sweep_with("\"tage_histories\":[]"), "bad_request");
    EXPECT_EQ(sweep_with("\"tage_histories\":[8,4]"), "bad_request");
    EXPECT_EQ(sweep_with("\"tage_histories\":[4,4]"), "bad_request");
    EXPECT_EQ(sweep_with("\"tage_histories\":[4,8,65]"),
              "bad_request");
    EXPECT_EQ(sweep_with(
                  "\"tage_histories\":[1,2,3,4,5,6,7,8,9]"),
              "bad_request");
    EXPECT_EQ(sweep_with("\"tage_tag_bits\":1"), "bad_request");
    EXPECT_EQ(sweep_with("\"tage_tag_bits\":17"), "bad_request");
    EXPECT_EQ(sweep_with("\"perceptron_tables\":1"), "bad_request");

    // A degenerate zoo point is a structured error, not an assert.
    EXPECT_EQ(
        errorCode(handle(
            server,
            std::string(
                "{\"op\":\"point\",\"trace\":{\"profile\":\"") +
                kProfile + "\",\"branches\":" +
                std::to_string(kBranches) +
                "},\"scheme\":\"tage\",\"row_bits\":0,"
                "\"col_bits\":5}")),
        "failed");

    // The server keeps serving.
    EXPECT_TRUE(isOk(handle(server, "{\"op\":\"ping\"}")));
}

TEST(Service, SpecStringSchemeNamesGetAHint)
{
    // A client pasting a factory spec string ("tage:12:10:8:4,8,16,32")
    // into the scheme field gets unknown_scheme plus a pointer at the
    // structured options, for every spec-ish shape.
    SweepServer server;
    for (const char *name :
         {"tage:12:10", "tage:12:10:8:4,8,16,32", "perceptron:16:10",
          "tournament(gshare:8,GAs:4:4)", "4,8,16,32"}) {
        JsonValue resp = handle(
            server,
            std::string(
                "{\"op\":\"sweep\",\"trace\":{\"profile\":\"") +
                kProfile + "\",\"branches\":" +
                std::to_string(kBranches) + "},\"scheme\":\"" + name +
                "\",\"options\":{\"min_bits\":4,\"max_bits\":5}}");
        EXPECT_EQ(errorCode(resp), "unknown_scheme") << name;
        const JsonValue *error = resp.find("error");
        ASSERT_NE(error, nullptr) << name;
        const std::string message =
            error->find("message")->asString();
        EXPECT_NE(message.find("options"), std::string::npos)
            << "hint missing for " << name << ": " << message;
    }
}

} // namespace

TEST(Service, AcceptFailureEndsServeSocketWithAnError)
{
    // A listener whose accept() fails -- here because the process is
    // out of file descriptors -- must stop with a structured error,
    // not return OK as if a shutdown had been requested.  The server
    // runs in a forked child so the descriptor exhaustion stays out of
    // the test process.  Child exit codes: 0 the expected error,
    // 1 an OK status, 2 an error not naming accept()/EMFILE, 3-4 the
    // descriptor set-up failed.
    const std::string path =
        ::testing::TempDir() + "service_accept_emfile.sock";
    std::filesystem::remove(path);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        SweepServer server;
        rlimit lim{};
        if (::getrlimit(RLIMIT_NOFILE, &lim) != 0)
            ::_exit(3);
        lim.rlim_cur = std::min<rlim_t>(lim.rlim_cur, 256);
        if (::setrlimit(RLIMIT_NOFILE, &lim) != 0)
            ::_exit(3);
        // Take every free descriptor below the limit, then hand one
        // back: serveSocket's socket() gets it and accept() has none.
        int last = -1;
        for (int fd = ::dup(2); fd >= 0; fd = ::dup(2))
            last = fd;
        if (errno != EMFILE || last < 0)
            ::_exit(4);
        ::close(last);
        const Status status = server.serveSocket(path);
        if (status.ok())
            ::_exit(1);
        const std::string &message = status.error().message();
        const bool named =
            message.find("accept()") != std::string::npos &&
            message.find(std::strerror(EMFILE)) != std::string::npos;
        ::_exit(named ? 0 : 2);
    }

    // Linux fails accept() with EMFILE before waiting for a client;
    // a client is offered anyway in case accept() waits for one.
    int wstatus = 0;
    pid_t done = 0;
    bool connected = false;
    for (int i = 0; i < 400 && done == 0; ++i) {
        done = ::waitpid(pid, &wstatus, WNOHANG);
        if (done == 0 && !connected && std::filesystem::exists(path))
            connected = connectUnixSocket(path).ok();
        if (done == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    if (done == 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &wstatus, 0);
        FAIL() << "server did not exit after accept() failed";
    }
    ASSERT_TRUE(WIFEXITED(wstatus));
    EXPECT_EQ(WEXITSTATUS(wstatus), 0);
    EXPECT_FALSE(std::filesystem::exists(path));
}

namespace {

/** This process's virtual size from /proc/self/status, in kB. */
std::uint64_t
vmSizeKb()
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (!status)
        return 0;
    char line[256];
    std::uint64_t kb = 0;
    while (std::fgets(line, sizeof(line), status)) {
        if (std::strncmp(line, "VmSize:", 7) == 0) {
            kb = std::strtoull(line + 7, nullptr, 10);
            break;
        }
    }
    std::fclose(status);
    return kb;
}

} // namespace

TEST(Service, FinishedConnectionWorkersAreReaped)
{
    // A daemon serves connections for its whole life.  A finished
    // connection's worker thread must be joined while serving, not at
    // shutdown: each unjoined thread keeps its stack mapped, so 256
    // short-lived clients would grow the address space by gigabytes.
    const std::string path = ::testing::TempDir() + "service_reap_" +
                             std::to_string(::getpid()) + ".sock";
    std::filesystem::remove(path);
    SweepServer server;
    Status served;
    std::thread daemon([&] { served = server.serveSocket(path); });
    // However the test exits, ask for shutdown and join the daemon.
    struct Stop
    {
        std::function<void()> run;
        ~Stop() { run(); }
    } stop{[&] {
        if (Result<LineChannel> c = connectUnixSocket(path); c.ok())
            static_cast<void>(
                roundTrip(c.value(), "{\"op\":\"shutdown\"}"));
        daemon.join();
        EXPECT_TRUE(served.ok());
    }};

    Result<LineChannel> first = BPSIM_ERROR("socket never appeared");
    for (int i = 0; i < 200 && !first.ok(); ++i) {
        if (std::filesystem::exists(path))
            first = connectUnixSocket(path);
        if (!first.ok())
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(first.ok()) << first.error().message();
    first.value().close();

    const auto cycle = [&] {
        Result<LineChannel> channel = connectUnixSocket(path);
        ASSERT_TRUE(channel.ok()) << channel.error().message();
        Result<std::string> pong =
            roundTrip(channel.value(), "{\"op\":\"ping\"}");
        ASSERT_TRUE(pong.ok()) << pong.error().message();
        channel.value().close();
    };
    // Warm up with a burst of concurrent clients first: the allocator
    // and the thread-stack cache grow with the number of *live*
    // threads, and that one-off growth is not what is measured here.
    {
        std::vector<LineChannel> burst;
        for (int i = 0; i < 8; ++i) {
            Result<LineChannel> channel = connectUnixSocket(path);
            ASSERT_TRUE(channel.ok()) << channel.error().message();
            ASSERT_TRUE(
                roundTrip(channel.value(), "{\"op\":\"ping\"}").ok());
            burst.push_back(std::move(channel).value());
        }
    }
    for (int i = 0; i < 8; ++i)
        cycle();
    const std::uint64_t before = vmSizeKb();
    ASSERT_GT(before, 0u);
    for (int i = 0; i < 256; ++i)
        cycle();
    const std::uint64_t after = vmSizeKb();
    EXPECT_LT(after, before + 64 * 1024)
        << "VmSize grew from " << before << " kB to " << after
        << " kB over 256 connections";
}
