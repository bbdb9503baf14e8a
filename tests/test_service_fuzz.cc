/**
 * @file
 * Protocol fuzz campaign against the sweep daemon, built on the
 * fault-injection harness of src/verify.  Every mutated request line
 * must produce exactly one structured JSON response -- ok or a typed
 * error -- and the server must keep serving afterwards.  A crash, a
 * non-JSON reply, or a silent drop is a violation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <variant>

#include "service/server.hh"
#include "verify/fault_injection.hh"

using namespace bpsim;
using namespace bpsim::service;

namespace {

constexpr const char *kValidSweep =
    "{\"op\":\"sweep\",\"id\":\"fuzz-seed\",\"trace\":"
    "{\"profile\":\"compress\",\"branches\":20000},"
    "\"scheme\":\"gshare\","
    "\"options\":{\"min_bits\":4,\"max_bits\":6}}";

void
expectCampaignPasses(SweepServer &server, std::uint64_t seed,
                     std::size_t flips)
{
    verify::RequestFuzzReport report =
        verify::fuzzRequestLines(server, kValidSweep, seed, flips);
    EXPECT_TRUE(report.passed()) << [&] {
        std::string all;
        for (const std::string &violation : report.violations)
            all += violation + "\n";
        return all;
    }();
    EXPECT_GT(report.mustErrorLines, 0u);
    EXPECT_EQ(report.structuredErrors, report.mustErrorLines);
    EXPECT_GT(report.mutatedLines, 0u);
}

constexpr const char *kValidTageSweep =
    "{\"op\":\"sweep\",\"id\":\"fuzz-tage\",\"trace\":"
    "{\"profile\":\"compress\",\"branches\":20000},"
    "\"scheme\":\"tage\","
    "\"options\":{\"min_bits\":4,\"max_bits\":6,"
    "\"tage_tag_bits\":6,\"tage_histories\":[2,5,11]}}";

constexpr const char *kValidPerceptronSweep =
    "{\"op\":\"sweep\",\"id\":\"fuzz-perc\",\"trace\":"
    "{\"profile\":\"compress\",\"branches\":20000},"
    "\"scheme\":\"perceptron\","
    "\"options\":{\"min_bits\":4,\"max_bits\":6,"
    "\"perceptron_tables\":3}}";

TEST(ServiceFuzz, MutatedRequestsAlwaysGetStructuredResponses)
{
    SweepServer server;
    expectCampaignPasses(server, 0x5eedf00d, 200);
}

TEST(ServiceFuzz, MutatedZooRequestsAlwaysGetStructuredResponses)
{
    // The zoo seed lines exercise the multi-table option surface: the
    // list-valued tage_histories array is the protocol's only nested
    // option, so mutations here hit the array validation, the
    // spec-string hint path and the per-scheme range checks.
    SweepServer server;
    verify::RequestFuzzReport tage = verify::fuzzRequestLines(
        server, kValidTageSweep, 0x7a6e, 160);
    EXPECT_TRUE(tage.passed()) << [&] {
        std::string all;
        for (const std::string &violation : tage.violations)
            all += violation + "\n";
        return all;
    }();
    EXPECT_GT(tage.mustErrorLines, 0u);
    EXPECT_EQ(tage.structuredErrors, tage.mustErrorLines);

    verify::RequestFuzzReport perc = verify::fuzzRequestLines(
        server, kValidPerceptronSweep, 0x9e4c, 120);
    EXPECT_TRUE(perc.passed()) << [&] {
        std::string all;
        for (const std::string &violation : perc.violations)
            all += violation + "\n";
        return all;
    }();
    EXPECT_EQ(perc.structuredErrors, perc.mustErrorLines);

    // The daemon still executes real zoo work after both campaigns.
    Result<JsonValue> after =
        parseJson(server.handleLine(kValidTageSweep));
    ASSERT_TRUE(after.ok());
    const JsonValue *ok = after.value().find("ok");
    ASSERT_NE(ok, nullptr);
    EXPECT_TRUE(ok->asBool());
}

/**
 * A sweep request that sets every protocol option key of the option
 * table, each to its SweepOptions default clamped into its table
 * range, so a new row is fuzzed without editing this file.
 */
std::string
everyOptionSweep()
{
    const SweepOptions defaults;
    JsonValue::Object options;
    for (const OptionField &f : sweepOptionFields()) {
        if (!f.protocolKey)
            continue;
        using O = SweepOptions;
        const std::vector<std::uint64_t> values = f.get(defaults);
        JsonValue::Array wire;
        for (std::uint64_t v : values)
            wire.emplace_back(
                static_cast<std::int64_t>(std::clamp(v, f.min, f.max)));
        if (std::holds_alternative<bool O::*>(f.member))
            options.emplace(f.protocolKey, JsonValue(values[0] != 0));
        else if (std::holds_alternative<std::vector<unsigned> O::*>(
                     f.member))
            options.emplace(f.protocolKey, JsonValue(std::move(wire)));
        else
            options.emplace(f.protocolKey, std::move(wire[0]));
    }
    JsonValue::Object trace;
    trace.emplace("profile", JsonValue("compress"));
    trace.emplace("branches", JsonValue(std::int64_t{20000}));
    JsonValue::Object root;
    root.emplace("op", JsonValue("sweep"));
    root.emplace("id", JsonValue("fuzz-every-option"));
    root.emplace("trace", JsonValue(std::move(trace)));
    root.emplace("scheme", JsonValue("gshare"));
    root.emplace("options", JsonValue(std::move(options)));
    return JsonValue(std::move(root)).render();
}

TEST(ServiceFuzz, MutatedRequestsSettingEveryOptionGetStructuredResponses)
{
    SweepServer server;
    verify::RequestFuzzReport report = verify::fuzzRequestLines(
        server, everyOptionSweep(), 0x0b7, 160);
    EXPECT_TRUE(report.passed()) << [&] {
        std::string all;
        for (const std::string &violation : report.violations)
            all += violation + "\n";
        return all;
    }();
    EXPECT_GT(report.mustErrorLines, 0u);
    EXPECT_EQ(report.structuredErrors, report.mustErrorLines);
}

TEST(ServiceFuzz, CampaignIsSeedSensitiveAndRepeatable)
{
    SweepServer server;
    expectCampaignPasses(server, 1, 64);
    expectCampaignPasses(server, 2, 64);
    // Re-running a seed must not be affected by server state the
    // earlier campaigns left behind (interned traces, cached sweeps).
    expectCampaignPasses(server, 1, 64);
}

TEST(ServiceFuzz, SurvivesFuzzingWithDiskCacheAttached)
{
    ServerOptions opts;
    opts.cacheDir = ::testing::TempDir() + "service_fuzz_cache";
    opts.cacheBudgetBytes = 1 << 20;
    SweepServer server(opts);
    expectCampaignPasses(server, 0xca5e, 96);

    // The daemon still executes real work after the campaign.
    std::string response = server.handleLine(kValidSweep);
    Result<JsonValue> parsed = parseJson(response);
    ASSERT_TRUE(parsed.ok());
    const JsonValue *ok = parsed.value().find("ok");
    ASSERT_NE(ok, nullptr);
    EXPECT_TRUE(ok->asBool()) << response;
}

} // namespace
