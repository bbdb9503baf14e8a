/**
 * @file
 * Unit tests for the service line protocol: the JSON layer's parse/
 * render discipline (strict syntax, structural limits, exact double
 * round trips) and the request parser's strictness (unknown keys,
 * range checks, trace-reference forms).  The protocol is the daemon's
 * attack surface; these tests pin its contract at the unit level, the
 * fuzz campaign (test_service_fuzz) attacks it byte by byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>
#include <variant>

#include "service/json.hh"
#include "service/protocol.hh"

using namespace bpsim;
using namespace bpsim::service;

namespace {

JsonValue
parseOk(const std::string &text)
{
    Result<JsonValue> v = parseJson(text);
    EXPECT_TRUE(v.ok()) << text << ": "
                        << (v.ok() ? "" : v.error().message());
    return v.ok() ? std::move(v).value() : JsonValue();
}

// --- JSON parsing ------------------------------------------------------

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(parseOk("null").isNull());
    EXPECT_TRUE(parseOk("true").asBool());
    EXPECT_FALSE(parseOk("false").asBool());
    EXPECT_EQ(parseOk("42").asInt(), 42);
    EXPECT_EQ(parseOk("-7").asInt(), -7);
    EXPECT_TRUE(parseOk("1.5").isNumber());
    EXPECT_EQ(parseOk("1.5").asDouble(), 1.5);
    EXPECT_EQ(parseOk("\"hi\"").asString(), "hi");
}

TEST(Json, IntVersusDoubleKinds)
{
    EXPECT_TRUE(parseOk("42").isInt());
    EXPECT_FALSE(parseOk("42.0").isInt());
    EXPECT_TRUE(parseOk("42.0").isNumber());
    EXPECT_TRUE(parseOk("1e3").isNumber());
    EXPECT_FALSE(parseOk("1e3").isInt());
}

TEST(Json, ParsesContainers)
{
    JsonValue v = parseOk("{\"a\": [1, 2, {\"b\": true}], \"c\": {}}");
    ASSERT_TRUE(v.isObject());
    const JsonValue *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->array().size(), 3u);
    EXPECT_EQ(a->array()[1].asInt(), 2);
    EXPECT_TRUE(a->array()[2].find("b")->asBool());
}

TEST(Json, StringEscapes)
{
    EXPECT_EQ(parseOk("\"a\\nb\\t\\\"c\\\\\"").asString(),
              "a\nb\t\"c\\");
    EXPECT_EQ(parseOk("\"\\u0041\"").asString(), "A");
    // UTF-8 encodings of BMP and astral codepoints.
    EXPECT_EQ(parseOk("\"\\u00e9\"").asString(), "\xc3\xa9");
    EXPECT_EQ(parseOk("\"\\ud83d\\ude00\"").asString(),
              "\xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedInput)
{
    const char *bad[] = {
        "",          "{",          "}",        "[1,",
        "{\"a\":}",  "{\"a\" 1}",  "tru",      "nul",
        "01",        "1.",         "1e",       "-",
        "\"abc",     "\"\\q\"",    "\"\\u12\"", "{\"a\":1,}",
        "[1 2]",     "{'a':1}",    "1 2",      "{}garbage",
        "\"\\ud800\"", "\"\\udc00\"",
    };
    for (const char *text : bad)
        EXPECT_FALSE(parseJson(text).ok()) << text;
}

TEST(Json, RejectsDuplicateKeys)
{
    Result<JsonValue> v = parseJson("{\"a\":1,\"a\":2}");
    ASSERT_FALSE(v.ok());
    EXPECT_NE(v.error().message().find("duplicate"),
              std::string::npos);
}

TEST(Json, EnforcesLimits)
{
    JsonLimits limits;
    limits.maxDepth = 3;
    limits.maxStringBytes = 4;
    limits.maxMembers = 2;
    EXPECT_TRUE(parseJson("[[[1]]]", limits).ok());
    EXPECT_FALSE(parseJson("[[[[1]]]]", limits).ok());
    EXPECT_TRUE(parseJson("\"abcd\"", limits).ok());
    EXPECT_FALSE(parseJson("\"abcde\"", limits).ok());
    EXPECT_TRUE(parseJson("[1,2]", limits).ok());
    EXPECT_FALSE(parseJson("[1,2,3]", limits).ok());
    EXPECT_FALSE(
        parseJson("{\"a\":1,\"b\":2,\"c\":3}", limits).ok());
}

TEST(Json, RejectsUnescapedControlCharacters)
{
    EXPECT_FALSE(parseJson("\"a\nb\"").ok());
    EXPECT_EQ(parseOk("\"a\\u0001b\"").asString(),
              std::string("a\x01"
                          "b"));
}

// --- JSON rendering ----------------------------------------------------

TEST(Json, RenderRoundTripsStructure)
{
    const std::string text =
        "{\"a\":[1,2.5,true,null],\"b\":\"x\\ny\"}";
    JsonValue v = parseOk(text);
    EXPECT_EQ(v.render(), text);
}

TEST(Json, DoublesRoundTripExactly)
{
    const double values[] = {
        0.0,
        -0.0,
        1.0 / 3.0,
        0.1,
        1e-300,
        1e300,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        0.042899999999999987,
        123456789.0, // integral double must come back as Double
    };
    for (double value : values) {
        JsonValue rendered(value);
        JsonValue parsed = parseOk(rendered.render());
        ASSERT_TRUE(parsed.isNumber()) << rendered.render();
        EXPECT_FALSE(parsed.isInt()) << rendered.render();
        const double back = parsed.asDouble();
        EXPECT_EQ(std::memcmp(&back, &value, sizeof(double)), 0)
            << rendered.render();
    }
}

TEST(Json, EscapesOnRender)
{
    JsonValue v(std::string("a\"b\\c\nd\x01"));
    EXPECT_EQ(v.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    JsonValue back = parseOk(v.render());
    EXPECT_EQ(back.asString(), v.asString());
}

// --- Request parsing ---------------------------------------------------

Result<Request>
parseLine(const std::string &text)
{
    Result<JsonValue> json = parseJson(text);
    if (!json.ok())
        return json.error();
    return parseRequest(json.value());
}

TEST(Protocol, ParsesMinimalOps)
{
    for (const char *op :
         {"ping", "stats", "catalog", "shutdown"}) {
        Result<Request> req = parseLine(
            std::string("{\"op\":\"") + op + "\",\"id\":\"i\"}");
        ASSERT_TRUE(req.ok()) << op;
        EXPECT_EQ(std::string(requestOpName(req.value().op)), op);
        EXPECT_EQ(req.value().id, "i");
    }
}

TEST(Protocol, ParsesSweepRequest)
{
    Result<Request> req = parseLine(
        "{\"op\":\"sweep\",\"id\":\"s\",\"trace\":{\"profile\":"
        "\"gcc\",\"branches\":5000},\"scheme\":\"gshare\","
        "\"options\":{\"min_bits\":5,\"max_bits\":9,\"aliasing\":"
        "false},\"bypass_cache\":true}");
    ASSERT_TRUE(req.ok()) << (req.ok() ? "" : req.error().message());
    const Request &r = req.value();
    EXPECT_EQ(r.op, RequestOp::Sweep);
    EXPECT_TRUE(r.trace.byProfile());
    EXPECT_EQ(r.trace.profile, "gcc");
    EXPECT_EQ(r.trace.branches, 5000u);
    EXPECT_EQ(r.scheme, "gshare");
    EXPECT_EQ(r.options.minTotalBits, 5u);
    EXPECT_EQ(r.options.maxTotalBits, 9u);
    EXPECT_FALSE(r.options.trackAliasing);
    EXPECT_TRUE(r.bypassCache);
}

TEST(Protocol, ParsesSegmentParallelOptions)
{
    Result<Request> req = parseLine(
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"gshare\",\"options\":{\"segments\":4,"
        "\"segment_warmup\":512}}");
    ASSERT_TRUE(req.ok()) << (req.ok() ? "" : req.error().message());
    EXPECT_EQ(req.value().options.segments, 4u);
    EXPECT_EQ(req.value().options.segmentWarmup, 512u);

    // Unset, the default stays: exact replay.
    Result<Request> plain = parseLine(
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"gshare\"}");
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(plain.value().options.segments, 0u);

    // Bounds: segments in [1, kMaxSegments], warm-up non-negative.
    const char *bad[] = {
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"g\",\"options\":{\"segments\":0}}",
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"g\",\"options\":{\"segments\":65}}",
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"g\",\"options\":{\"segment_warmup\":-1}}",
    };
    for (const char *text : bad)
        EXPECT_FALSE(parseLine(text).ok()) << text;

    // The lane-shard count follows the server's `threads`; the old
    // per-request fused_threads key is gone and is rejected by name.
    Result<Request> removed = parseLine(
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"gshare\",\"options\":{\"fused_threads\":4}}");
    ASSERT_FALSE(removed.ok());
    EXPECT_NE(removed.error().message().find("unknown options field"),
              std::string::npos)
        << removed.error().message();
    EXPECT_NE(removed.error().message().find("fused_threads"),
              std::string::npos)
        << removed.error().message();
}

namespace {

/**
 * Parse a sweep request whose options set @p key to @p value, over a
 * tier range wide enough for any tier value: min_bits 1 and max_bits
 * at the server limit, unless @p key is one of them.
 */
Result<Request>
parseWithOption(const std::string &key, JsonValue value)
{
    JsonValue::Object options;
    options.emplace(key, std::move(value));
    options.emplace("min_bits", JsonValue(std::int64_t{1}));
    options.emplace("max_bits", JsonValue(static_cast<std::int64_t>(
                                    ProtocolLimits{}.maxTotalBits)));
    JsonValue::Object trace;
    trace.emplace("profile", JsonValue("gcc"));
    JsonValue::Object root;
    root.emplace("op", JsonValue("sweep"));
    root.emplace("trace", JsonValue(std::move(trace)));
    root.emplace("scheme", JsonValue("gshare"));
    root.emplace("options", JsonValue(std::move(options)));
    return parseRequest(JsonValue(std::move(root)));
}

bool
accepts(const std::string &key, JsonValue value)
{
    return parseWithOption(key, std::move(value)).ok();
}

JsonValue
intList(std::initializer_list<std::int64_t> values)
{
    JsonValue::Array array;
    for (std::int64_t v : values)
        array.emplace_back(v);
    return JsonValue(std::move(array));
}

} // namespace

TEST(Protocol, EveryOptionRowParsesItsRangeAndNothingBeyond)
{
    // Walks the option table: every protocol key accepts both ends
    // of its range, landing in its SweepOptions member, and rejects
    // one step past either end with an error naming the field.  A new
    // row is covered without editing this test.
    const ProtocolLimits limits;
    std::size_t walked = 0;
    for (const OptionField &f : sweepOptionFields()) {
        if (!f.protocolKey)
            continue;
        ++walked;
        const std::string key = f.protocolKey;
        if (std::holds_alternative<bool SweepOptions::*>(f.member)) {
            for (bool b : {false, true}) {
                Result<Request> r = parseWithOption(key, JsonValue(b));
                ASSERT_TRUE(r.ok()) << key;
                EXPECT_EQ(f.get(r.value().options).front(),
                          b ? 1u : 0u);
            }
            EXPECT_FALSE(accepts(key, JsonValue(std::int64_t{1})));
            continue;
        }
        const bool is_list =
            std::holds_alternative<std::vector<unsigned> SweepOptions::*>(
                f.member);
        const auto wire = [&](std::uint64_t v) {
            const auto n = static_cast<std::int64_t>(v);
            return is_list ? intList({n}) : JsonValue(n);
        };
        // The server's limit caps the tier range below the table's.
        const std::uint64_t min = f.min;
        const std::uint64_t max =
            f.scope == KeyScope::TierRange
                ? std::min<std::uint64_t>(f.max, limits.maxTotalBits)
                : f.max;
        for (std::uint64_t v : {min, max}) {
            Result<Request> r = parseWithOption(key, wire(v));
            ASSERT_TRUE(r.ok())
                << key << "=" << v << ": " << r.error().message();
            EXPECT_EQ(f.get(r.value().options).front(), v) << key;
        }
        if (min > 0) {
            EXPECT_FALSE(accepts(key, wire(min - 1))) << key;
        }
        Result<Request> over = parseWithOption(key, wire(max + 1));
        ASSERT_FALSE(over.ok()) << key << "=" << max + 1;
        EXPECT_NE(over.error().message().find(key), std::string::npos)
            << over.error().message();

        if (f.powerOfTwo) {
            EXPECT_FALSE(accepts(key, JsonValue(std::int64_t{3})));
        }
        if (is_list) {
            const auto lo = static_cast<std::int64_t>(min);
            EXPECT_FALSE(accepts(key, intList({})));
            EXPECT_FALSE(accepts(key, intList({lo + 1, lo})));
            EXPECT_FALSE(accepts(key, intList({lo, lo})));
            EXPECT_TRUE(accepts(key, intList({lo, lo + 1, lo + 2, lo + 3,
                                              lo + 4, lo + 5, lo + 6,
                                              lo + 7})));
            EXPECT_FALSE(accepts(key, intList({lo, lo + 1, lo + 2,
                                               lo + 3, lo + 4, lo + 5,
                                               lo + 6, lo + 7, lo + 8})));
        }
    }
    EXPECT_EQ(walked, 11u);
}

TEST(Protocol, ParsesTraceForms)
{
    Result<Request> by_hash = parseLine(
        "{\"op\":\"intern\",\"trace\":{\"hash\":"
        "\"00000000000000010000000000000002\"}}");
    ASSERT_TRUE(by_hash.ok());
    EXPECT_TRUE(by_hash.value().trace.byHash());
    EXPECT_EQ(by_hash.value().trace.hash.hi, 1u);
    EXPECT_EQ(by_hash.value().trace.hash.lo, 2u);

    Result<Request> by_file = parseLine(
        "{\"op\":\"intern\",\"trace\":{\"file\":\"t.bpt\"}}");
    ASSERT_TRUE(by_file.ok());
    EXPECT_TRUE(by_file.value().trace.byFile());
}

TEST(Protocol, RejectsBadRequests)
{
    const char *bad[] = {
        // unknown / missing / wrong-typed fields
        "{\"id\":\"x\"}",
        "{\"op\":\"teleport\"}",
        "{\"op\":7}",
        "{\"op\":\"ping\",\"bogus\":1}",
        "{\"op\":\"ping\",\"trace\":{\"profile\":\"gcc\"}}",
        "{\"op\":\"sweep\",\"scheme\":\"gshare\"}",
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"gcc\"}}",
        "{\"op\":\"sweep\",\"trace\":{},\"scheme\":\"g\"}",
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"a\",\"hash\":"
        "\"00000000000000010000000000000002\"},\"scheme\":\"g\"}",
        "{\"op\":\"sweep\",\"trace\":{\"branches\":5,\"file\":"
        "\"t.bpt\"},\"scheme\":\"g\"}",
        "{\"op\":\"sweep\",\"trace\":{\"wat\":1},\"scheme\":\"g\"}",
        "{\"op\":\"sweep\",\"trace\":{\"hash\":\"xyz\"},"
        "\"scheme\":\"g\"}",
        // options discipline
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"g\",\"options\":{\"min_bits\":9,"
        "\"max_bits\":5}}",
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"g\",\"options\":{\"max_bits\":60}}",
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"g\",\"options\":{\"bht_entries\":100}}",
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"g\",\"options\":{\"turbo\":true}}",
        "{\"op\":\"sweep\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"g\",\"options\":{\"min_bits\":-3}}",
        // point discipline
        "{\"op\":\"point\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"g\"}",
        "{\"op\":\"point\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"g\",\"row_bits\":20,\"col_bits\":20}",
        // sweep-only fields leaking onto other ops
        "{\"op\":\"point\",\"trace\":{\"profile\":\"gcc\"},"
        "\"scheme\":\"g\",\"row_bits\":1,\"col_bits\":1,"
        "\"bypass_cache\":true}",
    };
    for (const char *text : bad)
        EXPECT_FALSE(parseLine(text).ok()) << text;
}

TEST(Protocol, EnforcesFieldLimits)
{
    ProtocolLimits limits;
    const std::string big_id(limits.maxIdBytes + 1, 'x');
    Result<Request> req = parseLine(
        "{\"op\":\"ping\",\"id\":\"" + big_id + "\"}");
    EXPECT_FALSE(req.ok());

    const std::string ok_id(limits.maxIdBytes, 'x');
    EXPECT_TRUE(
        parseLine("{\"op\":\"ping\",\"id\":\"" + ok_id + "\"}")
            .ok());
}

TEST(Protocol, ResponseBuilders)
{
    JsonValue ok = okResponse("abc", RequestOp::Sweep);
    EXPECT_TRUE(ok.find("ok")->asBool());
    EXPECT_EQ(ok.find("id")->asString(), "abc");
    EXPECT_EQ(ok.find("op")->asString(), "sweep");

    JsonValue err =
        errorResponse("abc", errcode::kBadRequest, "broken");
    EXPECT_FALSE(err.find("ok")->asBool());
    const JsonValue *error = err.find("error");
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->find("code")->asString(), "bad_request");
    EXPECT_EQ(error->find("message")->asString(), "broken");
}

TEST(Protocol, SurfaceJsonPreservesShapeAndBits)
{
    Surface s("misp");
    s.add(4, 0, 4, 0.25);
    s.add(4, 1, 3, 1.0 / 3.0);
    s.add(5, 2, 3, 0.1);
    JsonValue v = surfaceJson(s);
    ASSERT_TRUE(v.isArray());
    ASSERT_EQ(v.array().size(), 2u);
    const JsonValue &tier = v.array()[0];
    EXPECT_EQ(tier.find("total_bits")->asInt(), 4);
    ASSERT_EQ(tier.find("points")->array().size(), 2u);
    const double value =
        tier.find("points")->array()[1].find("value")->asDouble();
    const double expect = 1.0 / 3.0;
    EXPECT_EQ(std::memcmp(&value, &expect, sizeof(double)), 0);
}

} // namespace
