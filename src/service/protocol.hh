/**
 * @file
 * The sweep service's line protocol: request shapes, strict parsing,
 * and response rendering.
 *
 * One request is one line of JSON, one response is one line of JSON
 * (DESIGN.md "Sweep service").  The parser is deliberately strict:
 * unknown keys anywhere in a request are errors, every numeric field
 * is range-checked against ProtocolLimits, and malformed input of any
 * shape becomes a structured Error -- the daemon answers it with an
 * error response and keeps serving.  Being strict at the boundary is
 * what lets the interior stay simple: a Request that parses is a
 * Request the engine can execute.
 *
 * Responses always carry the request's "id" (when one parsed) and an
 * "ok" flag.  Successful sweeps embed the three surfaces tier by
 * tier with %.17g doubles, so a client can reconstruct results
 * bit-identical to an in-process SweepSession::sweep().
 */

#ifndef BPSIM_SERVICE_PROTOCOL_HH
#define BPSIM_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "service/json.hh"
#include "sim/sweep_session.hh"

namespace bpsim::service {

/** Request guard rails, enforced before anything executes. */
struct ProtocolLimits
{
    /** Longest accepted request line (bytes, excluding newline). */
    std::size_t maxLineBytes = 64 * 1024;
    /** Longest accepted request id. */
    std::size_t maxIdBytes = 128;
    /** Longest accepted name (scheme, profile, file path). */
    std::size_t maxNameBytes = 4096;
    /** Largest accepted sweep tier (2^bits counters). */
    unsigned maxTotalBits = 24;
    /** Largest accepted synthetic trace length. */
    std::uint64_t maxBranches = 1ull << 28;
};

/** The operations the daemon serves. */
enum class RequestOp
{
    Ping,     ///< liveness probe; echoes the id
    Intern,   ///< materialise a trace, return its registry key
    Sweep,    ///< full configuration-space sweep (cached, coalesced)
    Point,    ///< one (row_bits, col_bits) configuration probe
    Stats,    ///< server/cache/coalescing counters
    Catalog,  ///< registered scheme and workload names
    Shutdown, ///< stop serving after this response
};

/** @return the wire name of @p op ("ping", "sweep", ...). */
const char *requestOpName(RequestOp op);

/**
 * How a request names its trace -- exactly one of the three forms:
 * a workload profile (generated on demand), the registry key of a
 * previously interned trace, or a .bpt file path.
 */
struct TraceRef
{
    /** Workload name resolved through the WorkloadRegistry. */
    std::string profile;
    /** Profile form: target conditional count (0 = profile default). */
    std::uint64_t branches = 0;
    /** Registry-key form ({"hash": "<32 hex>"}). */
    TraceHash hash;
    /** File form ({"file": "trace.bpt"}). */
    std::string file;

    bool byProfile() const { return !profile.empty(); }
    bool byHash() const { return !hash.isNull(); }
    bool byFile() const { return !file.empty(); }
};

/** One parsed, validated request line. */
struct Request
{
    RequestOp op = RequestOp::Ping;
    /** Client-chosen correlation id, echoed in the response. */
    std::string id;
    /** Trace reference (intern/sweep/point ops). */
    TraceRef trace;
    /** Scheme name, resolved through the SchemeRegistry (sweep/point). */
    std::string scheme;
    /** Sweep shape; defaults match SweepOptions (sweep/point). */
    SweepOptions options;
    /** Sweep op: skip result-cache lookup and store. */
    bool bypassCache = false;
    /** Point op coordinates. */
    unsigned rowBits = 0;
    unsigned colBits = 0;
};

/**
 * Parse one request object.  Strict: unknown keys at any level,
 * wrong-typed fields, out-of-range numbers, a missing or ambiguous
 * trace reference, and min > max are all structured Errors.
 */
Result<Request> parseRequest(const JsonValue &root,
                             const ProtocolLimits &limits = {});

/**
 * Cosmetic error classification carried in error responses so clients
 * can branch without string-matching messages.
 */
namespace errcode {
constexpr const char *kOversizedLine = "oversized_line";
constexpr const char *kBadJson = "bad_json";
constexpr const char *kBadRequest = "bad_request";
constexpr const char *kUnknownScheme = "unknown_scheme";
constexpr const char *kUnknownProfile = "unknown_profile";
constexpr const char *kFailed = "failed";
constexpr const char *kInternal = "internal";
} // namespace errcode

/** Base success response: {"id": ..., "ok": true, "op": ...}. */
JsonValue okResponse(const std::string &id, RequestOp op);

/** Error response: {"id", "ok": false, "error": {code, message}}. */
JsonValue errorResponse(const std::string &id, const std::string &code,
                        const std::string &message);

/** A surface as an array of {total_bits, points: [{row_bits,
 *  col_bits, value}]} tiers, in tier order. */
JsonValue surfaceJson(const Surface &surface);

/** The result payload of a finished sweep: surfaces, BHT miss rate,
 *  and the cache/coalescing provenance flags. */
JsonValue sweepResponseJson(const SweepResponse &response);

/** Kernel telemetry as an object of every forEachField() entry: the
 *  target a string, counts integers, seconds and ratios reals. */
JsonValue telemetryJson(const KernelTelemetry &kernel);

} // namespace bpsim::service

#endif // BPSIM_SERVICE_PROTOCOL_HH
