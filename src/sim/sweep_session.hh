/**
 * @file
 * The session facade of the engine core.
 *
 * Everything outside src/sim used to drive sweeps by hand: generate a
 * trace, build a PreparedTrace, call sweepScheme, and
 * rebuild all of it on the next run.  A SweepSession packages that
 * pipeline behind declarative requests:
 *
 *     SweepSession session("bpc-cache");           // optional dir
 *     auto trace = session.internProfile("gcc");
 *     auto resp  = session.sweep({trace.value().hash,
 *                                 SchemeKind::Gshare, opts});
 *
 * The session owns the three lower layers -- a TraceRegistry interning
 * traces by content/generator key, a map of PreparedTraces (one per
 * interned trace, built on first use), and a ResultCache of finished
 * sweeps (memory + optional .bpc directory).  A repeated request is a
 * cache hit: bit-identical surfaces and no replay.  A warm disk cache
 * skips the replay and the PreparedTrace build, but not trace
 * generation: internProfile() still generates the trace eagerly to
 * intern it (a request by trace hash alone needs no trace at all).
 *
 * Caching discipline:
 *
 *  - The cache key is (trace key, scheme, canonical config key,
 *    kEngineVersion).  cacheConfigKey() serializes, as the option
 *    table (sweepOptionFields) declares, exactly the options that
 *    affect *results*: tier range, aliasing tracking, the
 *    per-scheme parameters the scheme actually reads, and -- only when
 *    a request resolves speculative (resolveSegments > 1) -- the
 *    segment count and warm-up width, so speculative and exact results
 *    never cross-serve.  Execution knobs (threads, which also sizes
 *    the lane shards, and simd) are bit-identical by construction --
 *    pinned by the differential tests -- and are excluded, so a sweep
 *    computed with 8 threads is a hit for a serial rerun.
 *
 *  - kEngineVersion MUST be bumped whenever replay semantics change
 *    (new tie-breaking, counter init, history seeding, ...): old .bpc
 *    entries then miss and recompute instead of resurfacing stale
 *    numbers.  See DESIGN.md "Session core".
 *
 *  - A cache hit reports zeroed kernel telemetry: the telemetry
 *    describes an execution, and no execution happened.
 */

#ifndef BPSIM_SIM_SWEEP_SESSION_HH
#define BPSIM_SIM_SWEEP_SESSION_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "cache/result_cache.hh"
#include "sim/experiment.hh"
#include "sim/sweep.hh"
#include "trace/trace_registry.hh"

namespace bpsim {

/**
 * Version of the replay semantics baked into cached results.  Bump on
 * ANY change that can alter a sweep's numbers; never reuse a value.
 *
 * History:
 *  - 1: the 2-bit-family engine through PR 8.
 *  - 2: modern-predictor zoo (TAGE + perceptron scheme kinds, xorFold
 *       hashing, list-valued canonical config keys).  v1 entries must
 *       never serve v2 requests: the planner's job enumeration gained
 *       validity filtering and canonicalKey changed for list values.
 *  - 3: batched model-lane replay.  Zoo sweeps now honour
 *       segments/segmentWarmup (v2 always replayed the zoo exactly,
 *       so a v2 entry keyed segments>1 holds exact numbers the v3
 *       engine would compute speculatively -- those keys must not be
 *       served across the boundary).  Exact (segments==1) results are
 *       bit-identical to v2, but versioning is per-engine, not
 *       per-key.
 */
constexpr std::uint32_t kEngineVersion = 3;

/** One declarative sweep: which trace, which scheme, which lattice. */
struct SweepRequest
{
    /** Registry key of an interned trace (TraceHandle::hash). */
    TraceHash trace;
    SchemeKind kind = SchemeKind::GAs;
    SweepOptions options;
    /**
     * Skip cache lookup AND store: always replay.  The differential
     * tests compare bypass runs against hits to pin that cached
     * results are bit-identical to recomputed ones.
     */
    bool bypassCache = false;
};

/** A finished sweep plus where it came from. */
struct SweepResponse
{
    SweepResult result;
    /** Served from the result cache (memory or disk). */
    bool cacheHit = false;
    /** ... specifically from a .bpc file of an earlier process. */
    bool diskHit = false;
    /**
     * Served by a shared fused replay that also answered at least one
     * other request of the same batch (sweepBatch).  The reported
     * kernel telemetry then describes that shared envelope execution.
     */
    bool coalesced = false;
    /** Wall-clock seconds spent serving this request. */
    double seconds = 0.0;

    explicit SweepResponse(SweepResult r) : result(std::move(r)) {}
};

/** Execution accounting for one sweepBatch() call. */
struct BatchCounters
{
    /** Requests answered straight from the result cache. */
    std::uint64_t cacheHits = 0;
    /** Envelope replays executed (one per distinct fused group). */
    std::uint64_t envelopeSweeps = 0;
    /** Fused groups that served two or more requests. */
    std::uint64_t fusedGroupsFormed = 0;
    /** Requests served by a multi-request fused group. */
    std::uint64_t coalescedRequests = 0;
    /**
     * Kernel telemetry summed over every envelope replay this batch
     * executed (cache hits contribute nothing -- nothing ran).  The
     * service stats op surfaces it so a long-lived daemon reports its
     * cumulative dispatch target, segment/shard shape and worker
     * utilisation.
     */
    KernelTelemetry kernel;

    void
    merge(const BatchCounters &other)
    {
        cacheHits += other.cacheHits;
        envelopeSweeps += other.envelopeSweeps;
        fusedGroupsFormed += other.fusedGroupsFormed;
        coalescedRequests += other.coalescedRequests;
        // Only merge telemetry that describes an execution: a hit-only
        // batch's zeroed record must not reset the dispatch target.
        if (other.envelopeSweeps != 0)
            kernel.merge(other.kernel);
    }
};

/**
 * Session facade over registry, prepared traces and result cache.
 * Thread-safe: concurrent sweep() calls are allowed (bestConfigs
 * relies on it).  Create one per process/bench invocation; pass a
 * cache directory to keep results across processes.
 */
class SweepSession
{
  public:
    /**
     * @param cache_dir .bpc mirror directory; empty = memory only.
     * @param cache_budget_bytes on-disk LRU size budget (0 = none).
     */
    explicit SweepSession(std::string cache_dir = {},
                          std::uint64_t cache_budget_bytes = 0);

    SweepSession(const SweepSession &) = delete;
    SweepSession &operator=(const SweepSession &) = delete;

    /** Intern a named workload profile (generator-keyed; see
     *  workload/trace_key.hh).  Errors on unknown profile names. */
    Result<TraceHandle> internProfile(const std::string &profile,
                                      std::uint64_t target_conditionals
                                      = 0);

    /** Intern an already materialised trace (content-keyed). */
    TraceHandle internTrace(MemoryTrace trace);

    /** Load and intern a .bpt trace file (content-keyed). */
    Result<TraceHandle> internFile(const std::string &path);

    /**
     * Serve one sweep request: result cache, then replay through the
     * plan/fuse/SIMD machinery -- a sweepBatch() of one.  Results are
     * bit-identical to a direct sweepScheme() call with the same
     * options.  Errors when the trace key is not interned (and the
     * cache cannot answer).
     */
    Result<SweepResponse> sweep(const SweepRequest &request);

    /**
     * Serve a batch of requests, coalescing the cache misses: misses
     * that share a first-level input stream -- same trace, scheme,
     * aliasing mode and scheme parameters, any tier range -- are
     * answered by ONE envelope replay spanning the union of their
     * tier ranges, then sliced per request.  The fused kernel's
     * grouping invariance makes every slice bit-identical to a
     * standalone sweep() of the same request (pinned by tests), so
     * coalescing is purely a throughput optimisation: M clients
     * asking for overlapping lattices cost one trace replay.
     *
     * Results are returned in request order.  Each computed slice is
     * stored in the result cache under its own key (bypassCache
     * requests neither look up nor store, but still join envelopes --
     * they asked for a replay and get one).  @p counters, when
     * non-null, accumulates the batch accounting the service layer
     * reports.
     */
    std::vector<Result<SweepResponse>>
    sweepBatch(const std::vector<SweepRequest> &requests,
               BatchCounters *counters = nullptr);

    /**
     * The coalescing group key of a request: everything in the cache
     * key except the tier range.  Requests with equal batch keys can
     * share one envelope replay.  Exposed for the service layer's
     * queue and for tests.
     */
    static std::string batchGroupKey(const SweepRequest &request);

    /**
     * Probe a single configuration (uncached -- single points are
     * cheap and pollute the key space).  @p opts carries the
     * per-scheme parameters; tier bounds are ignored.
     */
    Result<ConfigResult> point(const TraceHash &trace, SchemeKind kind,
                               unsigned row_bits, unsigned col_bits,
                               const SweepOptions &opts = {});

    /**
     * Table 3 for an interned trace: one row per table3Plan() scheme,
     * reduced by bestConfigRowFromSweep() from a sweep that routes
     * through the result cache.  Scheme sweeps run concurrently per Table3Options::threads.
     */
    Result<std::vector<BestConfigRow>>
    bestConfigs(const TraceHash &trace, const Table3Options &opts = {});

    /**
     * The prepared (sweep-optimised) form of an interned trace,
     * built on first use and shared; for clients that drive
     * sweepScheme/simulateConfig directly.
     */
    Result<std::shared_ptr<const PreparedTrace>>
    prepared(const TraceHash &trace);

    /**
     * The canonical config-key fragment of a request (exposed for
     * tests and the trace_tool cache inspector).  Only result-
     * affecting options are included; see the file comment.
     */
    static std::string cacheConfigKey(SchemeKind kind,
                                      const SweepOptions &opts);

    /** The full cache key a request resolves to. */
    static CacheKey cacheKey(const SweepRequest &request);

    TraceRegistry &registry() { return registry_; }
    ResultCache &cache() { return cache_; }

  private:
    struct PreparedEntry
    {
        std::shared_ptr<const PreparedTrace> prepared;
        /** Keeps the interned bytes alive as long as the prepared
         *  form references them. */
        std::shared_ptr<const MemoryTrace> owner;
    };

    TraceRegistry registry_;
    ResultCache cache_;
    std::mutex mutex_; ///< guards prepared_
    std::map<TraceHash, PreparedEntry> prepared_;
};

} // namespace bpsim

#endif // BPSIM_SIM_SWEEP_SESSION_HH
