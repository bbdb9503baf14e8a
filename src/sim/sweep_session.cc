#include "sim/sweep_session.hh"

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/config.hh"
#include "common/thread_pool.hh"
#include "workload/trace_key.hh"

namespace bpsim {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

SweepSession::SweepSession(std::string cache_dir,
                           std::uint64_t cache_budget_bytes)
    : cache_(std::move(cache_dir), cache_budget_bytes)
{
}

Result<TraceHandle>
SweepSession::internProfile(const std::string &profile,
                            std::uint64_t target_conditionals)
{
    return bpsim::internProfile(registry_, profile,
                                target_conditionals);
}

TraceHandle
SweepSession::internTrace(MemoryTrace trace)
{
    return registry_.internTrace(std::move(trace));
}

Result<TraceHandle>
SweepSession::internFile(const std::string &path)
{
    return registry_.internFile(path);
}

namespace {

/**
 * The canonical key of the result-affecting options @p kind reads
 * (sweepOptionFields rows with a key token), with or without the tier
 * range.  A list is one comma-joined token; canonicalKey sorts the
 * tokens and all-integer lists, so equivalent orderings collapse.
 */
std::string
optionKey(SchemeKind kind, const SweepOptions &opts, bool with_tiers)
{
    SweepOptions resolved = opts;
    resolved.segments = resolveSegments(opts);
    std::vector<std::string> tokens;
    for (const OptionField &f : sweepOptionFields()) {
        if (!f.keyToken || !f.readBy(kind) ||
            (f.scope == KeyScope::TierRange && !with_tiers) ||
            (f.scope == KeyScope::Speculative && resolved.segments <= 1))
            continue;
        std::string token = std::string(f.keyToken) + "=";
        const char *sep = "";
        for (std::uint64_t v : f.get(resolved)) {
            token += sep + std::to_string(v);
            sep = ",";
        }
        tokens.push_back(std::move(token));
    }
    return Config::parseTokens(tokens).canonicalKey();
}

} // namespace

std::string
SweepSession::cacheConfigKey(SchemeKind kind, const SweepOptions &opts)
{
    return optionKey(kind, opts, true);
}

std::string
SweepSession::batchGroupKey(const SweepRequest &request)
{
    return request.trace.hex() + "|" + schemeKindName(request.kind) +
           "|" + optionKey(request.kind, request.options, false);
}

CacheKey
SweepSession::cacheKey(const SweepRequest &request)
{
    return CacheKey{request.trace, schemeKindName(request.kind),
                    cacheConfigKey(request.kind, request.options),
                    kEngineVersion};
}

Result<std::shared_ptr<const PreparedTrace>>
SweepSession::prepared(const TraceHash &trace)
{
    // The lock is held across preparation, mirroring the registry's
    // intern discipline: concurrent requests for the same trace wait
    // for one build instead of duplicating it.
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = prepared_.find(trace);
    if (it != prepared_.end())
        return it->second.prepared;
    TraceHandle handle = registry_.lookup(trace);
    if (!handle.valid()) {
        return BPSIM_ERROR("trace ", trace.hex(),
                           " is not interned in this session (and "
                           "the result cache cannot answer)");
    }
    auto prep =
        std::make_shared<const PreparedTrace>(*handle.trace);
    prepared_.emplace(trace,
                      PreparedEntry{prep, handle.trace});
    return prep;
}

Result<SweepResponse>
SweepSession::sweep(const SweepRequest &request)
{
    return std::move(sweepBatch({request}).front());
}

namespace {

/** Copy the tiers of @p src with min <= totalBits <= max, preserving
 *  name and point order (plan order, budget then row ascending). */
Surface
sliceSurface(const Surface &src, unsigned min_bits, unsigned max_bits)
{
    Surface out(src.name());
    for (const SurfaceTier &tier : src.tiers()) {
        if (tier.totalBits < min_bits || tier.totalBits > max_bits)
            continue;
        for (const SurfacePoint &pt : tier.points)
            out.add(tier.totalBits, pt.rowBits, pt.colBits, pt.value);
    }
    return out;
}

} // namespace

std::vector<Result<SweepResponse>>
SweepSession::sweepBatch(const std::vector<SweepRequest> &requests,
                         BatchCounters *counters)
{
    const auto start = std::chrono::steady_clock::now();
    BatchCounters local;
    std::vector<std::optional<Result<SweepResponse>>> out(
        requests.size());

    // Phase 1: answer what the cache can, group the rest by their
    // envelope-sharing key.
    std::map<std::string, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const SweepRequest &req = requests[i];
        if (!req.bypassCache) {
            bool from_disk = false;
            std::optional<CachedSweep> hit =
                cache_.lookup(cacheKey(req), &from_disk);
            if (hit) {
                // Rehydrate: cached surfaces carry their full names,
                // so the hit is byte-identical to the original result.
                // Kernel telemetry stays zeroed -- nothing executed.
                SweepResponse response(SweepResult("", ""));
                response.result.misprediction = hit->misprediction;
                response.result.aliasing = hit->aliasing;
                response.result.harmless = hit->harmless;
                response.result.bhtMissRate = hit->bhtMissRate;
                response.cacheHit = true;
                response.diskHit = from_disk;
                response.seconds = secondsSince(start);
                out[i] = Result<SweepResponse>(std::move(response));
                ++local.cacheHits;
                continue;
            }
        }
        groups[batchGroupKey(req)].push_back(i);
    }

    // Phase 2: one envelope replay per group, sliced per member.
    for (const auto &[group_key, members] : groups) {
        static_cast<void>(group_key);
        const SweepRequest &first = requests[members.front()];
        Result<std::shared_ptr<const PreparedTrace>> prep =
            prepared(first.trace);
        if (!prep.ok()) {
            for (std::size_t m : members)
                out[m] = Result<SweepResponse>(prep.error());
            continue;
        }

        SweepOptions envelope = first.options;
        for (std::size_t m : members) {
            const SweepOptions &o = requests[m].options;
            envelope.minTotalBits =
                std::min(envelope.minTotalBits, o.minTotalBits);
            envelope.maxTotalBits =
                std::max(envelope.maxTotalBits, o.maxTotalBits);
        }
        SweepResult swept =
            sweepScheme(*prep.value(), first.kind, envelope);
        const bool multi = members.size() > 1;
        ++local.envelopeSweeps;
        local.kernel.merge(swept.kernel);
        if (multi) {
            ++local.fusedGroupsFormed;
            local.coalescedRequests += members.size();
        }

        for (std::size_t m : members) {
            const SweepRequest &req = requests[m];
            SweepResult sliced = swept;
            sliced.misprediction =
                sliceSurface(swept.misprediction,
                             req.options.minTotalBits,
                             req.options.maxTotalBits);
            sliced.aliasing = sliceSurface(swept.aliasing,
                                           req.options.minTotalBits,
                                           req.options.maxTotalBits);
            sliced.harmless = sliceSurface(swept.harmless,
                                           req.options.minTotalBits,
                                           req.options.maxTotalBits);
            if (!req.bypassCache) {
                CachedSweep payload{sliced.misprediction,
                                    sliced.aliasing, sliced.harmless,
                                    sliced.bhtMissRate};
                // Disk-store failures are counted in cache().stats()
                // but do not fail the sweep: the result is correct.
                static_cast<void>(
                    cache_.store(cacheKey(req), payload));
            }
            SweepResponse response(std::move(sliced));
            response.coalesced = multi;
            response.seconds = secondsSince(start);
            out[m] = Result<SweepResponse>(std::move(response));
        }
    }

    if (counters)
        counters->merge(local);
    std::vector<Result<SweepResponse>> results;
    results.reserve(out.size());
    for (std::optional<Result<SweepResponse>> &slot : out)
        results.push_back(std::move(*slot));
    return results;
}

Result<ConfigResult>
SweepSession::point(const TraceHash &trace, SchemeKind kind,
                    unsigned row_bits, unsigned col_bits,
                    const SweepOptions &opts)
{
    // The 2-bit family tolerates degenerate (0-bit) axes; the zoo
    // schemes assert on them.  A daemon must answer a bad point
    // request with an error, not an abort, so pre-check here.
    if (kind == SchemeKind::Tage &&
        (row_bits < 1 || row_bits > 28 || col_bits < 1 ||
         col_bits > 28))
        return BPSIM_ERROR("tage point needs rows (tagged entry "
                           "bits) and cols (base PHT bits) in 1..28; "
                           "got rows=", row_bits, " cols=", col_bits);
    if (kind == SchemeKind::Perceptron &&
        (row_bits < 1 || row_bits > 64 || col_bits > 28))
        return BPSIM_ERROR("perceptron point needs rows (history "
                           "bits) in 1..64 and cols (table entry "
                           "bits) <= 28; got rows=", row_bits,
                           " cols=", col_bits);
    Result<std::shared_ptr<const PreparedTrace>> prep =
        prepared(trace);
    if (!prep.ok())
        return prep.error();
    return simulateConfig(*prep.value(), kind, row_bits, col_bits,
                          opts);
}

Result<std::vector<BestConfigRow>>
SweepSession::bestConfigs(const TraceHash &trace,
                          const Table3Options &opts)
{
    const std::vector<Table3SchemeSpec> plan = table3Plan(opts);

    std::vector<std::optional<SweepResponse>> sweeps(plan.size());
    std::vector<Status> statuses(plan.size());
    const unsigned threads = ThreadPool::resolveThreads(opts.threads);
    auto run_one = [&](std::size_t i) {
        Result<SweepResponse> r = sweep(
            SweepRequest{trace, plan[i].kind, plan[i].options});
        if (r.ok())
            sweeps[i] = std::move(r).value();
        else
            statuses[i] = r.error();
    };
    if (threads <= 1) {
        for (std::size_t i = 0; i < plan.size(); ++i)
            run_one(i);
    } else {
        ThreadPool::shared().parallelFor(plan.size(), threads,
                                         run_one);
    }

    std::vector<BestConfigRow> rows;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        if (!statuses[i].ok())
            return statuses[i].error();
        rows.push_back(bestConfigRowFromSweep(
            plan[i], sweeps[i]->result, opts.budgetBits));
    }
    return rows;
}

} // namespace bpsim
