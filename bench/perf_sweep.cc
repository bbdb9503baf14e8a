/**
 * @file
 * Sweep throughput benchmark: wall-clock branch-config updates per
 * second for every sweep scheme, in these execution modes --
 *
 *   fused[T]      fused single-pass kernel (threads=1), once per SIMD
 *                 dispatch target T this host supports (scalar
 *                 always; sse2/avx2/avx512 when the CPU has them);
 *                 fused[scalar] is the baseline every speedup divides
 *   fused+threads fused kernel, auto dispatch, group-parallel
 *                 execution (threads=0, one executor per hw thread)
 *   alias         fused kernel with alias lanes (trackAliasing on,
 *                 threads=1, auto dispatch): the Figure 5 path
 *
 * One unit of work is a single branch instance simulated through a
 * single configuration, so "branch-config updates/s" is comparable
 * across schemes, modes, trace lengths and hosts.  All modes produce
 * bit-identical misprediction surfaces (verified in-process each run;
 * a mismatch is a hard failure), so the timing comparison is fair.
 *
 * Results are written to a JSON file (default BENCH_sweep.json) whose
 * format EXPERIMENTS.md documents; the `perf` ctest label runs a short
 * smoke of this binary.  Speedups are *reported*, never asserted --
 * the committed BENCH_sweep.json seeds the perf trajectory, CI only
 * checks that the report is produced.  Each scheme's record carries
 * the kernel telemetry of its widest-target run (every KernelTelemetry
 * counter and ratio, e.g. dispatch target, lanes per group, blocks
 * replayed, hot bytes per branch) so a perf regression can be traced
 * to a dispatch or fusion change without rerunning under a profiler.
 *
 * A within-group scaling phase then runs one representative scheme
 * (GAs) through the full fused_threads x segments knob matrix
 * (1/2/4/8 on each axis).  Lane-sharded cells (segments=1) are
 * asserted bit-identical to the exact surface; speculative cells
 * (segments>1) report their max per-point epsilon instead.  The cell
 * grid, speedups and each cell's kernel telemetry land in the same
 * JSON under "within_group_scaling".
 *
 * A zoo phase times the batched TAGE/perceptron model-lane replay the
 * same way: batched[T] per dispatch target (batched[scalar] is the
 * baseline) and batched+threads.
 *
 * A last phase times the persistent result cache (sweep_session.hh):
 * the same table3-scale sweep set is run cold (compute + store), warm
 * (memory hits) and disk-warm (a fresh session reading .bpc files),
 * with every served surface verified bit-identical against the cold
 * run.  Timings, speedups and cache counters go to a separate JSON
 * report (default BENCH_cache.json).
 *
 * Both JSON files open with a "host" record -- CPU model, hardware
 * threads, compiler, build type and the detected SIMD target -- so a
 * committed number always says what machine and build produced it.
 *
 * Knobs: branches=N (trace length, default 1000000 -- the paper's
 * profiles run 2-4M conditionals, so the default is sized to spill
 * the trace out of cache the way real runs do), reps=N (timed
 * repetitions, best-of, default 2), json=FILE, cache_json=FILE,
 * cache_dir=DIR (default: a scratch dir wiped before and after),
 * profile=NAME.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "service/protocol.hh"
#include "sim/sweep.hh"

using namespace bpsim;
using namespace bpsim::bench;

namespace {

struct ModeResult
{
    double seconds = 0.0;
    double throughput = 0.0; // branch-config updates per second
};

struct SchemeResult
{
    SchemeKind kind;
    std::size_t configs = 0;
    /** One fused-mode measurement per supported dispatch target;
     *  fused[0] (scalar) is the baseline. */
    std::vector<ModeResult> fused;
    ModeResult fusedThreads;
    /** Alias lanes on (2-bit schemes only). */
    ModeResult alias;
    /** Telemetry from the widest-target single-thread fused run. */
    KernelTelemetry kernel;
    /** Telemetry from the alias run. */
    KernelTelemetry aliasKernel;

    /** Speedup of @p m over the scalar fused baseline. */
    double
    speedup(const ModeResult &m) const
    {
        return fused[0].seconds / m.seconds;
    }
};

/** @p text with JSON string escapes applied. */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

/** The CPU model from /proc/cpuinfo, or "unknown". */
std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            break;
        const std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "unknown"
                                          : line.substr(start);
    }
    return "unknown";
}

/** The compiler this binary was built with. */
const char *
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

/** Write the "host" fingerprint record both JSON reports open with. */
void
writeHost(FILE *json)
{
#ifdef BPSIM_BUILD_TYPE
    const char *build_type = BPSIM_BUILD_TYPE;
#else
    const char *build_type = "unknown";
#endif
    std::fprintf(json,
                 "  \"host\": {\"cpu\": \"%s\", \"hardware_threads\": "
                 "%u,\n   \"compiler\": \"%s\", \"build_type\": "
                 "\"%s\", \"simd_detected\": \"%s\"},\n",
                 jsonEscape(cpuModel()).c_str(),
                 ThreadPool::hardwareThreads(),
                 jsonEscape(compilerName()).c_str(),
                 jsonEscape(build_type).c_str(),
                 simdTargetName(detectSimdTarget()));
}

/**
 * Time one sweep run under @p opts, returning wall seconds.  Routed
 * through the session with the cache bypassed, so the measurement is
 * pure engine compute (the facade adds only key derivation).
 */
double
runOnce(SweepSession &session, const TraceHash &hash, SchemeKind kind,
        const SweepOptions &opts, Surface *surface_out,
        KernelTelemetry *kernel_out = nullptr)
{
    SweepRequest request{hash, kind, opts};
    request.bypassCache = true;
    WallTimer timer;
    SweepResult result =
        cli::orFatal(session.sweep(request)).result;
    const double secs = timer.seconds();
    if (surface_out)
        *surface_out = result.misprediction;
    if (kernel_out)
        *kernel_out = result.kernel;
    return secs;
}

/** Fairness precondition: every mode computes the same surface, bit
 *  for bit; a mismatch is a hard failure. */
void
checkSurface(SchemeKind kind, const Surface &expect,
             const Surface &got)
{
    const auto &a = expect.tiers();
    const auto &b = got.tiers();
    bpsim_assert(a.size() == b.size(), "tier count drift");
    for (std::size_t t = 0; t < a.size(); ++t) {
        bpsim_assert(a[t].points.size() == b[t].points.size(),
                     "point count drift in tier ", a[t].totalBits);
        for (std::size_t p = 0; p < a[t].points.size(); ++p) {
            bpsim_assert(a[t].points[p].value == b[t].points[p].value,
                         "mode surfaces diverge for ",
                         schemeKindName(kind), " tier 2^",
                         a[t].totalBits, " rows 2^",
                         a[t].points[p].rowBits,
                         " -- fused kernel is not bit-identical");
        }
    }
}

/** Largest per-point |delta| between two surfaces of the same plan:
 *  the auditable epsilon of a speculative segment-parallel run. */
double
maxSurfaceDelta(const Surface &expect, const Surface &got)
{
    double worst = 0.0;
    const auto &a = expect.tiers();
    const auto &b = got.tiers();
    bpsim_assert(a.size() == b.size(), "tier count drift");
    for (std::size_t t = 0; t < a.size(); ++t)
        for (std::size_t p = 0; p < a[t].points.size(); ++p)
            worst = std::max(worst, std::abs(a[t].points[p].value -
                                             b[t].points[p].value));
    return worst;
}

/** One cell of the within-group scaling matrix. */
struct MatrixCell
{
    unsigned fusedThreads = 1;
    unsigned segments = 1;
    double seconds = 0.0;
    double speedup = 0.0;
    /** Max per-point |delta| vs exact (0 when segments == 1, where
     *  bit-identity is asserted, not measured). */
    double epsilon = 0.0;
    KernelTelemetry kernel;
};

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/**
 * Time @p kind under fused[T] for every target and fused+threads,
 * best of @p reps with the modes interleaved within each rep (so slow
 * host drift hits every mode alike), every surface checked bit-
 * identical to fused[scalar].  @p base fixes everything but the
 * dispatch target and thread count.  @p expect receives the
 * fused[scalar] misprediction surface.
 */
SchemeResult
timeScheme(SweepSession &session, const TraceHash &hash,
           SchemeKind kind, const SweepOptions &base,
           const std::vector<SimdTarget> &targets, unsigned reps,
           std::size_t branches, Surface &expect)
{
    SchemeResult r;
    r.kind = kind;
    r.fused.resize(targets.size());
    SweepOptions threaded_opts = base;
    threaded_opts.threads = 0;

    for (unsigned rep = 0; rep < reps; ++rep) {
        for (std::size_t t = 0; t < targets.size(); ++t) {
            SweepOptions opts = base;
            opts.simd = targets[t];
            Surface surface("");
            const bool widest = t + 1 == targets.size();
            const double f = runOnce(
                session, hash, kind, opts,
                rep == 0 ? (t == 0 ? &expect : &surface) : nullptr,
                rep == 0 && widest ? &r.kernel : nullptr);
            if (rep == 0 && t == 0) {
                // One surface point per swept configuration.
                for (const auto &tier : expect.tiers())
                    r.configs += tier.points.size();
            } else if (rep == 0) {
                checkSurface(kind, expect, surface);
            }
            r.fused[t].seconds =
                rep == 0 ? f : std::min(r.fused[t].seconds, f);
        }

        Surface threaded_surface("");
        const double ft =
            runOnce(session, hash, kind, threaded_opts,
                    rep == 0 ? &threaded_surface : nullptr);
        if (rep == 0)
            checkSurface(kind, expect, threaded_surface);
        r.fusedThreads.seconds =
            rep == 0 ? ft : std::min(r.fusedThreads.seconds, ft);
    }

    const double work =
        static_cast<double>(branches) * static_cast<double>(r.configs);
    for (ModeResult &m : r.fused)
        m.throughput = work / m.seconds;
    r.fusedThreads.throughput = work / r.fusedThreads.seconds;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg = Config::parseArgs(argc, argv);
    const auto branches = static_cast<std::uint64_t>(
        cli::requireInt(cfg, "branches", 1000000));
    const auto reps =
        static_cast<unsigned>(cli::requireInt(cfg, "reps", 2));
    const std::string json_path =
        cfg.getString("json", "BENCH_sweep.json");
    const std::string cache_json_path =
        cfg.getString("cache_json", "BENCH_cache.json");
    std::string cache_dir = cfg.getString("cache_dir", "");
    const std::string profile = cfg.getString("profile", "mpeg_play");

    const std::vector<SimdTarget> targets = supportedSimdTargets();

    banner("Sweep throughput: fused[simd] vs fused+threads vs alias");
    std::printf("profile %s, %llu conditional branches, tiers 2^4.."
                "2^15, best of %u rep%s, %u hardware thread%s, "
                "dispatch targets:",
                profile.c_str(),
                static_cast<unsigned long long>(branches), reps,
                reps == 1 ? "" : "s", ThreadPool::hardwareThreads(),
                ThreadPool::hardwareThreads() == 1 ? "" : "s");
    for (SimdTarget t : targets)
        std::printf(" %s", simdTargetName(t));
    std::printf("\n\n");

    SweepSession session;
    TraceHandle handle = internProfile(session, profile, branches);
    auto trace = preparedTrace(session, handle);

    SweepOptions fused_opts = paperSweepOptions();
    fused_opts.trackAliasing = false;
    fused_opts.threads = 1;

    const SchemeKind kinds[] = {
        SchemeKind::AddressIndexed, SchemeKind::GAg,
        SchemeKind::GAs,            SchemeKind::Gshare,
        SchemeKind::Path,           SchemeKind::PAsPerfect,
        SchemeKind::PAsFinite,
    };

    std::vector<SchemeResult> results;
    std::printf("%-10s %7s |", "scheme", "configs");
    for (SimdTarget t : targets)
        std::printf(" %12s %6s |", simdTargetName(t), "spd");
    std::printf(" %12s %6s | %12s %6s\n", "fused+t bc/s", "spd",
                "alias bc/s", "spd");
    for (SchemeKind kind : kinds) {
        Surface expect("");
        SchemeResult r = timeScheme(session, handle.hash, kind,
                                    fused_opts, targets, reps,
                                    trace->size(), expect);

        // The alias-lane run: Figure 5's path, same plan and groups.
        SweepOptions alias_opts = fused_opts;
        alias_opts.trackAliasing = true;
        for (unsigned rep = 0; rep < reps; ++rep) {
            Surface surface("");
            const double a = runOnce(
                session, handle.hash, kind, alias_opts,
                rep == 0 ? &surface : nullptr,
                rep == 0 ? &r.aliasKernel : nullptr);
            if (rep == 0)
                checkSurface(kind, expect, surface);
            r.alias.seconds =
                rep == 0 ? a : std::min(r.alias.seconds, a);
        }
        r.alias.throughput = static_cast<double>(trace->size()) *
                             static_cast<double>(r.configs) /
                             r.alias.seconds;
        results.push_back(r);

        std::printf("%-10s %7zu |", schemeKindName(kind), r.configs);
        for (const ModeResult &m : r.fused)
            std::printf(" %12.3e %5.2fx |", m.throughput,
                        r.speedup(m));
        std::printf(" %12.3e %5.2fx | %12.3e %5.2fx\n",
                    r.fusedThreads.throughput, r.speedup(r.fusedThreads),
                    r.alias.throughput, r.speedup(r.alias));
    }

    // Geomeans over schemes: each vector target, threads and alias
    // lanes vs fused[scalar].
    std::vector<double> vs_scalar_geo(targets.size());
    for (std::size_t t = 0; t < targets.size(); ++t) {
        std::vector<double> vs_scalar;
        for (const SchemeResult &r : results)
            vs_scalar.push_back(r.speedup(r.fused[t]));
        vs_scalar_geo[t] = geomean(vs_scalar);
    }
    std::vector<double> threaded_speedups, alias_speedups;
    for (const SchemeResult &r : results) {
        threaded_speedups.push_back(r.speedup(r.fusedThreads));
        alias_speedups.push_back(r.speedup(r.alias));
    }
    const double threaded_geo = geomean(threaded_speedups);
    const double alias_geo = geomean(alias_speedups);

    std::printf("\ngeomean vs fused[scalar]:");
    for (std::size_t t = 1; t < targets.size(); ++t)
        std::printf(" fused[%s] %.2fx", simdTargetName(targets[t]),
                    vs_scalar_geo[t]);
    std::printf(" fused+threads %.2fx alias %.2fx\n", threaded_geo,
                alias_geo);
    std::printf("(all misprediction surfaces verified bit-identical "
                "across modes and targets)\n");

    // ---- Within-group scaling: fused_threads x segments matrix ---
    //
    // One representative scheme (GAs, the paper's centerpiece) run
    // through every combination of the two within-group knobs.  Lane
    // sharding (fused_threads) must stay bit-identical at every cell;
    // speculative segmentation (segments > 1) reports its max
    // per-point epsilon against the exact surface instead.  The full
    // 1/2/4/8 grid always runs -- on hosts with fewer hardware
    // threads the extra cells still verify correctness, but their
    // speedups measure oversubscription, not scaling (interpret
    // against "hardware_threads" in the JSON).
    const SchemeKind matrix_kind = SchemeKind::GAs;
    const unsigned matrix_levels[] = {1, 2, 4, 8};
    SweepOptions matrix_base = fused_opts;

    std::printf("\n==== Within-group scaling: %s, fused_threads x "
                "segments (warmup %u) ====\n",
                schemeKindName(matrix_kind),
                matrix_base.segmentWarmup);
    Surface matrix_exact("");
    std::vector<MatrixCell> matrix;
    double matrix_base_s = 0.0;
    std::printf("%4s |", "ft\\K");
    for (unsigned segs : matrix_levels)
        std::printf("  %10s=%u |", "segments", segs);
    std::printf("\n");
    for (unsigned ft : matrix_levels) {
        std::printf("%4u |", ft);
        for (unsigned segs : matrix_levels) {
            MatrixCell cell;
            cell.fusedThreads = ft;
            cell.segments = segs;
            SweepOptions opts = matrix_base;
            opts.fusedThreads = ft;
            opts.segments = segs;
            Surface surface("");
            for (unsigned rep = 0; rep < reps; ++rep) {
                const double s = runOnce(
                    session, handle.hash, matrix_kind, opts,
                    rep == 0 ? &surface : nullptr,
                    rep == 0 ? &cell.kernel : nullptr);
                cell.seconds =
                    rep == 0 ? s : std::min(cell.seconds, s);
            }
            if (ft == 1 && segs == 1) {
                matrix_exact = surface;
                matrix_base_s = cell.seconds;
            }
            if (segs == 1)
                checkSurface(matrix_kind, matrix_exact, surface);
            else
                cell.epsilon = maxSurfaceDelta(matrix_exact, surface);
            cell.speedup = matrix_base_s / cell.seconds;
            matrix.push_back(cell);
            std::printf(" %6.3fs %4.2fx |", cell.seconds,
                        cell.speedup);
        }
        std::printf("\n");
    }
    double matrix_max_eps = 0.0;
    for (const MatrixCell &cell : matrix)
        matrix_max_eps = std::max(matrix_max_eps, cell.epsilon);
    std::printf("(segments=1 cells bit-identical to exact; max "
                "speculative epsilon %.3e mispredict-rate points)\n",
                matrix_max_eps);

    // ---- Zoo phase: batched model-lane replay per target --------
    //
    // The batched engine (runModelBatch) decodes each 2048-branch
    // block once, shares the TAGE tag/index folds across lanes and
    // steps perceptron lanes through the SIMD dot-product kernel.
    // This phase times it per dispatch target and with group
    // threads on a fig_tage_aliasing-sized surface (tiers spanning the
    // fig's entry 4..8 x base 6..10 budgets), bit-identity asserted.
    const SchemeKind zoo_kinds[] = {SchemeKind::Tage,
                                    SchemeKind::Perceptron};
    SweepOptions zoo_opts = fused_opts;
    zoo_opts.minTotalBits = 10;
    zoo_opts.maxTotalBits = 18;

    std::printf("\n==== Zoo throughput: batched model replay (tiers "
                "2^%u..2^%u) ====\n",
                zoo_opts.minTotalBits, zoo_opts.maxTotalBits);
    std::vector<SchemeResult> zoo_results;
    std::printf("%-10s %7s |", "scheme", "configs");
    for (SimdTarget t : targets)
        std::printf(" %12s %6s |", simdTargetName(t), "spd");
    std::printf(" %12s %6s\n", "batch+t bc/s", "spd");
    for (SchemeKind kind : zoo_kinds) {
        Surface expect("");
        SchemeResult r = timeScheme(session, handle.hash, kind,
                                    zoo_opts, targets, reps,
                                    trace->size(), expect);
        zoo_results.push_back(r);
        std::printf("%-10s %7zu |", schemeKindName(kind), r.configs);
        for (const ModeResult &m : r.fused)
            std::printf(" %12.3e %5.2fx |", m.throughput,
                        r.speedup(m));
        std::printf(" %12.3e %5.2fx\n", r.fusedThreads.throughput,
                    r.speedup(r.fusedThreads));
    }
    std::printf("(all zoo surfaces verified bit-identical across "
                "modes and targets)\n");

    // Machine-readable record, consumed by CHANGES.md bookkeeping and
    // future perf-trajectory comparisons (see EXPERIMENTS.md).
    FILE *json = std::fopen(json_path.c_str(), "w");
    if (!json)
        bpsim_fatal("cannot write ", json_path);
    std::fprintf(json, "{\n  \"bench\": \"perf_sweep\",\n");
    writeHost(json);
    std::fprintf(json, "  \"profile\": \"%s\",\n", profile.c_str());
    std::fprintf(json, "  \"branches\": %llu,\n",
                 static_cast<unsigned long long>(trace->size()));
    std::fprintf(json, "  \"tiers\": [4, 15],\n");
    std::fprintf(json, "  \"reps\": %u,\n", reps);
    std::fprintf(json, "  \"trace_bytes_per_branch\": %.3f,\n",
                 trace->bytesPerBranch());
    std::fprintf(json, "  \"simd_targets\": [");
    for (std::size_t t = 0; t < targets.size(); ++t)
        std::fprintf(json, "\"%s\"%s", simdTargetName(targets[t]),
                     t + 1 < targets.size() ? ", " : "");
    std::fprintf(json, "],\n");
    std::fprintf(json, "  \"unit\": \"branch-config updates per "
                       "second\",\n");
    std::fprintf(json, "  \"baseline\": \"fused[scalar]\",\n");
    const auto write_mode = [&](const char *name, const SchemeResult &r,
                                const ModeResult &m, const char *tail) {
        std::fprintf(json,
                     "     \"%s\": {\"seconds\": %.6f, \"throughput\": "
                     "%.3e, \"speedup\": %.3f}%s\n",
                     name, m.seconds, m.throughput, r.speedup(m), tail);
    };
    const auto write_targets = [&](const char *name,
                                   const SchemeResult &r) {
        std::fprintf(json, "     \"%s\": {\n", name);
        for (std::size_t t = 0; t < targets.size(); ++t) {
            const ModeResult &m = r.fused[t];
            std::fprintf(json,
                         "      \"%s\": {\"seconds\": %.6f, "
                         "\"throughput\": %.3e, \"speedup\": %.3f}%s\n",
                         simdTargetName(targets[t]), m.seconds,
                         m.throughput, r.speedup(m),
                         t + 1 < targets.size() ? "," : "");
        }
        std::fprintf(json, "     },\n");
    };
    const auto write_kernel = [&](const char *name,
                                  const KernelTelemetry &k,
                                  const char *tail) {
        std::fprintf(json, "     \"%s\": %s%s\n", name,
                     service::telemetryJson(k).render().c_str(), tail);
    };
    std::fprintf(json, "  \"schemes\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SchemeResult &r = results[i];
        std::fprintf(json, "    {\"scheme\": \"%s\", \"configs\": "
                           "%zu,\n",
                     schemeKindName(r.kind), r.configs);
        write_targets("fused", r);
        write_mode("fused_threads", r, r.fusedThreads, ",");
        write_mode("alias", r, r.alias, ",");
        write_kernel("kernel", r.kernel, ",");
        write_kernel("alias_kernel", r.aliasKernel, "}");
        std::fprintf(json, "%s", i + 1 < results.size() ? ",\n" : "\n");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json,
                 "  \"within_group_scaling\": {\"scheme\": \"%s\", "
                 "\"segment_warmup\": %u,\n"
                 "   \"max_speculative_epsilon\": %.3e,\n"
                 "   \"note\": \"speedups above hardware_threads "
                 "measure oversubscription, not scaling\",\n"
                 "   \"cells\": [\n",
                 schemeKindName(matrix_kind),
                 matrix_base.segmentWarmup, matrix_max_eps);
    for (std::size_t i = 0; i < matrix.size(); ++i) {
        const MatrixCell &cell = matrix[i];
        std::fprintf(json,
                     "    {\"fused_threads\": %u, \"segments\": %u, "
                     "\"seconds\": %.6f, \"speedup\": %.3f, "
                     "\"epsilon\": %.3e,\n",
                     cell.fusedThreads, cell.segments, cell.seconds,
                     cell.speedup, cell.epsilon);
        write_kernel("kernel", cell.kernel,
                     i + 1 < matrix.size() ? "}," : "}");
    }
    std::fprintf(json, "  ]},\n");
    std::fprintf(json,
                 "  \"zoo\": {\"tiers\": [%u, %u],\n"
                 "   \"baseline\": \"batched[scalar]\",\n"
                 "   \"schemes\": [\n",
                 zoo_opts.minTotalBits, zoo_opts.maxTotalBits);
    for (std::size_t i = 0; i < zoo_results.size(); ++i) {
        const SchemeResult &r = zoo_results[i];
        std::fprintf(json,
                     "    {\"scheme\": \"%s\", \"configs\": %zu,\n",
                     schemeKindName(r.kind), r.configs);
        write_targets("batched", r);
        write_mode("batched_threads", r, r.fusedThreads, ",");
        write_kernel("kernel", r.kernel,
                     i + 1 < zoo_results.size() ? "}," : "}");
    }
    std::fprintf(json, "  ]},\n");
    std::fprintf(json, "  \"geomean_simd_vs_scalar_fused\": {");
    for (std::size_t t = 1; t < targets.size(); ++t)
        std::fprintf(json, "\"%s\": %.3f%s",
                     simdTargetName(targets[t]), vs_scalar_geo[t],
                     t + 1 < targets.size() ? ", " : "");
    std::fprintf(json, "},\n");
    std::fprintf(json,
                 "  \"geomean_fused_threads_speedup\": %.3f,\n"
                 "  \"geomean_alias_speedup\": %.3f\n}\n",
                 threaded_geo, alias_geo);
    std::fclose(json);
    std::printf("wrote %s\n", json_path.c_str());

    // ---- Result-cache phase: cold vs warm vs disk-warm ----------
    //
    // The same table3-scale sweep set (every scheme, tiers 2^4..2^15)
    // runs three times: cold (compute + .bpc store), warm (memory
    // hits in the same session) and disk-warm (a fresh session whose
    // registry is empty, so every answer must come from .bpc files).
    // Every served surface is verified bit-identical to the cold run.
    const bool scratch_cache = cache_dir.empty();
    if (scratch_cache) {
        cache_dir = (std::filesystem::temp_directory_path() /
                     "bpsim_perf_sweep_cache")
                        .string();
    }
    std::filesystem::remove_all(cache_dir);

    std::printf("\n==== Result cache: cold vs warm vs disk-warm "
                "(dir %s) ====\n",
                cache_dir.c_str());
    SweepOptions cache_opts = paperSweepOptions();
    cache_opts.trackAliasing = false;
    cache_opts.threads = 0;

    auto run_phase = [&](SweepSession &s,
                         std::vector<Surface> *surfaces,
                         const std::vector<Surface> *expect) {
        WallTimer timer;
        std::size_t i = 0;
        for (SchemeKind kind : kinds) {
            SweepResult r = cli::orFatal(s.sweep(
                SweepRequest{handle.hash, kind, cache_opts})).result;
            if (surfaces)
                surfaces->push_back(r.misprediction);
            if (expect)
                checkSurface(kind, (*expect)[i], r.misprediction);
            ++i;
        }
        return timer.seconds();
    };

    std::vector<Surface> cold_surfaces;
    SweepSession cold_session(cache_dir);
    internProfile(cold_session, profile, branches);
    const double cold_s =
        run_phase(cold_session, &cold_surfaces, nullptr);
    const double warm_s =
        run_phase(cold_session, nullptr, &cold_surfaces);

    SweepSession disk_session(cache_dir);
    const double disk_s =
        run_phase(disk_session, nullptr, &cold_surfaces);
    const auto warm_stats = cold_session.cache().stats();
    const auto disk_stats = disk_session.cache().stats();

    const double warm_speedup = cold_s / warm_s;
    const double disk_speedup = cold_s / disk_s;
    std::printf("cold  %9.3f s (%zu sweeps computed and stored)\n",
                cold_s, cold_surfaces.size());
    std::printf("warm  %9.3f s (%7.1fx, memory hits %llu)\n", warm_s,
                warm_speedup,
                static_cast<unsigned long long>(
                    warm_stats.memoryHits));
    std::printf("disk  %9.3f s (%7.1fx, disk hits %llu, empty "
                "registry)\n",
                disk_s, disk_speedup,
                static_cast<unsigned long long>(disk_stats.diskHits));
    std::printf("(all cached surfaces verified bit-identical to the "
                "cold run)\n");

    FILE *cache_json = std::fopen(cache_json_path.c_str(), "w");
    if (!cache_json)
        bpsim_fatal("cannot write ", cache_json_path);
    std::fprintf(cache_json, "{\n  \"bench\": \"perf_sweep_cache\",\n");
    writeHost(cache_json);
    std::fprintf(cache_json, "  \"profile\": \"%s\",\n",
                 profile.c_str());
    std::fprintf(cache_json, "  \"branches\": %llu,\n",
                 static_cast<unsigned long long>(trace->size()));
    std::fprintf(cache_json, "  \"tiers\": [4, 15],\n");
    std::fprintf(cache_json, "  \"schemes\": %zu,\n",
                 cold_surfaces.size());
    std::fprintf(cache_json, "  \"engine_version\": %u,\n",
                 kEngineVersion);
    std::fprintf(cache_json,
                 "  \"cold\": {\"seconds\": %.6f, \"misses\": %llu, "
                 "\"store_failures\": %llu},\n",
                 cold_s,
                 static_cast<unsigned long long>(warm_stats.misses),
                 static_cast<unsigned long long>(
                     warm_stats.storeFailures));
    std::fprintf(cache_json,
                 "  \"warm\": {\"seconds\": %.6f, \"speedup\": %.1f, "
                 "\"memory_hits\": %llu},\n",
                 warm_s, warm_speedup,
                 static_cast<unsigned long long>(
                     warm_stats.memoryHits));
    std::fprintf(cache_json,
                 "  \"disk\": {\"seconds\": %.6f, \"speedup\": %.1f, "
                 "\"disk_hits\": %llu, \"corrupt\": %llu},\n",
                 disk_s, disk_speedup,
                 static_cast<unsigned long long>(disk_stats.diskHits),
                 static_cast<unsigned long long>(disk_stats.corrupt));
    std::fprintf(cache_json,
                 "  \"verified\": \"bit-identical to cold run\"\n}\n");
    std::fclose(cache_json);
    std::printf("wrote %s\n", cache_json_path.c_str());

    if (scratch_cache)
        std::filesystem::remove_all(cache_dir);
    return 0;
}
