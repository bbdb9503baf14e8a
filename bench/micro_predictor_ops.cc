/**
 * @file
 * Google-benchmark microbenchmarks: throughput of each predictor's
 * predict-and-train operation and of the sweep kernel, the quantities
 * that bound how fast the figure reproductions run.
 */

#include <benchmark/benchmark.h>

#include "common/logging.hh"
#include "common/packed_pht.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "predictor/factory.hh"
#include "sim/prepared_trace.hh"
#include "sim/sweep.hh"
#include "workload/executor.hh"
#include "workload/synthetic.hh"

using namespace bpsim;

namespace {

/** Shared medium workload (generated once). */
const MemoryTrace &
workload()
{
    static const MemoryTrace trace = [] {
        setQuiet(true);
        WorkloadParams p;
        p.name = "micro";
        p.seed = 1234;
        p.staticBranches = 2000;
        p.functionCount = 170;
        p.targetConditionals = 200'000;
        return generateTrace(p);
    }();
    return trace;
}

const PreparedTrace &
prepared()
{
    static const PreparedTrace t{workload()};
    return t;
}

void
predictorThroughput(benchmark::State &state, const std::string &spec)
{
    const MemoryTrace &trace = workload();
    auto predictor = makePredictor(spec);
    std::size_t i = 0;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        const BranchRecord &rec = trace[i];
        if (rec.isConditional())
            sink += predictor->onBranch(rec);
        i = (i + 1) % trace.size();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}

} // namespace

BENCHMARK_CAPTURE(predictorThroughput, addr_4k, "addr:12");
BENCHMARK_CAPTURE(predictorThroughput, gag_4k, "GAg:12");
BENCHMARK_CAPTURE(predictorThroughput, gas_64x64, "GAs:6:6");
BENCHMARK_CAPTURE(predictorThroughput, gshare_4k, "gshare:12:0");
BENCHMARK_CAPTURE(predictorThroughput, path_64x64, "path:6:6");
BENCHMARK_CAPTURE(predictorThroughput, pas_perfect, "PAs:10:2");
BENCHMARK_CAPTURE(predictorThroughput, pas_1k_bht, "PAs:10:2:1024");
BENCHMARK_CAPTURE(predictorThroughput, tournament,
                  "tournament(addr:11,gshare:11:0):11");
// The zoo's per-step scalar costs: one full model stepped alone.
// Compare with the zooModelStep rows below (trace-normalised
// model-steps/s) to see what batching buys per step.
BENCHMARK_CAPTURE(predictorThroughput, tage_1k_base_256e,
                  "tage:10:8");
BENCHMARK_CAPTURE(predictorThroughput, perceptron_h24_256e,
                  "perceptron:24:8");

namespace {

void
sweepKernel(benchmark::State &state)
{
    const PreparedTrace &t = prepared();
    SweepOptions o;
    o.trackAliasing = state.range(0) != 0;
    for (auto _ : state) {
        ConfigResult r =
            simulateConfig(t, SchemeKind::GAs, 6, 6, o);
        benchmark::DoNotOptimize(r.mispRate);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(t.size()));
}

/**
 * A finite-BHT point probe: one BHT pass builds the first-level
 * history, then the one-lane kernel replays it.
 */
void
sweepKernelFiniteBht(benchmark::State &state)
{
    const PreparedTrace &t = prepared();
    SweepOptions o;
    o.trackAliasing = false;
    o.bhtEntries = 256;
    for (auto _ : state) {
        ConfigResult r = simulateConfig(t, SchemeKind::PAsFinite, 6, 6, o);
        benchmark::DoNotOptimize(r.mispRate);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(t.size()));
}

/**
 * The fused inner loop in isolation: replay a synthetic decoded
 * record stream through a full 16-lane batch on one dispatch target.
 * Items processed counts lane-updates (records x lanes), so the
 * scalar/sse2/avx512 rows are directly comparable and their ratio is
 * the pure kernel speedup with no sweep bookkeeping around it.  (An
 * AVX2 target runs the SSE2 kernel for 2-bit batches.)
 */
void
laneBatchReplay(benchmark::State &state, SimdTarget target)
{
    if (!simdTargetSupported(target)) {
        state.SkipWithError("dispatch target not supported on host");
        return;
    }
    constexpr unsigned lanes = LaneBatch::kMaxLanes;
    constexpr unsigned indexBits = 12; // 4K-counter PHT per lane
    static const std::vector<std::uint32_t> records = [] {
        Pcg32 rng(0xBE9CF00DULL, 5);
        std::vector<std::uint32_t> r(1u << 16);
        for (std::uint32_t &d : r)
            d = rng.next(); // taken bit 31, index bits mixed below
        return r;
    }();

    std::vector<PackedPht> tables;
    LaneBatch batch;
    for (unsigned l = 0; l < lanes; ++l)
        tables.emplace_back(std::size_t{1} << indexBits);
    for (unsigned l = 0; l < lanes; ++l) {
        batch.totalMask[l] = (1u << indexBits) - 1;
        batch.pht[l] = tables[l].data();
        batch.misses[l] = 0;
    }
    batch.lanes = lanes;

    for (auto _ : state) {
        replayLaneBatch(target, records.data(), records.size(),
                        batch);
        benchmark::DoNotOptimize(batch.misses[0]);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(records.size() *
                                                      lanes));
}

/**
 * The zoo step cost at sweep granularity: one tier of TAGE or
 * perceptron configurations replayed as one model group (one decoded
 * block stepped by every lane).  Items processed counts model-steps
 * (branches x lanes), comparable with the single-model
 * predictorThroughput rows.
 */
const PreparedTrace &
zooPrepared()
{
    static const MemoryTrace trace = [] {
        setQuiet(true);
        WorkloadParams p;
        p.name = "micro-zoo";
        p.seed = 4321;
        p.staticBranches = 900;
        p.functionCount = 80;
        p.targetConditionals = 50'000;
        return generateTrace(p);
    }();
    static const PreparedTrace t{trace};
    return t;
}

void
zooModelStep(benchmark::State &state, SchemeKind kind)
{
    const PreparedTrace &t = zooPrepared();
    SweepOptions o;
    o.minTotalBits = 12;
    o.maxTotalBits = 12;
    const std::size_t lanes = planSweep(kind, o).size();
    for (auto _ : state) {
        SweepResult r = sweepScheme(t, kind, o);
        benchmark::DoNotOptimize(r.bhtMissRate);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(t.size() * lanes));
}

/**
 * The batched perceptron inner loop in isolation: a full 8-wide lane
 * batch over a synthetic pre-offset index stream on one dispatch
 * target.  Only scalar and AVX2 have perceptron kernels (SSE2 targets
 * run scalar, AVX-512 targets run AVX2), so those are the two rows.
 * Items processed counts lane-updates, so the rows are directly
 * comparable across targets (same convention as laneBatchReplay).
 */
void
perceptronBatchReplay(benchmark::State &state, SimdTarget target)
{
    if (!simdTargetSupported(target)) {
        state.SkipWithError("dispatch target not supported on host");
        return;
    }
    constexpr unsigned lanes = 8;
    constexpr unsigned tables = 4;
    constexpr unsigned entryBits = 10;
    constexpr std::size_t n = 1u << 14;
    static const std::vector<std::uint32_t> idx = [] {
        Pcg32 rng(0xF005BA11ULL, 9);
        std::vector<std::uint32_t> v(n * tables *
                                     PerceptronBatch::kMaxLanes);
        for (std::size_t i = 0; i < n; ++i)
            for (unsigned tb = 0; tb < tables; ++tb)
                for (unsigned l = 0; l < PerceptronBatch::kMaxLanes;
                     ++l)
                    v[(i * tables + tb) * PerceptronBatch::kMaxLanes +
                      l] = (tb << entryBits) +
                           rng.nextBounded(1u << entryBits);
        return v;
    }();
    static const std::vector<std::uint8_t> taken = [] {
        Pcg32 rng(0x7AC0BEEFULL, 3);
        std::vector<std::uint8_t> v(n);
        for (std::uint8_t &b : v)
            b = static_cast<std::uint8_t>(rng.nextBounded(2));
        return v;
    }();

    std::vector<std::vector<std::int8_t>> banks(lanes);
    PerceptronBatch batch;
    batch.lanes = lanes;
    batch.tables = tables;
    for (unsigned l = 0; l < lanes; ++l) {
        banks[l].assign((std::size_t{tables} << entryBits) +
                            PackedPht::kGatherSlack,
                        0);
        batch.weights[l] = banks[l].data();
        batch.theta[l] = 60;
    }

    for (auto _ : state) {
        replayPerceptronBatch(target, idx.data(), taken.data(), n,
                              batch);
        benchmark::DoNotOptimize(batch.misses[0]);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n * lanes));
}

void
traceGeneration(benchmark::State &state)
{
    WorkloadParams p;
    p.name = "gen";
    p.seed = 77;
    p.staticBranches = 2000;
    p.functionCount = 170;
    p.targetConditionals =
        static_cast<std::uint64_t>(state.range(0));
    SyntheticProgram prog = buildProgram(p);
    for (auto _ : state) {
        ProgramExecutor exec(prog, p);
        BranchRecord rec;
        std::uint64_t n = 0;
        while (exec.next(rec))
            ++n;
        benchmark::DoNotOptimize(n);
        exec.reset();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

} // namespace

BENCHMARK(sweepKernel)->Arg(0)->Arg(1)->ArgNames({"aliasing"});
BENCHMARK(sweepKernelFiniteBht);
BENCHMARK_CAPTURE(laneBatchReplay, scalar, SimdTarget::Scalar);
BENCHMARK_CAPTURE(laneBatchReplay, sse2, SimdTarget::SSE2);
BENCHMARK_CAPTURE(laneBatchReplay, avx512, SimdTarget::AVX512);
BENCHMARK_CAPTURE(zooModelStep, tage_batched, SchemeKind::Tage);
BENCHMARK_CAPTURE(zooModelStep, perceptron_batched,
                  SchemeKind::Perceptron);
BENCHMARK_CAPTURE(perceptronBatchReplay, scalar, SimdTarget::Scalar);
BENCHMARK_CAPTURE(perceptronBatchReplay, avx2, SimdTarget::AVX2);
BENCHMARK(traceGeneration)->Arg(100'000);
