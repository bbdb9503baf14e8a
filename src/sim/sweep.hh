/**
 * @file
 * Configuration-space sweeps: every (rows x columns) split of every
 * predictor-table budget, for every scheme in the paper, over a prepared
 * trace.  This is the engine behind Figures 2-10 and Table 3.
 *
 * Sweeps run in two phases.  The *plan* phase (planSweep) enumerates the
 * configuration space into ConfigJobs and planFusedGroups groups them
 * by the first-level input stream they share (one group per stream).
 * The *execute* phase (runFusedGroups) first builds the sweep's shared
 * immutable first-level inputs, once and serially -- the path-history
 * stream, and one 64-bit BHT history from which every PAsFinite row
 * width derives its rows -- then runs the groups as one flat task grid,
 * groups x lane shards x trace segments, on a single
 * ThreadPool::parallelFor (see DESIGN.md "Segment-parallel replay"):
 *
 *  - a task replays a contiguous run of one group's lanes -- all of
 *    their packed pattern tables updated in the same pass, since every
 *    split of a tier reads the same per-branch row value and word
 *    index -- with private tables, so a group's min(lanes, threads)
 *    lane shards are bit-identical to one serial pass;
 *  - SweepOptions::segments speculatively splits the *trace* into K
 *    ranges replayed concurrently from cold-start counter state behind
 *    a segmentWarmup-branch warm-up window.  K > 1 trades a bounded,
 *    auditable mispredict epsilon for parallelism; the exact K = 1
 *    mode stays the default and speculative results depend only on
 *    (K, warmup), never on shard/worker counts.
 *
 * Results land in per-job ConfigResult slots that are merged into
 * Surfaces in plan order, so results are bit-identical for any thread
 * count.
 *
 * Aliasing measurement (Figure 5) is a lane capability of the same
 * replay: with SweepOptions::trackAliasing every 2-bit lane also owns
 * an AliasTracker fed the accessing pc and the harmless-pattern bit
 * beside each counter update.  Alias lanes replay lane-major (their
 * 8-byte-per-counter trackers stay cache-hot and one is alive per
 * task), exactly (one segment), and shard like any other group.  A
 * single configuration (simulateConfig) is a one-lane group on the
 * same path, so every 2-bit and zoo result comes from one engine.
 *
 * The sweep path is the fast counterpart of the online TwoLevelPredictor
 * (see prepared_trace.hh); their equivalence is pinned by tests.
 */

#ifndef BPSIM_SIM_SWEEP_HH
#define BPSIM_SIM_SWEEP_HH

#include <cstdint>
#include <variant>
#include <vector>

#include "common/simd.hh"
#include "predictor/perceptron.hh"
#include "predictor/tage.hh"
#include "sim/prepared_trace.hh"
#include "stats/surface.hh"

namespace bpsim {

/**
 * The predictor families the paper sweeps.  Each 2-bit kind's row
 * (and harmless-pattern) source is defined once, by withRowSource in
 * first_level.hh, which both the sweep replay and analyzeInterference
 * read.
 */
enum class SchemeKind
{
    AddressIndexed, ///< row of counters, address-selected (Figure 2)
    GAg,            ///< column of counters, global history (Figure 3)
    GAs,            ///< global history x address (Figure 4)
    Gshare,         ///< (global history XOR address) x address (Fig. 6)
    Path,           ///< Nair target-bit path history (Figure 8)
    PAsPerfect,     ///< self history, unbounded first level (Figure 9)
    PAsFinite,      ///< self history through a real BHT (Figure 10)
    /**
     * The multi-table zoo: these replay full TageModel /
     * PerceptronModel state per configuration (no packed-PHT form --
     * the fused kernel's 2-bit-counter invariants do not hold for
     * tagged entries or signed weights).  The planner batches them
     * into MODEL groups: one trace pass decodes each block once and
     * steps every member model, sharing the hash folds across members
     * (and, for perceptron lanes, running the dot-product/update
     * through the SIMD PerceptronBatch kernel).  Their aliasing/
     * harmless surfaces stay zero whether trackAliasing is set or not
     * -- interference decomposition comes from analyzeInterference
     * instead (see interference.hh), whose private twins are one
     * model per static branch, indexed by PreparedTrace::branchId.
     */
    Tage,       ///< tagged geometric-history components over a base
    Perceptron, ///< hashed perceptron (summed signed weight tables)
};

/** Every SchemeKind, in declaration order. */
constexpr SchemeKind kSchemeKinds[] = {
    SchemeKind::AddressIndexed, SchemeKind::GAg,  SchemeKind::GAs,
    SchemeKind::Gshare,         SchemeKind::Path, SchemeKind::PAsPerfect,
    SchemeKind::PAsFinite,      SchemeKind::Tage, SchemeKind::Perceptron,
};

/** @return the scheme's display name ("GAs", "gshare", ...). */
const char *schemeKindName(SchemeKind kind);

/** Sweep shape and per-scheme parameters. */
struct SweepOptions
{
    /** Smallest tier: 2^minTotalBits counters (paper: 16). */
    unsigned minTotalBits = 4;
    /** Largest tier: 2^maxTotalBits counters (paper: 32768). */
    unsigned maxTotalBits = 15;
    /**
     * Measure aliasing alongside misprediction (Figure 5): every 2-bit
     * lane also feeds an AliasTracker.  Alias-tracked groups always
     * replay exactly -- `segments` does not apply to them.
     */
    bool trackAliasing = true;
    /** Path scheme: address bits contributed per branch. */
    unsigned pathBitsPerTarget = 2;
    /** PAsFinite: BHT entry count (power of two). */
    std::size_t bhtEntries = 1024;
    /** PAsFinite: BHT associativity. */
    unsigned bhtAssoc = 4;
    /** PAsFinite: BHT miss-reset policy (ablation knob). */
    BhtResetPolicy bhtResetPolicy = BhtResetPolicy::C3ffPrefix;
    /**
     * Tage: tag width in bits.  Sweep axes map rowBits -> per-component
     * entry bits and colBits -> base-table bits; these options carry
     * the remaining geometry.  Result-affecting: part of cache keys.
     */
    unsigned tageTagBits = 8;
    /** Tage: per-component history lengths (strictly ascending). */
    std::vector<unsigned> tageHistories = {4, 8, 16, 32};
    /**
     * Perceptron: weight tables including the bias table.  Sweep axes
     * map rowBits -> history bits and colBits -> per-table entry bits.
     * Result-affecting: part of cache keys.
     */
    unsigned perceptronTables = 4;
    /**
     * Executors for the sweep's task grid: each group's lanes are
     * sharded min(lanes, threads) ways, each shard owning a disjoint
     * lane subset with private tables (or private zoo models and
     * weight banks).  0 = one per hardware thread, 1 = serial.
     * Results are bit-identical for any value.
     */
    unsigned threads = 1;
    /**
     * Dispatch target for the lane-batched fused kernel.  Auto defers
     * to the BPSIM_SIMD environment override, then to CPUID detection;
     * explicit requests clamp down to the widest supported target.
     * Every target is bit-identical (pinned by the forced-dispatch
     * differential tests), so this is a performance/debug knob only.
     */
    SimdTarget simd = SimdTarget::Auto;
    /**
     * Speculative segment replay: split the trace into this many
     * ranges, replay them concurrently from cold-start counter state
     * after a segmentWarmup-branch uncounted warm-up window, and sum
     * the per-segment mispredict counts.  0 (default) defers to the
     * BPSIM_SEGMENTS environment override, else exact; 1 is the exact
     * single-segment replay (bit-identical to the serial engine);
     * K > 1 trades a bounded mispredict epsilon (2-bit counters
     * converge after a handful of same-direction updates, so only the
     * few warm-up-resistant counters at each boundary can disagree;
     * zoo model state converges more slowly, so the zoo epsilon runs
     * larger at the same warmup -- see EXPERIMENTS.md) for segment
     * parallelism.  Applies to fused AND model groups, except
     * alias-tracked ones, which stay exact.  Speculative
     * results depend only on (K, segmentWarmup) -- never on shard or
     * worker counts -- and are cached under a distinct key
     * (KeyScope::Speculative).  Clamped to kMaxSegments; see
     * resolveSegments().
     */
    unsigned segments = 0;
    /**
     * Warm-up branches replayed (uncounted) before each speculative
     * segment to converge its cold counters; ignored when the
     * resolved segment count is 1.  A window reaching back to the
     * trace start makes the segment exact by construction.
     */
    unsigned segmentWarmup = 2048;

    /** Hard ceiling on resolveSegments() (protocol limit too). */
    static constexpr unsigned kMaxSegments = 64;
};

/** How the result-cache key treats an option (sweep_session.cc). */
enum class KeyScope : std::uint8_t
{
    Scheme,      ///< keyed for the schemes that read it
    TierRange,   ///< keyed, but left out of batchGroupKey
    Speculative, ///< keyed only when resolveSegments() > 1
};

/** Bit of @p kind in an OptionField::schemes mask. */
constexpr std::uint32_t
schemeBit(SchemeKind kind)
{
    return 1u << static_cast<unsigned>(kind);
}

/** OptionField::schemes of a field every scheme reads. */
constexpr std::uint32_t kEveryScheme = ~0u;

/**
 * One SweepOptions field, declared once.  The table of these
 * (sweepOptionFields) drives the result-cache key, the service
 * protocol's option parsing and its unknown-scheme hint: a new knob
 * is a member plus a row.
 */
struct OptionField
{
    std::variant<bool SweepOptions::*, unsigned SweepOptions::*,
                 std::size_t SweepOptions::*,
                 BhtResetPolicy SweepOptions::*,
                 SimdTarget SweepOptions::*,
                 std::vector<unsigned> SweepOptions::*>
        member;
    /** Protocol (JSON) key; nullptr when not settable remotely. */
    const char *protocolKey;
    /** Cache-key token; nullptr for execution-only fields (every
     *  value gives bit-identical results). */
    const char *keyToken;
    /** The schemes that read the field (schemeBit() mask). */
    std::uint32_t schemes;
    KeyScope scope;
    /** Protocol range of the value (of each of the list's 1..8
     *  strictly ascending elements); a power of two if set. */
    std::uint64_t min = 0, max = 0;
    bool powerOfTwo = false;

    bool readBy(SchemeKind kind) const
    {
        return (schemes & schemeBit(kind)) != 0;
    }
    /** The value as integers: the list's elements, else one. */
    std::vector<std::uint64_t> get(const SweepOptions &opts) const;
    /** Store @p values into @p opts; the inverse of get(). */
    void set(SweepOptions &opts,
             const std::vector<std::uint64_t> &values) const;
};

/** Every SweepOptions field, in declaration order. */
const std::vector<OptionField> &sweepOptionFields();

/**
 * The segment count a sweep actually uses: an explicit opts.segments
 * wins; 0 defers to the BPSIM_SEGMENTS environment override (a
 * positive integer; malformed values warn and fall back), else 1.
 * Clamped to [1, SweepOptions::kMaxSegments].  Read fresh per call so
 * tests can vary the environment.  Result-cache keys use the same
 * resolution (sweep_session.cc), so a speculative run can never be
 * served an exact result or vice versa.
 */
unsigned resolveSegments(const SweepOptions &opts);

/**
 * Observability counters for one sweep's kernel execution, reported in
 * SweepResult::kernel, the service `stats` op and bench/perf_sweep so
 * recorded BENCH_sweep.json trajectories are self-describing.  Every
 * counter and derived ratio is declared once, with its JSON key and
 * merge rule, in forEachField(): merge() and every JSON surface walk
 * it, so a new counter is a member plus a row there.
 */
struct KernelTelemetry
{
    /** Resolved dispatch target the lane batches ran on. */
    SimdTarget target = SimdTarget::Scalar;
    /** Fused groups replayed by the lane-batched kernel. */
    std::uint64_t fusedGroups = 0;
    /**
     * Jobs replayed outside any group.  Every job runs in a fused or
     * model group, so this stays 0; it is still reported
     * (`fallback_jobs`) because external benchmark harnesses read it.
     */
    std::uint64_t fallbackJobs = 0;
    /** Member configurations replayed by fused groups. */
    std::uint64_t lanes = 0;
    /** Lanes beyond the packed-record limits (64-bit fallback loop). */
    std::uint64_t wideLanes = 0;
    /** Lanes that also fed an AliasTracker (trackAliasing sweeps). */
    std::uint64_t aliasLanes = 0;
    /** Lane batches dispatched (at most LaneBatch::kMaxLanes each). */
    std::uint64_t laneBatches = 0;
    /** Decoded block tiles streamed through the lane batches. */
    std::uint64_t blocksReplayed = 0;
    /** Trace segments across fused groups (1/group = exact replay). */
    std::uint64_t segments = 0;
    /** Lane shards across fused groups (1/group = unsharded). */
    std::uint64_t laneShards = 0;
    /** (shard x segment) replay tasks dispatched by fused groups. */
    std::uint64_t shardTasks = 0;
    /** Uncounted warm-up branches replayed by speculative segments. */
    std::uint64_t warmupBranches = 0;
    /**
     * Model groups (TAGE/perceptron zoo) replayed by the batched
     * model-lane engine.  Model groups reuse the fused machinery --
     * their segments/shards/tasks/warm-up/blocks/timing fold into the
     * shared counters above -- but step full predictor models instead
     * of packed 2-bit tables, so their population is counted apart
     * from fusedGroups/lanes.
     */
    std::uint64_t modelGroups = 0;
    /** Member configurations replayed as model lanes. */
    std::uint64_t modelLanes = 0;
    /**
     * Batched inner-kernel invocations by model groups: one per
     * (block tile x perceptron lane batch) or (block tile x TAGE
     * entry-bits class).
     */
    std::uint64_t modelBatches = 0;
    /** Summed per-task execution time (busy seconds across workers). */
    double busySeconds = 0.0;
    /** Wall time of the task grid. */
    double spanSeconds = 0.0;
    /** Concurrent executors the task grid could use. */
    std::uint64_t shardWorkers = 0;

    /** Mean member configurations per fused group. */
    double lanesPerGroup() const { return ratio(lanes, fusedGroups); }
    /** Mean member configurations per model group. */
    double modelLanesPerGroup() const
    {
        return ratio(modelLanes, modelGroups);
    }
    /** Mean trace segments per fused or model group (both run the
     *  shard x segment grid; 1.0 = exact everywhere). */
    double segmentsPerGroup() const
    {
        return ratio(segments, fusedGroups + modelGroups);
    }
    /** Mean lane shards per fused or model group (1.0 = unsharded). */
    double shardsPerGroup() const
    {
        return ratio(laneShards, fusedGroups + modelGroups);
    }
    /**
     * Fraction of the task phase's worker-seconds spent executing:
     * busySeconds / (spanSeconds * shardWorkers).  1.0 means every
     * executor was busy for the whole span; 0.0 when unmeasured.
     */
    double workerUtilization() const
    {
        return ratio(busySeconds,
                     spanSeconds * static_cast<double>(shardWorkers));
    }
    /**
     * Bytes the lane inner loop reads per branch per lane: 4 (one
     * packed record) for narrow lanes, 17 (row, column source,
     * outcome) for wide-fallback and alias lanes, which read the
     * trace columns themselves, averaged over the lane population.
     */
    double hotBytesPerBranch() const
    {
        const std::uint64_t streamed = wideLanes + aliasLanes;
        return ratio(4.0 * static_cast<double>(lanes - streamed) +
                         17.0 * static_cast<double>(streamed),
                     lanes);
    }
    /** Fold one group's counters into a sweep-level aggregate. */
    void merge(const KernelTelemetry &other);

    /** How merge() folds a member; Derived marks the ratios. */
    enum class Merge : std::uint8_t
    {
        Sum,
        Max,
        Last,
        Derived,
    };

    /**
     * The telemetry table: fn(JSON key, member, merge rule) for every
     * member, in declaration order, then fn(key, accessor,
     * Merge::Derived) for every derived ratio.  shardWorkers takes
     * the max, which keeps workerUtilization conservative.
     */
    template <class Fn>
    static void
    forEachField(Fn &&fn)
    {
        using K = KernelTelemetry;
        constexpr Merge sum = Merge::Sum;
        fn("target", &K::target, Merge::Last);
        fn("fused_groups", &K::fusedGroups, sum);
        fn("fallback_jobs", &K::fallbackJobs, sum);
        fn("lanes", &K::lanes, sum);
        fn("wide_lanes", &K::wideLanes, sum);
        fn("alias_lanes", &K::aliasLanes, sum);
        fn("lane_batches", &K::laneBatches, sum);
        fn("blocks_replayed", &K::blocksReplayed, sum);
        fn("segments", &K::segments, sum);
        fn("lane_shards", &K::laneShards, sum);
        fn("shard_tasks", &K::shardTasks, sum);
        fn("warmup_branches", &K::warmupBranches, sum);
        fn("model_groups", &K::modelGroups, sum);
        fn("model_lanes", &K::modelLanes, sum);
        fn("model_batches", &K::modelBatches, sum);
        fn("busy_seconds", &K::busySeconds, sum);
        fn("span_seconds", &K::spanSeconds, sum);
        fn("shard_workers", &K::shardWorkers, Merge::Max);
        constexpr Merge derived = Merge::Derived;
        fn("lanes_per_group", &K::lanesPerGroup, derived);
        fn("model_lanes_per_group", &K::modelLanesPerGroup, derived);
        fn("segments_per_group", &K::segmentsPerGroup, derived);
        fn("shards_per_group", &K::shardsPerGroup, derived);
        fn("worker_utilization", &K::workerUtilization, derived);
        fn("hot_bytes_per_branch", &K::hotBytesPerBranch, derived);
    }

  private:
    /** @p num / @p den, or 0.0 when nothing was measured. */
    static double ratio(double num, double den)
    {
        return den > 0.0 ? num / den : 0.0;
    }
};

/** One configuration's measurements. */
struct ConfigResult
{
    double mispRate = 0.0;
    double aliasRate = 0.0;
    /** Fraction of conflicts under the all-ones pattern. */
    double harmlessFraction = 0.0;
    /** PAsFinite: first-level miss rate; negative when inapplicable. */
    double bhtMissRate = -1.0;
};

/** One planned configuration: a 2^rowBits x 2^colBits table. */
struct ConfigJob
{
    SchemeKind kind = SchemeKind::GAs;
    unsigned totalBits = 0;
    unsigned rowBits = 0;
    unsigned colBits = 0;
};

/**
 * Enumerate the jobs a sweep of @p kind executes, in merge order
 * (budget ascending, then row bits ascending).  AddressIndexed
 * contributes only the all-columns split and GAg only the all-rows
 * split, matching the paper's Figures 2 and 3.
 */
std::vector<ConfigJob> planSweep(SchemeKind kind,
                                 const SweepOptions &opts);

/**
 * A unit of fused execution: jobs (indices into the planned job
 * vector) that replay the trace together because they read the same
 * per-branch first-level inputs.  A 2-bit group runs the packed lane
 * kernel (its lanes also track aliasing when the sweep asks); a zoo
 * group (kind Tage/Perceptron) is a MODEL group and runs the batched
 * model-lane replay.
 */
struct FusedGroup
{
    SchemeKind kind = SchemeKind::GAs;
    /**
     * PAsFinite groups: the row width every member reads, i.e. the
     * BHT register width its rows are derived at (the 0xC3FF reset
     * prefix differs by width).  0 for every other scheme, whose
     * first-level inputs are row-width independent.
     */
    unsigned streamRowBits = 0;
    /** Member jobs, as indices into the planned job vector. */
    std::vector<std::size_t> jobs;
};

/**
 * Partition planned jobs into fused execution groups: jobs sharing a
 * first-level stream (same scheme; same BHT row width for PAsFinite)
 * land in one group, in first-appearance order.  Zoo jobs group by
 * scheme into model groups.  Aliasing does not change the plan: it is
 * a lane capability.  Every job index appears in exactly one group,
 * and every stream has exactly one consuming group.
 */
std::vector<FusedGroup>
planFusedGroups(const std::vector<ConfigJob> &jobs);

/**
 * Execute planned groups as one task grid under @p opts, writing each
 * member job's result into slots[job index]; @p slots addresses the
 * whole planned job vector.  The first-level inputs the groups read
 * are built once, before the grid, and dropped on return.  Each group
 * has min(lanes, threads) lane shards and resolveSegments() trace
 * segments (one for alias groups).  A 2-bit lane replays its packed
 * pattern table through the lane-batched SIMD kernel
 * (SweepOptions::simd picks the dispatch target); when the options
 * track aliasing, each lane instead replays lane-major beside its own
 * AliasTracker.  A model lane steps a full zoo model.  When
 * @p telemetry is non-null the grid's kernel counters are merged into
 * it.
 */
void runFusedGroups(const PreparedTrace &trace, const SweepOptions &opts,
                    const std::vector<FusedGroup> &groups,
                    const std::vector<ConfigJob> &jobs, ConfigResult *slots,
                    KernelTelemetry *telemetry = nullptr);

/** Surfaces over the whole configuration space of one scheme. */
struct SweepResult
{
    Surface misprediction;
    Surface aliasing;
    Surface harmless;
    /** PAsFinite only: the BHT tag miss rate (identical across tiers). */
    double bhtMissRate = 0.0;
    /** How the sweep executed (dispatch target, lanes, blocks). */
    KernelTelemetry kernel;

    SweepResult(const std::string &scheme_name,
                const std::string &trace_name);
};

/**
 * Sweep @p kind over every tier in [minTotalBits, maxTotalBits] and
 * every row/column split within each tier, on one task grid of up to
 * opts.threads executors.  The result is bit-identical for any thread
 * count.
 */
SweepResult sweepScheme(const PreparedTrace &trace, SchemeKind kind,
                        const SweepOptions &opts = {});

/**
 * Measure a single configuration (2^row_bits x 2^col_bits).  The
 * configuration runs as a one-job plan on the sweep grid (a fused
 * lane, or a model lane for the zoo), always exactly: `segments` does
 * not apply to a single point.  Its first-level inputs are built per
 * call.
 */
ConfigResult simulateConfig(const PreparedTrace &trace, SchemeKind kind,
                            unsigned row_bits, unsigned col_bits,
                            const SweepOptions &opts = {});

/**
 * The TAGE geometry a sweep point denotes: rowBits -> per-component
 * entry bits, colBits -> base-table bits, remaining knobs from
 * SweepOptions.  One mapping shared by the sweep kernel, the
 * interference analyzer, and the differential tests.
 */
TageParams tageSweepParams(unsigned row_bits, unsigned col_bits,
                           const SweepOptions &opts);

/**
 * The hashed-perceptron geometry a sweep point denotes: rowBits ->
 * history bits, colBits -> per-table entry bits.
 */
PerceptronParams perceptronSweepParams(unsigned row_bits,
                                       unsigned col_bits,
                                       const SweepOptions &opts);

} // namespace bpsim

#endif // BPSIM_SIM_SWEEP_HH
