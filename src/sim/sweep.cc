#include "sim/sweep.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <set>
#include <type_traits>

#include "common/logging.hh"
#include "common/packed_pht.hh"
#include "common/sat_counter.hh"
#include "common/thread_pool.hh"
#include "stats/aliasing.hh"

namespace bpsim {

namespace {

/** Resolved within-group execution shape for one fused replay. */
struct ReplayExec
{
    /** Lane shard executors (resolveFusedThreads, >= 1). */
    unsigned shards = 1;
    /** Trace segments (resolveSegments, >= 1; 1 = exact). */
    unsigned segments = 1;
    /** Warm-up branches before each speculative segment. */
    std::size_t warmup = 2048;
    /**
     * Alias lanes: every 2-bit lane also feeds its accesses to an
     * AliasTracker (Figure 5).  Tracking is exact-only, so groups
     * that track run one segment (see runGroup).
     */
    bool trackAliasing = false;
};

/**
 * The harmless-pattern source of a scheme whose rows carry no outcome
 * history (AddressIndexed, Path): its conflicts are never harmless.
 */
struct NoPattern
{
};

/**
 * The fused replay: one trace pass updates every member configuration.
 * Per branch the raw row value and the pc word index are computed once
 * (the members share them by construction); each member then derives
 * its own table index by masking and trains its packed counter table.
 *
 * Alias lanes (exec.trackAliasing) each own an AliasTracker -- the
 * class the online TwoLevelPredictor uses, so aliasing is defined in
 * one place -- and call tracker.access(idx, pc, allOnes) beside the
 * counter update, on the same index.  pattern_of gives the harmless-
 * pattern source: the outcome history the row was built from, which
 * for gshare is the history and not the hashed row.  An access is
 * harmless when the lane has rows and that history's low rowBits bits
 * are all ones; schemes with no outcome history pass NoPattern.  Alias
 * lanes replay lane-major (see replay_alias_lane) inside the same
 * shard task grid; everything below describes the plain lanes.
 *
 * The pass is block-tiled for locality: a block of branches is decoded
 * once into a compact per-branch record, then every lane makes one
 * tight pass over the decoded block.  The decode cost (row functor,
 * word-index column, outcome bit) is amortised over all lanes, the
 * block stays L1-resident while the lanes stream it, and each lane's
 * packed table stays cache-hot for the whole block instead of being
 * evicted between branches by a hundred sibling tables.
 *
 * When every member fits narrow limits (row and column <= 15 bits --
 * always true for the paper's <= 2^15-counter tables), lanes are
 * further grouped by column width: every lane with colBits == c indexes
 * its table with ((row & rowMask) << c) | (col & colMask), which is
 * ((row << c) | (col & mask(c))) & mask(totalBits).  The c-dependent
 * part is shared, so it is materialised once per (block, c) as a
 * structure-of-arrays uint32 record stream carrying the outcome in bit
 * 31 (outcomes come from the prepared trace's packed bit stream, one
 * 64-branch word at a time), and the hot loop touches only that
 * stream, the outcome bits already folded into it, and the lane
 * tables.  Lanes sharing a record stream are then replayed
 * LaneBatch::kMaxLanes at a time through the runtime-dispatched SIMD
 * kernel (common/simd.hh): per record, one shared stream load feeds
 * 4-16 lanes' mask+gather+packed-counter-RMW in parallel, instead of
 * one scalar pass per lane.  Every dispatch target is bit-identical to
 * the scalar loop.
 *
 * Within the group the replay is decomposed into (shard x segment)
 * tasks (see DESIGN.md "Segment-parallel replay").  Shards partition
 * the *lanes*: each task owns a disjoint, contiguous run of the
 * colBits-sorted lane list with private packed tables, so sharding
 * never changes any lane's update sequence and results are
 * bit-identical for any shard count -- the only cost is that each
 * shard repeats the block decode.  Segments partition the *trace* at
 * block boundaries: segment k > 0 starts from cold counter state,
 * replays an uncounted warm-up window of exec.warmup branches before
 * its range to converge the counters, then counts its own range; the
 * per-(lane, segment) counts are summed in segment order.  Segment
 * boundaries and warm-up depend only on (trace length, segments,
 * warmup), so speculative results are deterministic and independent of
 * shard/worker counts; segments == 1 replays [0, n) cold-started
 * exactly like the serial engine.
 */
template <typename RowFn, typename PatternFn>
void
runFusedReplay(const PreparedTrace &t,
               const std::vector<ConfigJob> &jobs,
               const std::vector<std::size_t> &members, RowFn row_of,
               [[maybe_unused]] PatternFn pattern_of, ConfigResult *slots,
               SimdTarget target, const ReplayExec &exec,
               KernelTelemetry *telemetry)
{
    struct LaneSpec
    {
        std::size_t member;
        std::uint64_t rowMask;
        std::uint64_t colMask;
        unsigned colBits;
    };

    struct Lane
    {
        std::uint64_t rowMask;
        std::uint64_t colMask;
        unsigned colBits;
        std::uint64_t mispredicts = 0;
        PackedPht pht;

        explicit Lane(const LaneSpec &spec)
            : rowMask(spec.rowMask), colMask(spec.colMask),
              colBits(spec.colBits),
              pht((static_cast<std::size_t>(spec.rowMask) + 1) *
                  (static_cast<std::size_t>(spec.colMask) + 1))
        {
        }
    };

    std::vector<LaneSpec> specs;
    specs.reserve(members.size());
    bool narrow = true;
    for (std::size_t member : members) {
        const ConfigJob &job = jobs[member];
        specs.push_back(LaneSpec{member, mask(job.rowBits),
                                 mask(job.colBits), job.colBits});
        if (job.rowBits > 15 || job.colBits > 15)
            narrow = false;
    }
    // Keep column classes contiguous so each shard materialises as few
    // per-column record streams as possible.  Stable: plan order is
    // preserved within a class, and the sort affects execution
    // placement only -- every lane's result lands in slots[member].
    std::stable_sort(specs.begin(), specs.end(),
                     [](const LaneSpec &a, const LaneSpec &b) {
                         return a.colBits < b.colBits;
                     });

    // 2048 * 4 bytes keeps each decoded block at 8 KiB -- small enough
    // to share L1 with the largest packed table a paper sweep uses
    // (2^15 counters = 8 KiB).  A multiple of 64 so blocks consume
    // whole packed-outcome words.
    constexpr std::size_t blockSize = 2048;
    static_assert(blockSize % 64 == 0,
                  "blocks must consume whole taken words");
    const std::size_t n = t.size();
    const std::size_t nblocks = (n + blockSize - 1) / blockSize;

    // Segments split at block boundaries (so counted tiles stay
    // 64-aligned) and never exceed the block count; shards never
    // exceed the lane count.  Balanced integer splits keep both
    // partitions deterministic.
    const std::size_t lane_count = specs.size();
    const std::size_t shards = std::max<std::size_t>(
        1, std::min<std::size_t>(exec.shards, lane_count));
    const std::size_t segs = std::max<std::size_t>(
        1, std::min<std::size_t>(exec.segments,
                                 std::max<std::size_t>(nblocks, 1)));
    bpsim_assert(!exec.trackAliasing || segs == 1,
                 "alias lanes replay exactly (one segment)");
    const std::size_t tasks = shards * segs;
    const auto shard_begin = [&](std::size_t s) {
        return s * lane_count / shards;
    };
    const auto seg_begin = [&](std::size_t k) {
        return std::min(n, k * nblocks / segs * blockSize);
    };

    // Per-(segment, lane) mispredict counts: task (s, k) writes only
    // its shard's slice of row k, so placement is deterministic and
    // unsynchronised.  Alias lanes run one segment, so their aliasing
    // results need one slot per lane.
    std::vector<std::uint64_t> seg_misses(segs * lane_count, 0);
    std::vector<ConfigResult> lane_alias(
        exec.trackAliasing ? lane_count : 0);
    std::vector<KernelTelemetry> task_tel(tasks);

    // An alias lane: one lane-major pass over [lo, hi) straight from
    // the trace columns, each branch's counter update and tracker
    // access side by side on the same index.  A tracker holds 8 bytes
    // per counter, so replaying one lane at a time keeps it hot in
    // cache for the whole pass and keeps one alive per task, where
    // block-tiling every lane's tracker through each block would miss
    // in cache and hold them all.  For the same reason the counters are
    // one byte each (SatCounter<2>, bit-identical to PackedPht): a
    // lone scalar lane stalls on read-modify-writes of a packed byte
    // shared by four counters.
    const auto replay_alias_lane = [&](const LaneSpec &spec,
                                       std::size_t lo, std::size_t hi,
                                       ConfigResult &alias) {
        constexpr bool has_pattern =
            !std::is_same_v<PatternFn, NoPattern>;
        // The all-ones pattern of rowBits; a lane without rows (or a
        // scheme without an outcome-history pattern) is never
        // harmless.
        const std::uint64_t ones = has_pattern ? spec.rowMask : 0;
        std::vector<TwoBitCounter> counters(
            (static_cast<std::size_t>(spec.rowMask) + 1) *
            (static_cast<std::size_t>(spec.colMask) + 1));
        AliasTracker tracker(counters.size());
        std::uint64_t misses = 0;
        for (std::size_t g = lo; g < hi; ++g) {
            const Addr pc = t.pc(g);
            const auto idx = static_cast<std::size_t>(
                ((row_of(g) & spec.rowMask) << spec.colBits) |
                (wordIndex(pc) & spec.colMask));
            bool harmless = false;
            if constexpr (has_pattern)
                harmless = ones != 0 && (pattern_of(g) & ones) == ones;
            tracker.access(idx, pc, harmless);
            const bool taken = t.taken(g);
            misses += counters[idx].predict() != taken;
            counters[idx].update(taken);
        }
        alias.aliasRate = tracker.aliasRate();
        alias.harmlessFraction = tracker.harmlessFraction();
        return misses;
    };

    const auto run_task = [&](std::size_t task_idx) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::size_t s = task_idx / segs;
        const std::size_t k = task_idx % segs;
        const std::size_t lane_lo = shard_begin(s);
        const std::size_t lane_hi = shard_begin(s + 1);
        const std::size_t seg_lo = seg_begin(k);
        const std::size_t seg_hi = seg_begin(k + 1);
        // Segment 0 starts at the true trace start and needs no
        // warm-up; later segments converge their cold counters on the
        // window just before their range (uncounted).
        const std::size_t warm_lo =
            seg_lo > exec.warmup ? seg_lo - exec.warmup : 0;
        KernelTelemetry &tel = task_tel[task_idx];
        tel.warmupBranches += seg_lo - warm_lo;

        if (exec.trackAliasing) {
            for (std::size_t j = lane_lo; j < lane_hi; ++j)
                seg_misses[j] = replay_alias_lane(specs[j], seg_lo,
                                                  seg_hi, lane_alias[j]);
            tel.busySeconds += std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
            return;
        }

        // Private tables per task: shards must not share bytes (the
        // SIMD kernels require disjoint lanes), and speculative
        // segments must start cold by construction.
        std::vector<Lane> lanes;
        lanes.reserve(lane_hi - lane_lo);
        for (std::size_t j = lane_lo; j < lane_hi; ++j)
            lanes.emplace_back(specs[j]);

        if (narrow) {
            // Lanes sharing a column width share their fused record;
            // the record for c occupies bits 0..29 (row << c tops out
            // at bit 14 + 15), so the outcome bit in 31 never collides
            // with any total-bits mask.
            std::vector<std::vector<Lane *>> by_col(16);
            for (Lane &lane : lanes)
                by_col[lane.colBits].push_back(&lane);

            // Raw decode: outcome in bit 31, row in bits 29..15,
            // column in bits 14..0.  Lanes only read the row/column
            // bits their masks cover, so the 15-bit truncation is
            // lossless.
            std::vector<std::uint32_t> decoded(blockSize);
            std::vector<std::uint32_t> record(blockSize);
            const auto replay_span = [&](std::size_t lo,
                                         std::size_t hi, bool count) {
                for (std::size_t base = lo; base < hi;
                     base += blockSize) {
                    const std::size_t m =
                        std::min(blockSize, hi - base);
                    if (count)
                        ++tel.blocksReplayed;
                    std::uint64_t taken_word = 0;
                    for (std::size_t i = 0; i < m; ++i) {
                        const std::size_t g = base + i;
                        // Outcomes arrive packed, one 64-branch word
                        // at a time; reload at word boundaries and on
                        // the first (possibly unaligned, for warm-up
                        // spans) branch.
                        if (i == 0 || (g & 63) == 0)
                            taken_word = t.takenWord(g >> 6);
                        const auto tk = static_cast<std::uint32_t>(
                            (taken_word >> (g & 63)) & 1u);
                        decoded[i] =
                            (tk << 31) |
                            ((static_cast<std::uint32_t>(row_of(g)) &
                              0x7FFFu) << 15) |
                            (t.wordBits(g) & 0x7FFFu);
                    }
                    for (unsigned c = 0; c < by_col.size(); ++c) {
                        std::vector<Lane *> &col_lanes = by_col[c];
                        if (col_lanes.empty())
                            continue;
                        const auto col_mask =
                            static_cast<std::uint32_t>(mask(c));
                        for (std::size_t i = 0; i < m; ++i) {
                            const std::uint32_t d = decoded[i];
                            record[i] = (d & 0x80000000u) |
                                        (((d >> 15) & 0x7FFFu) << c) |
                                        (d & col_mask);
                        }
                        // Replay the shared record stream through the
                        // lanes, LaneBatch::kMaxLanes at a time, on
                        // the dispatched SIMD kernel.
                        for (std::size_t first = 0;
                             first < col_lanes.size();
                             first += LaneBatch::kMaxLanes) {
                            LaneBatch batch;
                            batch.lanes = static_cast<unsigned>(
                                std::min<std::size_t>(
                                    LaneBatch::kMaxLanes,
                                    col_lanes.size() - first));
                            for (unsigned l = 0; l < batch.lanes; ++l) {
                                Lane *lane = col_lanes[first + l];
                                batch.totalMask[l] =
                                    static_cast<std::uint32_t>(
                                        (lane->rowMask << c) |
                                        lane->colMask);
                                batch.pht[l] = lane->pht.data();
                            }
                            replayLaneBatch(target, record.data(), m,
                                            batch);
                            if (count) {
                                for (unsigned l = 0; l < batch.lanes;
                                     ++l)
                                    col_lanes[first + l]->mispredicts +=
                                        batch.misses[l];
                                ++tel.laneBatches;
                            }
                        }
                    }
                }
            };
            replay_span(warm_lo, seg_lo, false);
            replay_span(seg_lo, seg_hi, true);
        } else {
            // Wide fallback for configurations beyond the packed-
            // record limits: same tiling, 64-bit row/column records.
            std::vector<std::uint64_t> rows(blockSize),
                cols(blockSize);
            std::vector<std::uint8_t> takens(blockSize);
            const auto replay_span = [&](std::size_t lo,
                                         std::size_t hi, bool count) {
                for (std::size_t base = lo; base < hi;
                     base += blockSize) {
                    const std::size_t m =
                        std::min(blockSize, hi - base);
                    if (count)
                        ++tel.blocksReplayed;
                    for (std::size_t i = 0; i < m; ++i) {
                        const std::size_t g = base + i;
                        rows[i] = row_of(g);
                        cols[i] = wordIndex(t.pc(g));
                        takens[i] =
                            static_cast<std::uint8_t>(t.taken(g));
                    }
                    for (Lane &lane : lanes) {
                        const std::uint64_t row_mask = lane.rowMask;
                        const std::uint64_t col_mask = lane.colMask;
                        const unsigned col_bits = lane.colBits;
                        std::uint8_t *bytes = lane.pht.data();
                        std::uint64_t misses = 0;
                        for (std::size_t i = 0; i < m; ++i) {
                            const auto idx = static_cast<std::size_t>(
                                ((rows[i] & row_mask) << col_bits) |
                                (cols[i] & col_mask));
                            misses += PackedPht::predictAndUpdateRaw(
                                bytes, idx, takens[i]);
                        }
                        if (count)
                            lane.mispredicts += misses;
                    }
                }
            };
            replay_span(warm_lo, seg_lo, false);
            replay_span(seg_lo, seg_hi, true);
        }

        for (std::size_t j = 0; j < lanes.size(); ++j)
            seg_misses[k * lane_count + lane_lo + j] =
                lanes[j].mispredicts;
        tel.busySeconds +=
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
    };

    // Executors: the fusedThreads knob sizes the shard dimension, and
    // a speculative request implies its segments want to run
    // concurrently, so the task phase may use whichever is larger --
    // purely an execution choice, results never depend on it.
    const auto workers = static_cast<unsigned>(std::min<std::size_t>(
        tasks,
        std::max<std::size_t>(exec.shards, segs > 1 ? segs : 1)));
    const auto span0 = std::chrono::steady_clock::now();
    if (tasks == 1 || workers <= 1) {
        for (std::size_t task_idx = 0; task_idx < tasks; ++task_idx)
            run_task(task_idx);
    } else {
        ThreadPool::shared().parallelFor(tasks, workers, run_task);
    }

    KernelTelemetry counters;
    counters.target = target;
    counters.fusedGroups = 1;
    counters.lanes = lane_count;
    counters.wideLanes =
        narrow || exec.trackAliasing ? 0 : lane_count;
    counters.aliasLanes = exec.trackAliasing ? lane_count : 0;
    counters.segments = segs;
    counters.laneShards = shards;
    counters.shardTasks = tasks;
    counters.shardWorkers = workers;
    counters.spanSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - span0)
            .count();
    for (const KernelTelemetry &tel : task_tel) {
        counters.blocksReplayed += tel.blocksReplayed;
        counters.laneBatches += tel.laneBatches;
        counters.warmupBranches += tel.warmupBranches;
        counters.busySeconds += tel.busySeconds;
    }

    // Reconcile: sum each lane's per-segment counts in segment order.
    // For segs == 1 this is exactly the serial total; for segs > 1 it
    // is the speculative estimate whose delta against exact mode the
    // bench and differential tests report.
    for (std::size_t j = 0; j < lane_count; ++j) {
        std::uint64_t total = 0;
        for (std::size_t k = 0; k < segs; ++k)
            total += seg_misses[k * lane_count + j];
        ConfigResult &out = slots[specs[j].member];
        out = exec.trackAliasing ? lane_alias[j] : ConfigResult{};
        out.mispRate =
            n ? static_cast<double>(total) / static_cast<double>(n)
              : 0.0;
    }
    if (telemetry)
        telemetry->merge(counters);
}

/**
 * The batched model-lane replay: one trace pass steps every member
 * TAGE or perceptron model of a model group (DESIGN.md "Batched
 * model-lane replay").  The multi-table zoo has no packed-2-bit form,
 * but it shares the fused engine's two amortisable costs: the per-
 * branch decode (pc word index, global history, outcome) is identical
 * for every member, and the xorFold hash chains depend only on shared
 * geometry -- every member of a sweep shares tagBits/histories (TAGE)
 * or the table count (perceptron), and members sharing an entry width
 * share their index folds exactly.  So the pass block-tiles the trace
 * like runFusedReplay (same 2048-branch tiles), decodes each block
 * once, materialises the hash keys once per (block, shared-geometry
 * class), and then:
 *
 *  - TAGE lanes replay through TageModel::stepWithKeys on the
 *    component-major key blocks -- the predict/train/allocate logic is
 *    the model's own, so batched and per-config replay cannot drift;
 *  - perceptron lanes drop their weights into int8 structure-of-arrays
 *    banks and replay PerceptronBatch::kMaxLanes at a time through the
 *    runtime-dispatched SIMD dot-product/update kernel
 *    (common/simd.hh), bit-identical to PerceptronModel::step.
 *
 * The within-group execution shape is runFusedReplay's shard x segment
 * task grid verbatim: shards partition the lanes (private models and
 * banks, bit-identical for any shard count), segments partition the
 * trace at block boundaries with the same uncounted warm-up window,
 * and the per-(lane, segment) counts are summed in segment order.
 * Cache-key semantics are therefore identical to the fused 2-bit path:
 * results depend on (trace, geometry, segments, warmup), never on
 * shard or worker counts.
 */
void
runModelBatch(const PreparedTrace &t, const SweepOptions &opts,
              const std::vector<ConfigJob> &jobs,
              const std::vector<std::size_t> &members,
              ConfigResult *slots, SimdTarget target,
              const ReplayExec &exec, KernelTelemetry *telemetry)
{
    static_assert(
        PerceptronBatch::kWeightMin == PerceptronModel::kWeightMin &&
            PerceptronBatch::kWeightMax == PerceptronModel::kWeightMax,
        "the SIMD perceptron kernel clamps to the model's range");

    bpsim_assert(!members.empty(), "empty model group");
    const SchemeKind kind = jobs[members.front()].kind;
    bpsim_assert(kind == SchemeKind::Tage ||
                     kind == SchemeKind::Perceptron,
                 "model groups hold only multi-table schemes");
    for (std::size_t member : members)
        bpsim_assert(jobs[member].kind == kind,
                     "model groups never mix schemes");

    struct LaneSpec
    {
        std::size_t member;
        unsigned rowBits;
        unsigned colBits;
    };
    std::vector<LaneSpec> specs;
    specs.reserve(members.size());
    for (std::size_t member : members)
        specs.push_back(LaneSpec{member, jobs[member].rowBits,
                                 jobs[member].colBits});
    // Keep entry-width classes contiguous (TAGE components and
    // perceptron tables are 2^entryBits entries: rowBits for TAGE,
    // colBits for perceptron) so each shard materialises as few index
    // folds as possible.  Stable, execution placement only.
    const bool is_tage = kind == SchemeKind::Tage;
    std::stable_sort(specs.begin(), specs.end(),
                     [is_tage](const LaneSpec &a, const LaneSpec &b) {
                         return (is_tage ? a.rowBits : a.colBits) <
                                (is_tage ? b.rowBits : b.colBits);
                     });

    // Same tile size as the fused replay: the decoded block (8-byte
    // word index + 8-byte history + outcome) stays L2-resident while
    // every lane streams it.
    constexpr std::size_t blockSize = 2048;
    static_assert(blockSize % 64 == 0,
                  "blocks must consume whole taken words");
    const std::size_t n = t.size();
    const std::size_t nblocks = (n + blockSize - 1) / blockSize;

    const std::size_t lane_count = specs.size();
    const std::size_t shards = std::max<std::size_t>(
        1, std::min<std::size_t>(exec.shards, lane_count));
    const std::size_t segs = std::max<std::size_t>(
        1, std::min<std::size_t>(exec.segments,
                                 std::max<std::size_t>(nblocks, 1)));
    const std::size_t tasks = shards * segs;
    const auto shard_begin = [&](std::size_t s) {
        return s * lane_count / shards;
    };
    const auto seg_begin = [&](std::size_t k) {
        return std::min(n, k * nblocks / segs * blockSize);
    };

    std::vector<std::uint64_t> seg_misses(segs * lane_count, 0);
    std::vector<KernelTelemetry> task_tel(tasks);

    const auto run_task = [&](std::size_t task_idx) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::size_t s = task_idx / segs;
        const std::size_t k = task_idx % segs;
        const std::size_t lane_lo = shard_begin(s);
        const std::size_t lane_hi = shard_begin(s + 1);
        const std::size_t seg_lo = seg_begin(k);
        const std::size_t seg_hi = seg_begin(k + 1);
        const std::size_t warm_lo =
            seg_lo > exec.warmup ? seg_lo - exec.warmup : 0;
        KernelTelemetry &tel = task_tel[task_idx];
        tel.warmupBranches += seg_lo - warm_lo;

        const std::size_t task_lanes = lane_hi - lane_lo;
        std::vector<std::uint64_t> lane_misses(task_lanes, 0);

        // Shared per-block decode: full 64-bit pc word index (the zoo
        // hashes fold all of it, unlike the 15-bit packed columns),
        // the history register, and the unpacked outcome byte the
        // perceptron kernel consumes directly.
        std::vector<std::uint64_t> widx(blockSize), gh(blockSize);
        std::vector<std::uint8_t> tk(blockSize);
        const auto decode_block = [&](std::size_t base,
                                      std::size_t m) {
            for (std::size_t i = 0; i < m; ++i) {
                const std::size_t g = base + i;
                widx[i] = wordIndex(t.pc(g));
                gh[i] = t.globalHistory(g);
                tk[i] = static_cast<std::uint8_t>(t.taken(g));
            }
        };

        if (is_tage) {
            const auto ncomp =
                static_cast<unsigned>(opts.tageHistories.size());
            const unsigned tag_bits = opts.tageTagBits;
            std::uint64_t hmask[8];
            for (unsigned j = 0; j < ncomp && j < 8; ++j)
                hmask[j] = mask(opts.tageHistories[j]);

            std::vector<TageModel> models;
            models.reserve(task_lanes);
            for (std::size_t j = lane_lo; j < lane_hi; ++j)
                models.emplace_back(tageSweepParams(
                    specs[j].rowBits, specs[j].colBits, opts));

            // Component-major key blocks, shared across lanes: tags
            // depend only on (tagBits, histories) -- group-wide -- and
            // entry indices additionally on entryBits, so they are
            // materialised once per (block, entry-width class).
            std::vector<std::uint16_t> tags(ncomp * blockSize);
            std::vector<std::uint32_t> idxf(ncomp * blockSize);
            std::vector<std::uint16_t> wtagf(blockSize);
            std::vector<std::uint32_t> wfold(blockSize);

            const auto replay_span = [&](std::size_t lo,
                                         std::size_t hi, bool count) {
                for (std::size_t base = lo; base < hi;
                     base += blockSize) {
                    const std::size_t m =
                        std::min(blockSize, hi - base);
                    if (count)
                        ++tel.blocksReplayed;
                    decode_block(base, m);
                    for (std::size_t i = 0; i < m; ++i)
                        wtagf[i] = static_cast<std::uint16_t>(
                            xorFold(widx[i], tag_bits));
                    for (unsigned j = 0; j < ncomp; ++j) {
                        std::uint16_t *out = tags.data() +
                                             j * blockSize;
                        for (std::size_t i = 0; i < m; ++i) {
                            const std::uint64_t h = gh[i] & hmask[j];
                            out[i] = static_cast<std::uint16_t>(
                                (wtagf[i] ^ xorFold(h, tag_bits) ^
                                 (xorFold(h, tag_bits - 1) << 1)) &
                                mask(tag_bits));
                        }
                    }
                    for (std::size_t first = 0; first < task_lanes;) {
                        const unsigned eb =
                            specs[lane_lo + first].rowBits;
                        std::size_t last = first;
                        while (last < task_lanes &&
                               specs[lane_lo + last].rowBits == eb)
                            ++last;
                        if (count)
                            ++tel.modelBatches;
                        const std::uint64_t eb_mask = mask(eb);
                        for (std::size_t i = 0; i < m; ++i)
                            wfold[i] = static_cast<std::uint32_t>(
                                xorFold(widx[i], eb));
                        for (unsigned j = 0; j < ncomp; ++j) {
                            std::uint32_t *out = idxf.data() +
                                                 j * blockSize;
                            for (std::size_t i = 0; i < m; ++i)
                                out[i] = static_cast<std::uint32_t>(
                                    (xorFold(gh[i] & hmask[j], eb) ^
                                     wfold[i]) &
                                    eb_mask);
                        }
                        for (std::size_t j = first; j < last; ++j) {
                            TageModel &model = models[j];
                            const std::uint64_t base_mask =
                                mask(specs[lane_lo + j].colBits);
                            std::uint64_t misses = 0;
                            for (std::size_t i = 0; i < m; ++i) {
                                const bool taken = tk[i] != 0;
                                const bool pred =
                                    model
                                        .stepWithKeys(
                                            static_cast<std::size_t>(
                                                widx[i] & base_mask),
                                            idxf.data() + i,
                                            blockSize,
                                            tags.data() + i,
                                            blockSize, taken)
                                        .prediction;
                                misses += pred != taken;
                            }
                            if (count)
                                lane_misses[j] += misses;
                        }
                        first = last;
                    }
                }
            };
            replay_span(warm_lo, seg_lo, false);
            replay_span(seg_lo, seg_hi, true);
        } else {
            const unsigned tables = opts.perceptronTables;
            struct PerceptronLane
            {
                std::vector<std::int8_t> bank;
                std::int32_t theta;
                unsigned entryBits;
            };
            std::vector<PerceptronLane> lanes;
            lanes.reserve(task_lanes);
            for (std::size_t j = lane_lo; j < lane_hi; ++j) {
                // Validate through the real params (geometry errors
                // surface exactly as on the per-config path).
                perceptronSweepParams(specs[j].rowBits,
                                      specs[j].colBits, opts)
                    .validate();
                PerceptronLane lane;
                lane.entryBits = specs[j].colBits;
                // The SoA bank: table t's weight e at (t << eb) + e,
                // gather slack past the last weight (simd.hh).
                lane.bank.assign(
                    (static_cast<std::size_t>(tables)
                     << lane.entryBits) +
                        PackedPht::kGatherSlack,
                    0);
                lane.theta = static_cast<std::int32_t>(
                    (193u * specs[j].rowBits) / 100u + 14u);
                lanes.push_back(std::move(lane));
            }

            // Sub-tile the block for the pre-offset index buffer:
            // 64 branches x tables x kMaxLanes stays L1-resident.
            constexpr std::size_t kTile = 64;
            std::vector<std::uint32_t> idxbuf(
                kTile * tables * PerceptronBatch::kMaxLanes);

            const auto replay_span = [&](std::size_t lo,
                                         std::size_t hi, bool count) {
                for (std::size_t base = lo; base < hi;
                     base += blockSize) {
                    const std::size_t m =
                        std::min(blockSize, hi - base);
                    if (count)
                        ++tel.blocksReplayed;
                    decode_block(base, m);
                    for (std::size_t b_lo = 0; b_lo < task_lanes;
                         b_lo += PerceptronBatch::kMaxLanes) {
                        PerceptronBatch batch;
                        batch.lanes = static_cast<unsigned>(
                            std::min<std::size_t>(
                                PerceptronBatch::kMaxLanes,
                                task_lanes - b_lo));
                        batch.tables = tables;
                        for (unsigned l = 0; l < batch.lanes; ++l) {
                            PerceptronLane &lane = lanes[b_lo + l];
                            batch.weights[l] = lane.bank.data();
                            batch.theta[l] = lane.theta;
                        }
                        if (count)
                            ++tel.modelBatches;
                        std::uint32_t wfold[kTile];
                        for (std::size_t off = 0; off < m;
                             off += kTile) {
                            const std::size_t mt =
                                std::min(kTile, m - off);
                            int cur_eb = -1;
                            for (unsigned l = 0; l < batch.lanes;
                                 ++l) {
                                const PerceptronLane &lane =
                                    lanes[b_lo + l];
                                const unsigned eb = lane.entryBits;
                                const auto eb_mask =
                                    static_cast<std::uint32_t>(
                                        mask(eb));
                                if (static_cast<int>(eb) != cur_eb) {
                                    cur_eb = static_cast<int>(eb);
                                    for (std::size_t i = 0; i < mt;
                                         ++i)
                                        wfold[i] = static_cast<
                                            std::uint32_t>(
                                            xorFold(widx[off + i],
                                                    eb));
                                }
                                const unsigned h =
                                    specs[lane_lo + b_lo + l].rowBits;
                                const std::size_t stride =
                                    static_cast<std::size_t>(tables) *
                                    PerceptronBatch::kMaxLanes;
                                std::uint32_t *col = idxbuf.data() + l;
                                for (std::size_t i = 0; i < mt; ++i)
                                    col[i * stride] =
                                        static_cast<std::uint32_t>(
                                            widx[off + i]) &
                                        eb_mask;
                                const unsigned nseg = tables - 1;
                                for (unsigned tb = 1; tb < tables;
                                     ++tb) {
                                    const unsigned seg_l =
                                        (tb - 1) * h / nseg;
                                    const unsigned seg_h =
                                        tb * h / nseg;
                                    const auto off_t =
                                        static_cast<std::uint32_t>(
                                            tb)
                                        << eb;
                                    std::uint32_t *out =
                                        idxbuf.data() +
                                        tb *
                                            PerceptronBatch::
                                                kMaxLanes +
                                        l;
                                    for (std::size_t i = 0; i < mt;
                                         ++i) {
                                        const std::uint64_t seg =
                                            bitsAt(gh[off + i],
                                                   seg_l,
                                                   seg_h - seg_l);
                                        out[i * stride] =
                                            ((static_cast<
                                                  std::uint32_t>(
                                                  xorFold(seg, eb)) ^
                                              wfold[i]) &
                                             eb_mask) +
                                            off_t;
                                    }
                                }
                            }
                            replayPerceptronBatch(target,
                                                  idxbuf.data(),
                                                  tk.data() + off, mt,
                                                  batch);
                        }
                        if (count)
                            for (unsigned l = 0; l < batch.lanes; ++l)
                                lane_misses[b_lo + l] +=
                                    batch.misses[l];
                    }
                }
            };
            replay_span(warm_lo, seg_lo, false);
            replay_span(seg_lo, seg_hi, true);
        }

        for (std::size_t j = 0; j < task_lanes; ++j)
            seg_misses[k * lane_count + lane_lo + j] = lane_misses[j];
        tel.busySeconds +=
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
    };

    const auto workers = static_cast<unsigned>(std::min<std::size_t>(
        tasks,
        std::max<std::size_t>(exec.shards, segs > 1 ? segs : 1)));
    const auto span0 = std::chrono::steady_clock::now();
    if (tasks == 1 || workers <= 1) {
        for (std::size_t task_idx = 0; task_idx < tasks; ++task_idx)
            run_task(task_idx);
    } else {
        ThreadPool::shared().parallelFor(tasks, workers, run_task);
    }

    KernelTelemetry counters;
    counters.target = target;
    counters.modelGroups = 1;
    counters.modelLanes = lane_count;
    counters.segments = segs;
    counters.laneShards = shards;
    counters.shardTasks = tasks;
    counters.shardWorkers = workers;
    counters.spanSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - span0)
            .count();
    for (const KernelTelemetry &tel : task_tel) {
        counters.blocksReplayed += tel.blocksReplayed;
        counters.modelBatches += tel.modelBatches;
        counters.warmupBranches += tel.warmupBranches;
        counters.busySeconds += tel.busySeconds;
    }

    for (std::size_t j = 0; j < lane_count; ++j) {
        std::uint64_t total = 0;
        for (std::size_t k = 0; k < segs; ++k)
            total += seg_misses[k * lane_count + j];
        ConfigResult &out = slots[specs[j].member];
        out = ConfigResult{};
        out.mispRate =
            n ? static_cast<double>(total) / static_cast<double>(n)
              : 0.0;
    }
    if (telemetry)
        telemetry->merge(counters);
}

} // namespace

void
KernelTelemetry::merge(const KernelTelemetry &other)
{
    forEachField([&](const char *, auto field, Merge rule) {
        using F = decltype(field);
        if constexpr (!std::is_member_function_pointer_v<F>) {
            auto &mine = this->*field;
            if (rule == Merge::Last)
                mine = other.*field;
            else if constexpr (!std::is_enum_v<
                                   std::decay_t<decltype(mine)>>)
                mine = rule == Merge::Max ? std::max(mine, other.*field)
                                          : mine + other.*field;
        }
    });
}

const std::vector<OptionField> &
sweepOptionFields()
{
    using O = SweepOptions;
    using K = KeyScope;
    constexpr std::uint32_t all = kEveryScheme;
    constexpr std::uint32_t bht = schemeBit(SchemeKind::PAsFinite);
    constexpr std::uint32_t tage = schemeBit(SchemeKind::Tage);
    // member, protocol key, key token, read by, key scope, protocol
    // [min, max] (tiers capped again by ProtocolLimits), power of two.
    static const std::vector<OptionField> fields = {
        {&O::minTotalBits, "min_bits", "min", all, K::TierRange, 1, 64},
        {&O::maxTotalBits, "max_bits", "max", all, K::TierRange, 1, 64},
        {&O::trackAliasing, "aliasing", "alias", all, K::Scheme},
        {&O::pathBitsPerTarget, "path_bits", "pathbits",
         schemeBit(SchemeKind::Path), K::Scheme, 1, 16},
        {&O::bhtEntries, "bht_entries", "bht", bht, K::Scheme, 1,
         1ull << 24, true},
        {&O::bhtAssoc, "bht_assoc", "assoc", bht, K::Scheme, 1, 64},
        {&O::bhtResetPolicy, nullptr, "reset", bht, K::Scheme},
        {&O::tageTagBits, "tage_tag_bits", "tagbits", tage, K::Scheme,
         2, 16},
        {&O::tageHistories, "tage_histories", "histories", tage,
         K::Scheme, 1, 64},
        {&O::perceptronTables, "perceptron_tables", "ptables",
         schemeBit(SchemeKind::Perceptron), K::Scheme, 2, 16},
        {&O::threads, nullptr, nullptr, all, K::Scheme},
        {&O::simd, nullptr, nullptr, all, K::Scheme},
        {&O::fusedThreads, "fused_threads", nullptr, all, K::Scheme, 0,
         256},
        {&O::segments, "segments", "segments", all, K::Speculative, 1,
         SweepOptions::kMaxSegments},
        {&O::segmentWarmup, "segment_warmup", "warmup", all,
         K::Speculative, 0, 1ull << 20},
    };
    return fields;
}

std::vector<std::uint64_t>
OptionField::get(const SweepOptions &opts) const
{
    return std::visit(
        [&](auto field) -> std::vector<std::uint64_t> {
            const auto &value = opts.*field;
            if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                         std::vector<unsigned>>)
                return {value.begin(), value.end()};
            else
                return {static_cast<std::uint64_t>(value)};
        },
        member);
}

void
OptionField::set(SweepOptions &opts,
                 const std::vector<std::uint64_t> &values) const
{
    std::visit(
        [&](auto field) {
            auto &value = opts.*field;
            using T = std::decay_t<decltype(value)>;
            if constexpr (std::is_same_v<T, std::vector<unsigned>>)
                value.assign(values.begin(), values.end());
            else
                value = static_cast<T>(values.at(0));
        },
        member);
}

unsigned
resolveFusedThreads(const SweepOptions &opts)
{
    return ThreadPool::resolveThreads(opts.fusedThreads);
}

unsigned
resolveSegments(const SweepOptions &opts)
{
    unsigned segs = opts.segments;
    if (segs == 0) {
        // Read fresh on every call: tests and long-lived services
        // toggle BPSIM_SEGMENTS between sweeps.
        segs = 1;
        if (const char *env = std::getenv("BPSIM_SEGMENTS")) {
            char *end = nullptr;
            const unsigned long v = std::strtoul(env, &end, 10);
            if (end && *end == '\0' && end != env && v >= 1 &&
                v <= SweepOptions::kMaxSegments) {
                segs = static_cast<unsigned>(v);
            } else {
                bpsim_warn("ignoring unrecognised BPSIM_SEGMENTS ",
                           "value '", env,
                           "' (expected an integer in [1, ",
                           SweepOptions::kMaxSegments, "])");
            }
        }
    }
    return std::max(1u,
                    std::min(segs, SweepOptions::kMaxSegments));
}

const char *
schemeKindName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::AddressIndexed: return "addr";
      case SchemeKind::GAg: return "GAg";
      case SchemeKind::GAs: return "GAs";
      case SchemeKind::Gshare: return "gshare";
      case SchemeKind::Path: return "path";
      case SchemeKind::PAsPerfect: return "PAs(inf)";
      case SchemeKind::PAsFinite: return "PAs(bht)";
      case SchemeKind::Tage: return "tage";
      case SchemeKind::Perceptron: return "perceptron";
    }
    return "?";
}

TageParams
tageSweepParams(unsigned row_bits, unsigned col_bits,
                const SweepOptions &opts)
{
    TageParams params;
    params.entryBits = row_bits;
    params.baseBits = col_bits;
    params.tagBits = opts.tageTagBits;
    params.histories = opts.tageHistories;
    return params;
}

PerceptronParams
perceptronSweepParams(unsigned row_bits, unsigned col_bits,
                      const SweepOptions &opts)
{
    PerceptronParams params;
    params.historyBits = row_bits;
    params.entryBits = col_bits;
    params.tables = opts.perceptronTables;
    return params;
}

std::vector<ConfigJob>
planSweep(SchemeKind kind, const SweepOptions &opts)
{
    bpsim_assert(opts.minTotalBits <= opts.maxTotalBits,
                 "sweep tier range reversed");
    std::vector<ConfigJob> jobs;
    for (unsigned total = opts.minTotalBits; total <= opts.maxTotalBits;
         ++total) {
        for (unsigned r = 0; r <= total; ++r) {
            unsigned c = total - r;
            // Degenerate schemes contribute a single split per tier.
            if (kind == SchemeKind::AddressIndexed && r != 0)
                continue;
            if (kind == SchemeKind::GAg && c != 0)
                continue;
            // The zoo schemes have hard geometry floors: TAGE needs a
            // real component table AND a real base table; perceptron
            // needs at least one history bit (entryBits 0 is a legal
            // single-weight-per-table point).  Out-of-range splits are
            // simply absent from the surface, like the degenerate
            // schemes' missing splits.
            if (kind == SchemeKind::Tage && (r < 1 || c < 1))
                continue;
            if (kind == SchemeKind::Perceptron && (r < 1 || r > 64))
                continue;
            jobs.push_back(ConfigJob{kind, total, r, c});
        }
    }
    return jobs;
}

std::vector<FusedGroup>
planFusedGroups(const std::vector<ConfigJob> &jobs, unsigned threads)
{
    // Bucket by shared first-level stream, in first-appearance order.
    // Only PAsFinite streams depend on the row width (the 0xC3FF reset
    // prefix differs); every other scheme shares one bucket per kind.
    // Zoo jobs bucket into model groups by kind the same way: one
    // sweep's members share tagBits/histories/tables by construction,
    // so any subset batches together.
    struct Bucket
    {
        SchemeKind kind;
        unsigned streamRowBits;
        std::vector<std::size_t> jobs;
    };
    std::vector<Bucket> buckets;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const ConfigJob &job = jobs[i];
        const unsigned key =
            job.kind == SchemeKind::PAsFinite ? job.rowBits : 0;
        Bucket *bucket = nullptr;
        for (Bucket &b : buckets) {
            if (b.kind == job.kind && b.streamRowBits == key) {
                bucket = &b;
                break;
            }
        }
        if (!bucket) {
            buckets.push_back(Bucket{job.kind, key, {}});
            bucket = &buckets.back();
        }
        bucket->jobs.push_back(i);
    }

    // Chunk each bucket into at most `threads` contiguous groups so
    // the pool can spread one large bucket across executors.  Each
    // chunk replays the trace once; the per-job results are identical
    // for any chunking, so the split is free to vary with the thread
    // count.
    std::vector<FusedGroup> groups;
    const std::size_t chunk_target = threads > 1 ? threads : 1;
    for (Bucket &bucket : buckets) {
        const std::size_t size = bucket.jobs.size();
        const std::size_t chunks = std::min(chunk_target, size);
        const std::size_t base = size / chunks;
        const std::size_t extra = size % chunks;
        std::size_t next = 0;
        for (std::size_t c = 0; c < chunks; ++c) {
            const std::size_t take = base + (c < extra ? 1 : 0);
            FusedGroup g;
            g.kind = bucket.kind;
            g.streamRowBits = bucket.streamRowBits;
            g.jobs.assign(bucket.jobs.begin() +
                              static_cast<std::ptrdiff_t>(next),
                          bucket.jobs.begin() +
                              static_cast<std::ptrdiff_t>(next + take));
            next += take;
            groups.push_back(std::move(g));
        }
    }
    return groups;
}

StreamCache::StreamCache(const PreparedTrace &trace,
                         const SweepOptions &opts)
    : trace_(trace), opts_(opts)
{
}

const std::vector<std::uint64_t> &
StreamCache::pathStreamLocked()
{
    if (!path_) {
        path_ = trace_.pathHistoryStream(opts_.pathBitsPerTarget);
        ++streamBuilds_;
        noteStreamResidentLocked();
    }
    return *path_;
}

const StreamCache::BhtStream &
StreamCache::bhtStreamLocked(unsigned row_bits)
{
    auto it = bht_.find(row_bits);
    if (it == bht_.end() || it->second.released) {
        BhtStream built;
        built.stream = trace_.bhtHistoryStream(
            opts_.bhtEntries, opts_.bhtAssoc, row_bits,
            &built.missRate, opts_.bhtResetPolicy);
        ++streamBuilds_;
        noteStreamResidentLocked();
        if (it == bht_.end()) {
            it = bht_.emplace(row_bits, std::move(built)).first;
        } else {
            // Rebuild in place: the node (and thus any prepared-table
            // pointer to it) stays put.
            it->second = std::move(built);
        }
    }
    return it->second;
}

void
StreamCache::noteStreamResidentLocked()
{
    ++residentStreams_;
    peakResidentStreams_ =
        std::max(peakResidentStreams_, residentStreams_);
}

void
StreamCache::prepare(const std::vector<ConfigJob> &jobs,
                     unsigned threads)
{
    bool need_path = false;
    std::set<unsigned> widths;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const ConfigJob &job : jobs) {
            if (job.kind == SchemeKind::Path && !path_) {
                need_path = true;
            } else if (job.kind == SchemeKind::PAsFinite) {
                auto it = bht_.find(job.rowBits);
                if (it == bht_.end() || it->second.released)
                    widths.insert(job.rowBits);
            }
        }
    }

    std::vector<std::function<void()>> builds;
    if (need_path) {
        builds.push_back([this] {
            auto stream =
                trace_.pathHistoryStream(opts_.pathBitsPerTarget);
            std::lock_guard<std::mutex> lock(mutex_);
            ++streamBuilds_;
            if (!path_) {
                path_ = std::move(stream);
                noteStreamResidentLocked();
            }
        });
    }
    for (unsigned width : widths) {
        builds.push_back([this, width] {
            BhtStream built;
            built.stream = trace_.bhtHistoryStream(
                opts_.bhtEntries, opts_.bhtAssoc, width,
                &built.missRate, opts_.bhtResetPolicy);
            std::lock_guard<std::mutex> lock(mutex_);
            ++streamBuilds_;
            noteStreamResidentLocked();
            auto it = bht_.find(width);
            if (it == bht_.end())
                bht_.emplace(width, std::move(built));
            else
                it->second = std::move(built);
        });
    }

    if (!builds.empty()) {
        if (threads <= 1 || builds.size() == 1) {
            for (auto &build : builds)
                build();
        } else {
            ThreadPool::shared().parallelFor(
                builds.size(), threads,
                [&](std::size_t i) { builds[i](); });
        }
    }

    // Publish the lock-free lookup table -- even when nothing needed
    // building, so a prepared cache never locks in the execution hot
    // path.  The pointers are stable: path_ is emplaced once and map
    // nodes never move, and lazy (post-prepare) inserts only add
    // entries these tables do not reference.
    std::lock_guard<std::mutex> lock(mutex_);
    preparedPath_ = path_ ? &*path_ : nullptr;
    preparedBht_.clear();
    preparedBht_.reserve(bht_.size());
    for (const auto &entry : bht_)
        preparedBht_.emplace_back(entry.first, &entry.second);
}

const StreamCache::BhtStream *
StreamCache::preparedBhtStream(unsigned row_bits) const
{
    for (const auto &entry : preparedBht_) {
        if (entry.first == row_bits)
            return entry.second;
    }
    return nullptr;
}

const std::vector<std::uint64_t> *
StreamCache::stream(SchemeKind kind, unsigned row_bits)
{
    // Release tracking bypasses the lock-free table: a stream another
    // group finished with may be freed (and rebuilt) at any moment, so
    // the lookup must observe release state under the lock.  That is
    // one short lock per group, not per branch.
    if (kind == SchemeKind::Path) {
        if (!releaseTracking_ && preparedPath_)
            return preparedPath_;
        lockedLookups_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mutex_);
        return &pathStreamLocked();
    }
    if (kind == SchemeKind::PAsFinite) {
        if (!releaseTracking_) {
            if (const BhtStream *prepared =
                    preparedBhtStream(row_bits))
                return &prepared->stream;
        }
        lockedLookups_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mutex_);
        return &bhtStreamLocked(row_bits).stream;
    }
    return nullptr;
}

double
StreamCache::bhtMissRate(unsigned row_bits)
{
    if (!releaseTracking_) {
        if (const BhtStream *prepared = preparedBhtStream(row_bits))
            return prepared->missRate;
    }
    lockedLookups_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    // The rate is recorded at build time and survives release; only
    // rebuild when the entry has never been built at all.
    auto it = bht_.find(row_bits);
    if (it != bht_.end())
        return it->second.missRate;
    return bhtStreamLocked(row_bits).missRate;
}

std::size_t
StreamCache::lockedLookups() const
{
    return lockedLookups_.load(std::memory_order_relaxed);
}

std::size_t
StreamCache::streamBuilds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return streamBuilds_;
}

double
StreamCache::sweepBhtMissRate() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bht_.empty() ? -1.0 : bht_.rbegin()->second.missRate;
}

void
StreamCache::planRelease(const std::vector<FusedGroup> &groups)
{
    std::lock_guard<std::mutex> lock(mutex_);
    releaseTracking_ = true;
    pathConsumers_ = 0;
    bhtConsumers_.clear();
    for (const FusedGroup &group : groups) {
        if (group.kind == SchemeKind::Path)
            ++pathConsumers_;
        else if (group.kind == SchemeKind::PAsFinite)
            ++bhtConsumers_[group.streamRowBits];
    }
}

void
StreamCache::groupFinished(const FusedGroup &group)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!releaseTracking_)
        return;
    if (group.kind == SchemeKind::Path) {
        if (pathConsumers_ > 0 && --pathConsumers_ == 0 && path_) {
            path_.reset();
            preparedPath_ = nullptr;
            --residentStreams_;
        }
        return;
    }
    if (group.kind != SchemeKind::PAsFinite)
        return;
    auto consumers = bhtConsumers_.find(group.streamRowBits);
    if (consumers == bhtConsumers_.end() || --consumers->second > 0)
        return;
    bhtConsumers_.erase(consumers);
    auto it = bht_.find(group.streamRowBits);
    if (it != bht_.end() && !it->second.released) {
        // Free the buffer, keep the node: missRate stays readable and
        // any prepared-table pointer to the node stays valid (though
        // release tracking already routes lookups around that table).
        it->second.stream.clear();
        it->second.stream.shrink_to_fit();
        it->second.released = true;
        --residentStreams_;
    }
}

std::size_t
StreamCache::residentStreams() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return residentStreams_;
}

std::size_t
StreamCache::peakResidentStreams() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return peakResidentStreams_;
}

namespace {

/**
 * Execute one group under an explicit within-group shape.  Alias
 * tracking is a lane capability of the 2-bit family only (the zoo's
 * aliasing surfaces stay zero; analyzeInterference owns its
 * interference story), and alias groups replay exactly: one segment
 * whatever @p exec asks for.
 */
void
runGroup(const FusedGroup &group, const std::vector<ConfigJob> &jobs,
         StreamCache &cache, ConfigResult *slots,
         KernelTelemetry *telemetry, ReplayExec exec)
{
    const PreparedTrace &t = cache.trace();
    const SweepOptions &opts = cache.options();
    const SimdTarget target = resolveSimdTarget(opts.simd);
    const bool zoo = group.kind == SchemeKind::Tage ||
                     group.kind == SchemeKind::Perceptron;
    exec.trackAliasing = opts.trackAliasing && !zoo;
    if (exec.trackAliasing)
        exec.segments = 1;
    // One stream lookup per group, not per job or per branch.
    const std::vector<std::uint64_t> *aux =
        cache.stream(group.kind, group.streamRowBits);
    const auto global_history = [&](std::size_t i) {
        return t.globalHistory(i);
    };
    const auto self_history = [&](std::size_t i) {
        return t.selfHistory(i);
    };
    const auto aux_stream = [&](std::size_t i) { return (*aux)[i]; };

    switch (group.kind) {
      case SchemeKind::AddressIndexed:
        runFusedReplay(t, jobs, group.jobs,
                       [](std::size_t) { return std::uint64_t{0}; },
                       NoPattern{}, slots, target, exec, telemetry);
        break;
      case SchemeKind::GAg:
      case SchemeKind::GAs:
        runFusedReplay(t, jobs, group.jobs, global_history,
                       global_history, slots, target, exec, telemetry);
        break;
      case SchemeKind::Gshare:
        // Harmlessness keys on the outcome pattern itself, not on the
        // address-hashed row.
        runFusedReplay(t, jobs, group.jobs,
                       [&](std::size_t i) {
                           return t.globalHistory(i) ^
                                  wordIndex(t.pc(i));
                       },
                       global_history, slots, target, exec, telemetry);
        break;
      case SchemeKind::Path:
        bpsim_assert(aux, "fused path group needs a history stream");
        runFusedReplay(t, jobs, group.jobs, aux_stream, NoPattern{},
                       slots, target, exec, telemetry);
        break;
      case SchemeKind::PAsPerfect:
        runFusedReplay(t, jobs, group.jobs, self_history, self_history,
                       slots, target, exec, telemetry);
        break;
      case SchemeKind::PAsFinite: {
        bpsim_assert(aux, "fused finite-PAs group needs a BHT stream");
        runFusedReplay(t, jobs, group.jobs, aux_stream, aux_stream,
                       slots, target, exec, telemetry);
        const double miss = cache.bhtMissRate(group.streamRowBits);
        for (std::size_t member : group.jobs)
            slots[member].bhtMissRate = miss;
        break;
      }
      case SchemeKind::Tage:
      case SchemeKind::Perceptron:
        runModelBatch(t, opts, jobs, group.jobs, slots, target, exec,
                      telemetry);
        break;
    }
}

} // namespace

void
runFusedGroup(const FusedGroup &group,
              const std::vector<ConfigJob> &jobs, StreamCache &cache,
              ConfigResult *slots, KernelTelemetry *telemetry)
{
    // The within-group execution shape: lane shards (always
    // bit-identical) and trace segments (speculative when > 1).
    ReplayExec exec;
    exec.shards = resolveFusedThreads(cache.options());
    exec.segments = resolveSegments(cache.options());
    exec.warmup = cache.options().segmentWarmup;
    runGroup(group, jobs, cache, slots, telemetry, exec);
}

SweepResult::SweepResult(const std::string &scheme_name,
                         const std::string &trace_name)
    : misprediction(scheme_name + " misprediction: " + trace_name),
      aliasing(scheme_name + " aliasing: " + trace_name),
      harmless(scheme_name + " harmless-alias fraction: " + trace_name)
{
}

SweepResult
sweepScheme(const PreparedTrace &trace, SchemeKind kind,
            const SweepOptions &opts)
{
    SweepResult result(schemeKindName(kind), trace.name());

    // Plan: enumerate the space, partition into fused groups, and
    // precompute shared inputs.  Serial sweeps skip the eager stream
    // prepare: groups run one at a time, so lazy builds plus
    // release-after-last-consumer keep at most the streams the current
    // group needs resident.  Parallel sweeps still prepare up front
    // (concurrent groups need their streams simultaneously) and
    // release as groups drain.
    const std::vector<ConfigJob> jobs = planSweep(kind, opts);
    const unsigned threads = ThreadPool::resolveThreads(opts.threads);
    const std::vector<FusedGroup> groups =
        planFusedGroups(jobs, threads);
    StreamCache cache(trace, opts);
    if (threads > 1)
        cache.prepare(jobs, threads);
    cache.planRelease(groups);

    // Execute: the pool distributes whole groups; every group writes
    // only its own members' slots (and telemetry slot), so placement
    // stays deterministic.
    std::vector<ConfigResult> slots(jobs.size());
    std::vector<KernelTelemetry> group_telemetry(groups.size());
    if (threads <= 1) {
        for (std::size_t g = 0; g < groups.size(); ++g) {
            runFusedGroup(groups[g], jobs, cache, slots.data(),
                          &group_telemetry[g]);
            cache.groupFinished(groups[g]);
        }
    } else {
        ThreadPool::shared().parallelFor(
            groups.size(), threads, [&](std::size_t g) {
                runFusedGroup(groups[g], jobs, cache, slots.data(),
                              &group_telemetry[g]);
                cache.groupFinished(groups[g]);
            });
    }
    // Aggregate: merging in any order yields one coherent record, and
    // the target is the one every group resolved.
    for (const KernelTelemetry &group : group_telemetry)
        result.kernel.merge(group);
    result.kernel.target = resolveSimdTarget(opts.simd);

    // Merge in plan order: bit-identical to the serial sweep.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const ConfigJob &job = jobs[i];
        result.misprediction.add(job.totalBits, job.rowBits,
                                 job.colBits, slots[i].mispRate);
        if (opts.trackAliasing) {
            result.aliasing.add(job.totalBits, job.rowBits, job.colBits,
                                slots[i].aliasRate);
            result.harmless.add(job.totalBits, job.rowBits, job.colBits,
                                slots[i].harmlessFraction);
        }
    }
    if (kind == SchemeKind::PAsFinite)
        result.bhtMissRate = cache.sweepBhtMissRate();
    return result;
}

ConfigResult
simulateConfig(StreamCache &cache, SchemeKind kind, unsigned row_bits,
               unsigned col_bits)
{
    bpsim_assert(kind != SchemeKind::AddressIndexed || row_bits == 0,
                 "address-indexed tables have no rows");
    // A one-lane group (a fused lane, or a model lane for the zoo),
    // replayed exactly and unsharded: segments and fusedThreads do not
    // apply to a single point.
    const std::vector<ConfigJob> jobs{
        ConfigJob{kind, row_bits + col_bits, row_bits, col_bits}};
    FusedGroup group;
    group.kind = kind;
    group.streamRowBits = kind == SchemeKind::PAsFinite ? row_bits : 0;
    group.jobs = {0};
    ConfigResult out;
    runGroup(group, jobs, cache, &out, nullptr, ReplayExec{});
    return out;
}

ConfigResult
simulateConfig(const PreparedTrace &trace, SchemeKind kind,
               unsigned row_bits, unsigned col_bits,
               const SweepOptions &opts)
{
    StreamCache cache(trace, opts);
    return simulateConfig(cache, kind, row_bits, col_bits);
}

} // namespace bpsim
