#include "sim/sweep.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <span>
#include <type_traits>

#include "common/logging.hh"
#include "common/packed_pht.hh"
#include "common/sat_counter.hh"
#include "common/thread_pool.hh"
#include "sim/first_level.hh"
#include "stats/aliasing.hh"

namespace bpsim {

namespace {

// 2048 * 4 bytes keeps each decoded block at 8 KiB -- small enough to
// share L1 with the largest packed table a paper sweep uses (2^15
// counters = 8 KiB); the zoo's decoded block (8-byte word index +
// 8-byte history + outcome) stays L2-resident.  A multiple of 64 so
// blocks consume whole packed-outcome words.
constexpr std::size_t kBlockSize = 2048;
static_assert(kBlockSize % 64 == 0, "blocks must consume whole taken words");

/** One lane of a group: a member job's geometry. */
struct LaneSpec
{
    /** Index into the planned job vector (and the result slots). */
    std::size_t member;
    unsigned rowBits;
    unsigned colBits;
};

/**
 * One task of the sweep grid: a contiguous run of one group's lanes,
 * replayed over [warmLo, segLo) uncounted and then over [segLo, segHi)
 * counted.  The task owns its slice of the result buffers, so tasks
 * never share writable bytes.
 */
struct LaneTask
{
    std::span<const LaneSpec> lanes;
    std::size_t warmLo;
    std::size_t segLo;
    std::size_t segHi;
    /** Counted mispredicts, one per lane (zeroed by the scheduler). */
    std::uint64_t *misses;
    /** Alias groups: one aliasing result per lane; else nullptr. */
    ConfigResult *alias;
    KernelTelemetry &tel;
};

/**
 * The fused replay task body: one pass over the task's trace span
 * updates every lane.  Per branch the raw row value and the pc word
 * index are computed once (the lanes share them by construction); each
 * lane then derives its own table index by masking and trains its
 * packed counter table.
 *
 * Alias lanes (task.alias set) each own an AliasTracker -- the class
 * the online TwoLevelPredictor uses, so aliasing is defined in one
 * place -- and call tracker.access(idx, pc, allOnes) beside the
 * counter update, on the same index.  pattern_of gives the harmless-
 * pattern source: the outcome history the row was built from, which
 * for gshare is the history and not the hashed row.  An access is
 * harmless when the lane has rows and that history's low rowBits bits
 * are all ones; schemes with no outcome history pass NoPattern.  Alias
 * lanes replay lane-major, straight from the trace columns: a tracker
 * holds 8 bytes per counter, so replaying one lane at a time keeps it
 * hot in cache for the whole pass and keeps one alive per task, where
 * block-tiling every lane's tracker through each block would miss in
 * cache and hold them all.  For the same reason their counters are one
 * byte each (SatCounter<2>, bit-identical to PackedPht): a lone scalar
 * lane stalls on read-modify-writes of a packed byte shared by four
 * counters.  Everything below describes the plain lanes.
 *
 * The pass is block-tiled for locality: a block of branches is decoded
 * once into a compact per-branch record, then every lane makes one
 * tight pass over the decoded block.  The decode cost (row functor,
 * word-index column, outcome bit) is amortised over all lanes, the
 * block stays L1-resident while the lanes stream it, and each lane's
 * packed table stays cache-hot for the whole block instead of being
 * evicted between branches by a hundred sibling tables.
 *
 * When every member of the group fits narrow limits (row and column <=
 * 15 bits -- always true for the paper's <= 2^15-counter tables),
 * lanes are further grouped by column width: every lane with colBits
 * == c indexes its table with ((row & rowMask) << c) | (col &
 * colMask), which is ((row << c) | (col & mask(c))) & mask(totalBits).
 * The c-dependent part is shared, so it is materialised once per
 * (block, c) as a structure-of-arrays uint32 record stream carrying
 * the outcome in bit 31 (outcomes come from the prepared trace's
 * packed bit stream, one 64-branch word at a time), and the hot loop
 * touches only that stream, the outcome bits already folded into it,
 * and the lane tables.  Lanes sharing a record stream are then
 * replayed LaneBatch::kMaxLanes at a time through the runtime-
 * dispatched SIMD kernel (common/simd.hh): per record, one shared
 * stream load feeds 4-16 lanes' mask+gather+packed-counter-RMW in
 * parallel, instead of one scalar pass per lane.  Every dispatch
 * target is bit-identical to the scalar loop.
 *
 * Tables are private to the task: lane shards must not share bytes
 * (the SIMD kernels require disjoint lanes), and speculative segments
 * start cold by construction.
 */
template <typename RowFn, typename PatternFn>
void
replayFusedLanes(const PreparedTrace &t, const LaneTask &task,
                 bool narrow, SimdTarget target, RowFn row_of,
                 [[maybe_unused]] PatternFn pattern_of)
{
    KernelTelemetry &tel = task.tel;
    if (task.alias) {
        constexpr bool has_pattern = !std::is_same_v<PatternFn, NoPattern>;
        for (std::size_t j = 0; j < task.lanes.size(); ++j) {
            const LaneSpec &spec = task.lanes[j];
            const std::uint64_t row_mask = mask(spec.rowBits);
            const std::uint64_t col_mask = mask(spec.colBits);
            // The all-ones pattern of rowBits; a lane without rows (or
            // a scheme without an outcome-history pattern) is never
            // harmless.
            const std::uint64_t ones = has_pattern ? row_mask : 0;
            std::vector<TwoBitCounter> counters(
                (static_cast<std::size_t>(row_mask) + 1) *
                (static_cast<std::size_t>(col_mask) + 1));
            AliasTracker tracker(counters.size());
            std::uint64_t misses = 0;
            for (std::size_t g = task.segLo; g < task.segHi; ++g) {
                const Addr pc = t.pc(g);
                const auto idx = static_cast<std::size_t>(
                    ((row_of(g) & row_mask) << spec.colBits) |
                    (wordIndex(pc) & col_mask));
                bool harmless = false;
                if constexpr (has_pattern)
                    harmless = ones != 0 && (pattern_of(g) & ones) == ones;
                tracker.access(idx, pc, harmless);
                const bool taken = t.taken(g);
                misses += counters[idx].predict() != taken;
                counters[idx].update(taken);
            }
            task.misses[j] = misses;
            task.alias[j].aliasRate = tracker.aliasRate();
            task.alias[j].harmlessFraction = tracker.harmlessFraction();
        }
        return;
    }

    struct Lane
    {
        std::uint64_t rowMask;
        std::uint64_t colMask;
        unsigned colBits;
        std::uint64_t *misses;
        PackedPht pht;

        Lane(const LaneSpec &spec, std::uint64_t *out)
            : rowMask(mask(spec.rowBits)), colMask(mask(spec.colBits)),
              colBits(spec.colBits), misses(out),
              pht((static_cast<std::size_t>(rowMask) + 1) *
                  (static_cast<std::size_t>(colMask) + 1))
        {
        }
    };
    std::vector<Lane> lanes;
    lanes.reserve(task.lanes.size());
    for (std::size_t j = 0; j < task.lanes.size(); ++j)
        lanes.emplace_back(task.lanes[j], task.misses + j);

    if (narrow) {
        // Lanes sharing a column width share their fused record; the
        // record for c occupies bits 0..29 (row << c tops out at bit
        // 14 + 15), so the outcome bit in 31 never collides with any
        // total-bits mask.
        std::vector<std::vector<Lane *>> by_col(16);
        for (Lane &lane : lanes)
            by_col[lane.colBits].push_back(&lane);

        // Raw decode: outcome in bit 31, row in bits 29..15, column in
        // bits 14..0.  Lanes only read the row/column bits their masks
        // cover, so the 15-bit truncation is lossless.
        std::vector<std::uint32_t> decoded(kBlockSize);
        std::vector<std::uint32_t> record(kBlockSize);
        const auto replay_span = [&](std::size_t lo, std::size_t hi,
                                     bool count) {
            for (std::size_t base = lo; base < hi; base += kBlockSize) {
                const std::size_t m = std::min(kBlockSize, hi - base);
                if (count)
                    ++tel.blocksReplayed;
                std::uint64_t taken_word = 0;
                for (std::size_t i = 0; i < m; ++i) {
                    const std::size_t g = base + i;
                    // Outcomes arrive packed, one 64-branch word at a
                    // time; reload at word boundaries and on the first
                    // (possibly unaligned, for warm-up spans) branch.
                    if (i == 0 || (g & 63) == 0)
                        taken_word = t.takenWord(g >> 6);
                    const auto tk = static_cast<std::uint32_t>(
                        (taken_word >> (g & 63)) & 1u);
                    decoded[i] =
                        (tk << 31) |
                        ((static_cast<std::uint32_t>(row_of(g)) & 0x7FFFu)
                         << 15) |
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
                    // lanes, LaneBatch::kMaxLanes at a time, on the
                    // dispatched SIMD kernel.
                    for (std::size_t first = 0; first < col_lanes.size();
                         first += LaneBatch::kMaxLanes) {
                        LaneBatch batch;
                        batch.lanes = static_cast<unsigned>(
                            std::min<std::size_t>(
                                LaneBatch::kMaxLanes,
                                col_lanes.size() - first));
                        for (unsigned l = 0; l < batch.lanes; ++l) {
                            Lane *lane = col_lanes[first + l];
                            batch.totalMask[l] = static_cast<std::uint32_t>(
                                (lane->rowMask << c) | lane->colMask);
                            batch.pht[l] = lane->pht.data();
                        }
                        replayLaneBatch(target, record.data(), m, batch);
                        if (count) {
                            for (unsigned l = 0; l < batch.lanes; ++l)
                                *col_lanes[first + l]->misses +=
                                    batch.misses[l];
                            ++tel.laneBatches;
                        }
                    }
                }
            }
        };
        replay_span(task.warmLo, task.segLo, false);
        replay_span(task.segLo, task.segHi, true);
        return;
    }

    // Wide fallback for configurations beyond the packed-record
    // limits: same tiling, 64-bit row/column records.
    std::vector<std::uint64_t> rows(kBlockSize), cols(kBlockSize);
    std::vector<std::uint8_t> takens(kBlockSize);
    const auto replay_span = [&](std::size_t lo, std::size_t hi,
                                 bool count) {
        for (std::size_t base = lo; base < hi; base += kBlockSize) {
            const std::size_t m = std::min(kBlockSize, hi - base);
            if (count)
                ++tel.blocksReplayed;
            for (std::size_t i = 0; i < m; ++i) {
                const std::size_t g = base + i;
                rows[i] = row_of(g);
                cols[i] = wordIndex(t.pc(g));
                takens[i] = static_cast<std::uint8_t>(t.taken(g));
            }
            for (Lane &lane : lanes) {
                std::uint8_t *bytes = lane.pht.data();
                std::uint64_t misses = 0;
                for (std::size_t i = 0; i < m; ++i) {
                    const auto idx = static_cast<std::size_t>(
                        ((rows[i] & lane.rowMask) << lane.colBits) |
                        (cols[i] & lane.colMask));
                    misses += PackedPht::predictAndUpdateRaw(bytes, idx,
                                                             takens[i]);
                }
                if (count)
                    *lane.misses += misses;
            }
        }
    };
    replay_span(task.warmLo, task.segLo, false);
    replay_span(task.segLo, task.segHi, true);
}

/**
 * The batched model-lane task body: one pass over the task's trace
 * span steps every TAGE or perceptron lane (DESIGN.md "Batched
 * model-lane replay").  The multi-table zoo has no packed-2-bit form,
 * but it shares the fused replay's two amortisable costs: the per-
 * branch decode (pc word index, global history, outcome) is identical
 * for every lane, and the xorFold hash chains depend only on shared
 * geometry -- every member of a sweep shares tagBits/histories (TAGE)
 * or the table count (perceptron), and lanes sharing an entry width
 * share their index folds exactly.  So the pass block-tiles the trace
 * like replayFusedLanes, decodes each block once, materialises the
 * hash keys once per (block, shared-geometry class), and then:
 *
 *  - TAGE lanes replay through TageModel::stepWithKeys on the
 *    component-major key blocks -- the predict/train/allocate logic is
 *    the model's own, so batched and per-config replay cannot drift;
 *  - perceptron lanes drop their weights into int8 structure-of-arrays
 *    banks and replay PerceptronBatch::kMaxLanes at a time through the
 *    runtime-dispatched SIMD dot-product/update kernel
 *    (common/simd.hh), bit-identical to PerceptronModel::step.
 *
 * The lanes arrive sorted into entry-width classes (rowBits for TAGE,
 * colBits for perceptron); models and weight banks are private to the
 * task.
 */
void
replayModelLanes(const PreparedTrace &t, const SweepOptions &opts,
                 bool is_tage, const LaneTask &task, SimdTarget target)
{
    static_assert(
        PerceptronBatch::kWeightMin == PerceptronModel::kWeightMin &&
            PerceptronBatch::kWeightMax == PerceptronModel::kWeightMax,
        "the SIMD perceptron kernel clamps to the model's range");

    KernelTelemetry &tel = task.tel;
    const std::span<const LaneSpec> specs = task.lanes;
    const std::size_t task_lanes = specs.size();

    // Shared per-block decode: full 64-bit pc word index (the zoo
    // hashes fold all of it, unlike the 15-bit packed columns), the
    // history register, and the unpacked outcome byte the perceptron
    // kernel consumes directly.
    std::vector<std::uint64_t> widx(kBlockSize), gh(kBlockSize);
    std::vector<std::uint8_t> tk(kBlockSize);
    const auto decode_block = [&](std::size_t base, std::size_t m) {
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t g = base + i;
            widx[i] = wordIndex(t.pc(g));
            gh[i] = t.globalHistory(g);
            tk[i] = static_cast<std::uint8_t>(t.taken(g));
        }
    };

    if (is_tage) {
        const auto ncomp = static_cast<unsigned>(opts.tageHistories.size());
        const unsigned tag_bits = opts.tageTagBits;

        std::vector<TageModel> models;
        models.reserve(task_lanes);
        for (const LaneSpec &spec : specs)
            models.emplace_back(
                tageSweepParams(spec.rowBits, spec.colBits, opts));

        // Component-major key blocks, shared across lanes: tags depend
        // only on (tagBits, histories) -- group-wide -- and entry
        // indices additionally on entryBits, so they are materialised
        // once per (block, entry-width class).
        std::vector<std::uint16_t> tags(ncomp * kBlockSize);
        std::vector<std::uint32_t> idxf(ncomp * kBlockSize);
        std::vector<std::uint32_t> wtagf(kBlockSize);
        std::vector<std::uint32_t> wfold(kBlockSize);

        const auto replay_span = [&](std::size_t lo, std::size_t hi,
                                     bool count) {
            for (std::size_t base = lo; base < hi; base += kBlockSize) {
                const std::size_t m = std::min(kBlockSize, hi - base);
                if (count)
                    ++tel.blocksReplayed;
                decode_block(base, m);
                for (std::size_t i = 0; i < m; ++i)
                    wtagf[i] = tagePcFold(widx[i], tag_bits);
                tageTagBlock(opts.tageHistories, tag_bits, gh.data(),
                             wtagf.data(), 1, m, tags.data(), kBlockSize);
                for (std::size_t first = 0; first < task_lanes;) {
                    const unsigned eb = specs[first].rowBits;
                    std::size_t last = first;
                    while (last < task_lanes && specs[last].rowBits == eb)
                        ++last;
                    if (count)
                        ++tel.modelBatches;
                    for (std::size_t i = 0; i < m; ++i)
                        wfold[i] = tagePcFold(widx[i], eb);
                    tageIndexBlock(opts.tageHistories, eb, gh.data(),
                                   wfold.data(), 1, m, idxf.data(),
                                   kBlockSize);
                    for (std::size_t j = first; j < last; ++j) {
                        TageModel &model = models[j];
                        const std::uint64_t base_mask =
                            mask(specs[j].colBits);
                        std::uint64_t misses = 0;
                        for (std::size_t i = 0; i < m; ++i) {
                            const bool taken = tk[i] != 0;
                            const bool pred =
                                model
                                    .stepWithKeys(
                                        static_cast<std::size_t>(
                                            widx[i] & base_mask),
                                        idxf.data() + i, kBlockSize,
                                        tags.data() + i, kBlockSize,
                                        taken)
                                    .prediction;
                            misses += pred != taken;
                        }
                        if (count)
                            task.misses[j] += misses;
                    }
                    first = last;
                }
            }
        };
        replay_span(task.warmLo, task.segLo, false);
        replay_span(task.segLo, task.segHi, true);
        return;
    }

    const unsigned tables = opts.perceptronTables;
    struct PerceptronLane
    {
        std::vector<std::int8_t> bank;
        std::int32_t theta;
        unsigned entryBits;
    };
    std::vector<PerceptronLane> lanes;
    lanes.reserve(task_lanes);
    for (const LaneSpec &spec : specs) {
        // Validate through the real params (geometry errors surface
        // exactly as on the per-config path).
        perceptronSweepParams(spec.rowBits, spec.colBits, opts).validate();
        PerceptronLane lane;
        lane.entryBits = spec.colBits;
        // The SoA bank: table t's weight e at (t << eb) + e, gather
        // slack past the last weight (simd.hh).
        lane.bank.assign((static_cast<std::size_t>(tables)
                          << lane.entryBits) +
                             PackedPht::kGatherSlack,
                         0);
        lane.theta =
            static_cast<std::int32_t>((193u * spec.rowBits) / 100u + 14u);
        lanes.push_back(std::move(lane));
    }

    // Sub-tile the block for the pre-offset index buffer: 64 branches
    // x tables x kMaxLanes stays L1-resident.
    constexpr std::size_t kTile = 64;
    std::vector<std::uint32_t> idxbuf(kTile * tables *
                                      PerceptronBatch::kMaxLanes);
    const std::size_t stride =
        static_cast<std::size_t>(tables) * PerceptronBatch::kMaxLanes;

    const auto replay_span = [&](std::size_t lo, std::size_t hi,
                                 bool count) {
        for (std::size_t base = lo; base < hi; base += kBlockSize) {
            const std::size_t m = std::min(kBlockSize, hi - base);
            if (count)
                ++tel.blocksReplayed;
            decode_block(base, m);
            for (std::size_t b_lo = 0; b_lo < task_lanes;
                 b_lo += PerceptronBatch::kMaxLanes) {
                PerceptronBatch batch;
                batch.lanes = static_cast<unsigned>(std::min<std::size_t>(
                    PerceptronBatch::kMaxLanes, task_lanes - b_lo));
                batch.tables = tables;
                for (unsigned l = 0; l < batch.lanes; ++l) {
                    PerceptronLane &lane = lanes[b_lo + l];
                    batch.weights[l] = lane.bank.data();
                    batch.theta[l] = lane.theta;
                }
                if (count)
                    ++tel.modelBatches;
                std::uint32_t wfold[kTile];
                for (std::size_t off = 0; off < m; off += kTile) {
                    const std::size_t mt = std::min(kTile, m - off);
                    int cur_eb = -1;
                    for (unsigned l = 0; l < batch.lanes; ++l) {
                        const unsigned eb = lanes[b_lo + l].entryBits;
                        const auto eb_mask =
                            static_cast<std::uint32_t>(mask(eb));
                        if (static_cast<int>(eb) != cur_eb) {
                            cur_eb = static_cast<int>(eb);
                            for (std::size_t i = 0; i < mt; ++i)
                                wfold[i] = static_cast<std::uint32_t>(
                                    xorFold(widx[off + i], eb));
                        }
                        const unsigned h = specs[b_lo + l].rowBits;
                        std::uint32_t *col = idxbuf.data() + l;
                        for (std::size_t i = 0; i < mt; ++i)
                            col[i * stride] =
                                static_cast<std::uint32_t>(widx[off + i]) &
                                eb_mask;
                        const unsigned nseg = tables - 1;
                        for (unsigned tb = 1; tb < tables; ++tb) {
                            const unsigned seg_l = (tb - 1) * h / nseg;
                            const unsigned seg_h = tb * h / nseg;
                            const auto off_t =
                                static_cast<std::uint32_t>(tb) << eb;
                            std::uint32_t *out =
                                idxbuf.data() +
                                tb * PerceptronBatch::kMaxLanes + l;
                            for (std::size_t i = 0; i < mt; ++i) {
                                const std::uint64_t seg = bitsAt(
                                    gh[off + i], seg_l, seg_h - seg_l);
                                out[i * stride] =
                                    ((static_cast<std::uint32_t>(
                                          xorFold(seg, eb)) ^
                                      wfold[i]) &
                                     eb_mask) +
                                    off_t;
                            }
                        }
                    }
                    replayPerceptronBatch(target, idxbuf.data(),
                                          tk.data() + off, mt, batch);
                }
                if (count)
                    for (unsigned l = 0; l < batch.lanes; ++l)
                        task.misses[b_lo + l] += batch.misses[l];
            }
        }
    };
    replay_span(task.warmLo, task.segLo, false);
    replay_span(task.segLo, task.segHi, true);
}

/** The multi-table zoo schemes replay as model lanes. */
bool
isModelScheme(SchemeKind kind)
{
    return kind == SchemeKind::Tage || kind == SchemeKind::Perceptron;
}

/** One group's shape and per-run state inside the sweep grid. */
struct GroupRun
{
    /** Member lanes in execution order: sorted into width classes. */
    std::vector<LaneSpec> lanes;
    /** Every lane fits the 15-bit packed record (2-bit groups). */
    bool narrow = true;
    /** 2-bit lanes that also feed an AliasTracker. */
    bool alias = false;
    std::size_t shards = 1;
    std::size_t segs = 1;
    /** Grid index of the group's first task. */
    std::size_t firstTask = 0;
    /** Per-(segment, lane) counted mispredicts, segment-major. */
    std::vector<std::uint64_t> segMisses;
    std::vector<ConfigResult> aliasOut;
};

/**
 * Run @p task's lanes with the row and pattern sources of @p group
 * (first_level.hh); PAs(bht) rows are the group's register width.
 */
void
replayGroupTask(const PreparedTrace &t, const SweepOptions &opts,
                const FirstLevel &in, const FusedGroup &group,
                const GroupRun &run, const LaneTask &task,
                SimdTarget target)
{
    if (isModelScheme(group.kind)) {
        replayModelLanes(t, opts, group.kind == SchemeKind::Tage, task,
                         target);
        return;
    }
    withRowSource(t, opts, in, group.kind, group.streamRowBits,
                  [&](auto row_of, auto pattern_of) {
                      replayFusedLanes(t, task, run.narrow, target, row_of,
                                       pattern_of);
                  });
}

} // namespace

/**
 * The sweep scheduler: every group runs as one flat task grid, groups
 * x lane shards x trace segments, in a single pool batch (DESIGN.md
 * "Segment-parallel replay").
 *
 * Shards partition a group's *lanes*: each task owns a contiguous run
 * of the width-sorted lane list with private tables, so sharding never
 * changes any lane's update sequence and results are bit-identical for
 * any shard count -- the only cost is that each shard repeats the
 * block decode.  A group has min(lanes, threads) shards.  Segments
 * partition the *trace* at block boundaries: segment k > 0 starts from
 * cold state, replays an uncounted warm-up window of segmentWarmup
 * branches before its range, then counts its own range; the per-(lane,
 * segment) counts are summed in segment order.  Segment boundaries
 * depend only on (trace length, resolveSegments(), warmup), so
 * speculative results are deterministic and independent of
 * shard/worker counts; one segment replays [0, n) cold-started exactly
 * like a serial pass.
 * Alias groups always run one segment.
 *
 * The first-level inputs are built serially before the grid and
 * dropped on return; tasks are ordered group-major, so groups drain in
 * plan order.
 */
void
runFusedGroups(const PreparedTrace &t, const SweepOptions &opts,
               const std::vector<FusedGroup> &groups,
               const std::vector<ConfigJob> &jobs, ConfigResult *slots,
               KernelTelemetry *telemetry)
{
    const FirstLevel in(t, opts, [&](SchemeKind kind) {
        return std::any_of(groups.begin(), groups.end(),
                           [kind](const FusedGroup &g) {
                               return g.kind == kind;
                           });
    });
    const unsigned segments = resolveSegments(opts);
    const SimdTarget target = resolveSimdTarget(opts.simd);
    const unsigned threads = ThreadPool::resolveThreads(opts.threads);
    const std::size_t n = t.size();
    const std::size_t nblocks = (n + kBlockSize - 1) / kBlockSize;
    const std::size_t warmup = opts.segmentWarmup;

    // Plan the grid.  Segments split at block boundaries (so counted
    // tiles stay 64-aligned) and never exceed the block count; shards
    // never exceed the lane count.  Balanced integer splits keep both
    // partitions deterministic.
    std::vector<GroupRun> runs(groups.size());
    std::size_t tasks = 0;
    std::size_t max_segs = 1;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const FusedGroup &group = groups[g];
        GroupRun &run = runs[g];
        bpsim_assert(!group.jobs.empty(), "empty fused group");
        const bool zoo = isModelScheme(group.kind);
        for (std::size_t member : group.jobs) {
            const ConfigJob &job = jobs[member];
            bpsim_assert(job.kind == group.kind, "groups never mix schemes");
            run.lanes.push_back(LaneSpec{member, job.rowBits, job.colBits});
            if (job.rowBits > 15 || job.colBits > 15)
                run.narrow = false;
        }
        // Keep width classes contiguous so each shard materialises as
        // few per-width record streams or index folds as possible:
        // column width for 2-bit and perceptron lanes, entry (row)
        // width for TAGE.  Stable: plan order is preserved within a
        // class, and the sort affects execution placement only --
        // every lane's result lands in slots[member].
        const bool by_rows = group.kind == SchemeKind::Tage;
        std::stable_sort(run.lanes.begin(), run.lanes.end(),
                         [by_rows](const LaneSpec &a, const LaneSpec &b) {
                             return (by_rows ? a.rowBits : a.colBits) <
                                    (by_rows ? b.rowBits : b.colBits);
                         });
        run.alias = opts.trackAliasing && !zoo;
        run.shards = std::min<std::size_t>(threads, run.lanes.size());
        run.segs = run.alias ? 1
                             : std::min<std::size_t>(
                                   segments, std::max<std::size_t>(nblocks, 1));
        run.firstTask = tasks;
        run.segMisses.assign(run.segs * run.lanes.size(), 0);
        run.aliasOut.resize(run.alias ? run.lanes.size() : 0);
        tasks += run.shards * run.segs;
        max_segs = std::max(max_segs, run.segs);
    }
    std::vector<KernelTelemetry> task_tel(tasks);

    const auto run_task = [&](std::size_t task_idx) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto it = std::prev(std::upper_bound(
            runs.begin(), runs.end(), task_idx,
            [](std::size_t i, const GroupRun &r) { return i < r.firstTask; }));
        GroupRun &run = *it;
        const FusedGroup &group = groups[it - runs.begin()];
        const std::size_t local = task_idx - run.firstTask;
        const std::size_t s = local / run.segs;
        const std::size_t k = local % run.segs;
        const std::size_t lane_count = run.lanes.size();
        const std::size_t lane_lo = s * lane_count / run.shards;
        const std::size_t lane_hi = (s + 1) * lane_count / run.shards;
        const auto seg_begin = [&](std::size_t i) {
            return std::min(n, i * nblocks / run.segs * kBlockSize);
        };
        const std::size_t seg_lo = seg_begin(k);
        // Segment 0 starts at the true trace start and needs no
        // warm-up; later segments converge their cold state on the
        // window just before their range (uncounted).
        const std::size_t warm_lo = seg_lo > warmup ? seg_lo - warmup : 0;
        KernelTelemetry &tel = task_tel[task_idx];
        tel.warmupBranches += seg_lo - warm_lo;

        const LaneTask task{
            std::span<const LaneSpec>(run.lanes).subspan(lane_lo,
                                                         lane_hi - lane_lo),
            warm_lo,
            seg_lo,
            seg_begin(k + 1),
            run.segMisses.data() + k * lane_count + lane_lo,
            run.alias ? run.aliasOut.data() + lane_lo : nullptr,
            tel};
        replayGroupTask(t, opts, in, group, run, task, target);
        tel.busySeconds += std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    };

    // Executors: `threads` sizes the shard dimension, and a
    // speculative request implies its segments want to run
    // concurrently, so the grid may use whichever is larger -- purely
    // an execution choice, results never depend on it.
    const auto workers = static_cast<unsigned>(std::min<std::size_t>(
        tasks, std::max<std::size_t>(threads, max_segs > 1 ? max_segs : 1)));
    const auto span0 = std::chrono::steady_clock::now();
    if (workers <= 1) {
        for (std::size_t task_idx = 0; task_idx < tasks; ++task_idx)
            run_task(task_idx);
    } else {
        ThreadPool::shared().parallelFor(tasks, workers, run_task);
    }
    const double span = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - span0)
                            .count();

    // Reconcile: sum each lane's per-segment counts in segment order.
    // For one segment this is exactly the serial total; for more it is
    // the speculative estimate whose delta against exact mode the
    // bench and differential tests report.
    KernelTelemetry counters;
    for (std::size_t g = 0; g < runs.size(); ++g) {
        const GroupRun &run = runs[g];
        const std::size_t lane_count = run.lanes.size();
        for (std::size_t j = 0; j < lane_count; ++j) {
            std::uint64_t total = 0;
            for (std::size_t k = 0; k < run.segs; ++k)
                total += run.segMisses[k * lane_count + j];
            ConfigResult &out = slots[run.lanes[j].member];
            out = run.alias ? run.aliasOut[j] : ConfigResult{};
            out.mispRate =
                n ? static_cast<double>(total) / static_cast<double>(n)
                  : 0.0;
            if (groups[g].kind == SchemeKind::PAsFinite)
                out.bhtMissRate = in.bht.missRate;
        }
        if (isModelScheme(groups[g].kind)) {
            ++counters.modelGroups;
            counters.modelLanes += lane_count;
        } else {
            ++counters.fusedGroups;
            counters.lanes += lane_count;
            counters.wideLanes += run.narrow || run.alias ? 0 : lane_count;
            counters.aliasLanes += run.alias ? lane_count : 0;
        }
        counters.segments += run.segs;
        counters.laneShards += run.shards;
        counters.shardTasks += run.shards * run.segs;
    }
    for (const KernelTelemetry &tel : task_tel)
        counters.merge(tel);
    counters.target = target;
    counters.shardWorkers = workers;
    counters.spanSeconds = span;
    if (telemetry)
        telemetry->merge(counters);
}

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
planFusedGroups(const std::vector<ConfigJob> &jobs)
{
    // One group per shared first-level stream, in first-appearance
    // order.  Only PAsFinite streams depend on the row width (the
    // 0xC3FF reset prefix differs); every other scheme shares one
    // group per kind.  Zoo jobs group into model groups by kind the
    // same way: one sweep's members share tagBits/histories/tables by
    // construction, so any subset batches together.
    std::vector<FusedGroup> groups;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const ConfigJob &job = jobs[i];
        const unsigned key =
            job.kind == SchemeKind::PAsFinite ? job.rowBits : 0;
        auto it = std::find_if(groups.begin(), groups.end(),
                               [&](const FusedGroup &g) {
                                   return g.kind == job.kind &&
                                          g.streamRowBits == key;
                               });
        if (it == groups.end())
            it = groups.insert(groups.end(), FusedGroup{job.kind, key, {}});
        it->jobs.push_back(i);
    }
    return groups;
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

    // Plan: enumerate the space and group it by first-level stream.
    const std::vector<ConfigJob> jobs = planSweep(kind, opts);
    const std::vector<FusedGroup> groups = planFusedGroups(jobs);

    // Execute: one task grid; every task writes only its own lanes'
    // slots, so placement stays deterministic.
    std::vector<ConfigResult> slots(jobs.size());
    runFusedGroups(trace, opts, groups, jobs, slots.data(), &result.kernel);

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
    if (kind == SchemeKind::PAsFinite && !slots.empty())
        result.bhtMissRate = slots.front().bhtMissRate;
    return result;
}

ConfigResult
simulateConfig(const PreparedTrace &trace, SchemeKind kind,
               unsigned row_bits, unsigned col_bits,
               const SweepOptions &opts)
{
    bpsim_assert(kind != SchemeKind::AddressIndexed || row_bits == 0,
                 "address-indexed tables have no rows");
    // A one-job plan (a fused lane, or a model lane for the zoo): one
    // lane is one shard, and it replays exactly -- `segments` does not
    // apply to a single point.
    const std::vector<ConfigJob> jobs{
        ConfigJob{kind, row_bits + col_bits, row_bits, col_bits}};
    SweepOptions exact = opts;
    exact.segments = 1;
    ConfigResult out;
    runFusedGroups(trace, exact, planFusedGroups(jobs), jobs, &out);
    return out;
}

} // namespace bpsim
