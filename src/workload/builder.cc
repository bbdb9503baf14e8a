#include "workload/builder.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"

namespace bpsim {

void
WorkloadParams::validate() const
{
    if (staticBranches == 0)
        bpsim_fatal(name, ": staticBranches must be positive");
    if (functionCount == 0)
        bpsim_fatal(name, ": functionCount must be positive");
    if (meanBlockLen < 0.0)
        bpsim_fatal(name, ": meanBlockLen must be non-negative");
    double mix = fracPattern + fracCorrelated + fracShadow + fracMarkov +
        fracLowBias;
    if (mix > 1.0 + 1e-9)
        bpsim_fatal(name, ": behaviour-mix fractions exceed 1");
    for (double p : {callDensity, uniformPickFraction, kernelFraction,
                     loopFraction, topTestFraction, noise,
                     fixedTripFraction, tripJitterProb,
                     tightLoopFraction}) {
        if (p < 0.0 || p > 1.0)
            bpsim_fatal(name, ": probability parameter out of [0,1]");
    }
    if (meanTripsHot < 1.0 || meanTripsCold < 1.0)
        bpsim_fatal(name, ": loop trip means must be >= 1");
    if (loopDepthDecay < 1.0)
        bpsim_fatal(name, ": loopDepthDecay must be >= 1");
    if (fixedTripMin < 1 || fixedTripMin > fixedTripMax)
        bpsim_fatal(name, ": fixed trip range invalid");
    if (highBiasMin > highBiasMax || lowBiasMin > lowBiasMax)
        bpsim_fatal(name, ": bias ranges reversed");
    if (zipfExponent < 0.0)
        bpsim_fatal(name, ": zipfExponent must be non-negative");
    if (driverBurstMean < 1.0)
        bpsim_fatal(name, ": driverBurstMean must be >= 1");
    if (targetConditionals == 0)
        bpsim_fatal(name, ": targetConditionals must be positive");
}

ProgramBuilder::ProgramBuilder(const WorkloadParams &params_)
    : params(params_), rng(params_.seed, 0x9e3779b97f4a7c15ULL)
{
    params.validate();
}

SyntheticProgram
ProgramBuilder::build()
{
    std::size_t nfuncs = params.functionCount;

    // Hotness ranks: a random permutation decouples a function's position
    // in the image (and thus its callees) from how hot it is.
    hotRank.resize(nfuncs);
    std::iota(hotRank.begin(), hotRank.end(), std::size_t{0});
    for (std::size_t i = nfuncs; i > 1; --i) {
        std::size_t j = rng.nextBounded(static_cast<std::uint32_t>(i));
        std::swap(hotRank[i - 1], hotRank[j]);
    }

    prog.functions.resize(nfuncs);
    for (std::uint32_t fid = 0; fid < nfuncs; ++fid) {
        Function &fn = prog.functions[fid];
        // Two appends: "f" + to_string trips GCC 12 -Wrestrict.
        fn.name.assign(1, 'f');
        fn.name += std::to_string(fid);
        fn.kernel = rng.bernoulli(params.kernelFraction);
        fn.hotness = 1.0 /
            std::pow(static_cast<double>(hotRank[fid] + 1),
                     params.zipfExponent);
        buildFunction(fid);
    }

    prog.verify();
    return std::move(prog);
}

void
ProgramBuilder::buildFunction(std::uint32_t fid)
{
    Function &fn = prog.functions[fid];
    fn.entry = static_cast<std::uint32_t>(prog.code.size());

    // Share the site budget across functions so the total lands on
    // staticBranches: hand each function its proportional slice, with
    // jitter for size variety and a minimum of one site.
    std::size_t nfuncs = params.functionCount;
    double per_func = static_cast<double>(params.staticBranches) /
        static_cast<double>(nfuncs);
    std::size_t already =
        prog.sites.size(); // sites built by earlier functions
    std::size_t fair_share = static_cast<std::size_t>(
        per_func * static_cast<double>(fid + 1));
    std::size_t budget =
        fair_share > already ? fair_share - already : 0;
    // Jitter: +/- 50% of a slice, bounded below by one site.
    if (budget > 1 && per_func >= 2.0) {
        double jitter = rng.nextDouble() * per_func - per_func / 2.0;
        double jittered = static_cast<double>(budget) + jitter;
        budget = jittered < 1.0 ? 1
                                : static_cast<std::size_t>(jittered);
    }
    budget = std::max<std::size_t>(1, budget);

    emitBlock();
    emitBody(fid, budget, 0);
    emitBlock();
    prog.code.push_back(Insn{Op::Ret, 0, 0});
    fn.end = static_cast<std::uint32_t>(prog.code.size());
}

std::size_t
ProgramBuilder::emitBody(std::uint32_t fid, std::size_t site_budget,
                         unsigned depth)
{
    std::size_t consumed = 0;
    while (consumed < site_budget) {
        std::size_t remaining = site_budget - consumed;

        // Calls sitting inside nested loops execute their whole callee
        // once per iteration product; thin them out with depth so the
        // expected work per top-level invocation stays bounded.
        if (rng.bernoulli(params.callDensity /
                          std::pow(4.0, static_cast<double>(depth))))
            emitCall(fid);

        // Pick the next construct.  Nesting requires spare budget and
        // headroom in depth.
        bool can_nest = depth < params.maxNestDepth && remaining >= 2;
        std::size_t nested = 0;
        if (can_nest) {
            // Nested bodies take a healthy slice of the remaining
            // budget (2-4 sites when available) so loop bodies can hold
            // real content like shadow groups.
            nested = 2 + rng.nextBounded(3);
            nested = std::min(nested, remaining - 1);
        }

        if (remaining >= 2 && depth <= params.shadowMaxDepth &&
            rng.bernoulli(params.fracShadow)) {
            // Shadow groups first: inside loop bodies (depth >= 1) this
            // is the content that gives correlation its dynamic weight.
            consumed += emitShadowGroup(fid, remaining);
        } else if (rng.bernoulli(params.loopFraction)) {
            // Tight loops keep their body branch-free; the unused
            // nested budget stays available for later constructs.
            if (rng.bernoulli(params.tightLoopFraction))
                nested = 0;
            emitLoop(fid, nested, depth);
            consumed += 1 + nested;
        } else {
            bool with_else = rng.bernoulli(0.4);
            emitIf(fid, nested, depth, with_else);
            consumed += 1 + nested;
        }
        emitBlock();
    }
    return consumed;
}

void
ProgramBuilder::emitBlock()
{
    if (params.meanBlockLen <= 0.0)
        return;
    auto len = static_cast<std::size_t>(
        rng.geometric(params.meanBlockLen));
    for (std::size_t i = 0; i < len; ++i)
        prog.code.push_back(Insn{Op::Plain, 0, 0});
}

std::uint32_t
ProgramBuilder::emitCond(std::uint32_t fid,
                         std::unique_ptr<Predicate> pred,
                         bool invert_predicate)
{
    auto slot = static_cast<std::uint32_t>(prog.code.size());
    auto site_id = static_cast<std::uint32_t>(prog.sites.size());
    prog.code.push_back(Insn{Op::Cond, 0, site_id});
    BranchSite site;
    site.slot = slot;
    site.function = fid;
    site.predicate = std::move(pred);
    site.invertPredicate = invert_predicate;
    prog.sites.push_back(std::move(site));
    return slot;
}

void
ProgramBuilder::emitIf(std::uint32_t fid, std::size_t body_sites,
                       unsigned depth, bool with_else)
{
    // Lowering: Cond jumps PAST the then-body when taken (a compiler's
    // "branch if condition false"), so the predicate's taken-probability
    // is the probability of skipping the body.
    std::uint32_t cond_slot =
        emitCond(fid, makeLeafPredicate(depth), false);
    emitBlock();
    if (body_sites > 0)
        emitBody(fid, body_sites, depth + 1);
    if (with_else) {
        auto jump_slot = static_cast<std::uint32_t>(prog.code.size());
        prog.code.push_back(Insn{Op::Jump, 0, 0});
        prog.code[cond_slot].target =
            static_cast<std::uint32_t>(prog.code.size());
        emitBlock();
        prog.code[jump_slot].target =
            static_cast<std::uint32_t>(prog.code.size());
    } else {
        prog.code[cond_slot].target =
            static_cast<std::uint32_t>(prog.code.size());
    }
}

std::size_t
ProgramBuilder::emitShadowGroup(std::uint32_t fid,
                                std::size_t site_budget)
{
    // "if (x < 0) A; ...; if (x >= 0) B; ...; if (x < t) C;" -- the
    // followers replay (or negate) the source's outcome a few branches
    // later.  This is the workload class on which global history shines
    // and self history is blind: the source varies unpredictably, and a
    // follower's own past says nothing about the source's latest draw.
    bpsim_assert(site_budget >= 2, "shadow group needs >= 2 sites");
    double p = params.lowBiasMin +
        rng.nextDouble() * (params.lowBiasMax - params.lowBiasMin);
    std::uint32_t source =
        emitCond(fid, std::make_unique<BiasedPredicate>(p), false);
    prog.code[source].target =
        static_cast<std::uint32_t>(prog.code.size() + 1);
    // Give the skipped arm at least one slot so the branch is real.
    prog.code.push_back(Insn{Op::Plain, 0, 0});
    std::size_t source_site = prog.sites.size() - 1;

    std::size_t followers = std::min<std::size_t>(
        site_budget - 1, 1 + rng.nextBounded(3));
    for (std::size_t i = 0; i < followers; ++i) {
        emitBlock();
        bool invert = rng.bernoulli(0.5);
        std::uint32_t f = emitCond(
            fid,
            std::make_unique<ShadowPredicate>(source_site, invert,
                                              params.noise),
            false);
        prog.code[f].target =
            static_cast<std::uint32_t>(prog.code.size() + 1);
        prog.code.push_back(Insn{Op::Plain, 0, 0});
    }
    return 1 + followers;
}

void
ProgramBuilder::emitLoop(std::uint32_t fid, std::size_t body_sites,
                         unsigned depth)
{
    std::unique_ptr<LoopTripPredicate> pred;
    if (rng.bernoulli(params.fixedTripFraction)) {
        auto trips = static_cast<std::uint64_t>(rng.uniformInt(
            params.fixedTripMin, params.fixedTripMax));
        pred = LoopTripPredicate::fixed(trips);
    } else {
        // A stable home trip count drawn per loop at build time; entries
        // occasionally redraw (data-dependent bound changes).  The
        // offset-geometric draw spreads homes over a wide range instead
        // of piling them on the floor value.
        double mean = meanTripsFor(fid, depth);
        std::uint64_t floor_trips = params.minHomeTrips;
        double spread_mean =
            std::max(1.0, mean - static_cast<double>(floor_trips));
        std::uint64_t home =
            floor_trips - 1 + rng.geometric(spread_mean + 1.0);
        pred = LoopTripPredicate::jittered(home, params.tripJitterProb);
    }

    if (rng.bernoulli(params.topTestFraction)) {
        // Top-test: head Cond is TAKEN to EXIT; predicate says continue.
        std::uint32_t head = emitCond(fid, std::move(pred), true);
        emitBlock();
        if (body_sites > 0)
            emitBody(fid, body_sites, depth + 1);
        prog.code.push_back(
            Insn{Op::Jump, head, 0});
        prog.code[head].target =
            static_cast<std::uint32_t>(prog.code.size());
    } else {
        // Bottom-test: body first, backedge Cond TAKEN to CONTINUE.
        auto body_start = static_cast<std::uint32_t>(prog.code.size());
        emitBlock();
        if (body_sites > 0)
            emitBody(fid, body_sites, depth + 1);
        std::uint32_t backedge = emitCond(fid, std::move(pred), false);
        prog.code[backedge].target = body_start;
    }
}

void
ProgramBuilder::emitCall(std::uint32_t fid)
{
    if (fid == 0)
        return;
    // Prefer low-index callees: squaring the uniform draw concentrates
    // calls on early "utility" functions, the shared-library effect.
    double u = rng.nextDouble();
    auto callee = static_cast<std::uint32_t>(u * u * fid);
    prog.code.push_back(Insn{Op::Call, callee, 0});
}

std::unique_ptr<Predicate>
ProgramBuilder::makeLeafPredicate(unsigned depth)
{
    double u = rng.nextDouble();
    // Deep inside loops, routine biased checks dominate.
    double scale = std::pow(params.hardContentDepthScale,
                            static_cast<double>(depth));

    double corr_scale = std::pow(params.correlatedDepthScale,
                                 static_cast<double>(depth));

    double acc = params.fracPattern * scale;
    if (u < acc) {
        unsigned len = 2 + rng.nextBounded(5); // 2..6
        std::uint64_t pattern = rng.next() | 1; // avoid all-zeros
        return std::make_unique<PatternPredicate>(bits(pattern, len), len,
                                                  params.noise);
    }
    acc += params.fracCorrelated * corr_scale;
    if (u < acc) {
        // 1..2 taps within the 5 most recent global outcomes, so a
        // short global history suffices and training converges fast.
        unsigned taps = 1 + rng.nextBounded(2);
        std::uint64_t tap_mask = 0;
        for (unsigned t = 0; t < taps; ++t)
            tap_mask |= std::uint64_t{1} << rng.nextBounded(5);
        return std::make_unique<CorrelatedPredicate>(
            tap_mask, rng.bernoulli(0.5), params.noise);
    }
    acc += params.fracMarkov * scale;
    if (u < acc) {
        double stay = 0.88 + rng.nextDouble() * 0.11;
        return std::make_unique<MarkovPredicate>(stay,
                                                 rng.bernoulli(0.5));
    }
    acc += params.fracLowBias * scale;
    if (u < acc) {
        double p = params.lowBiasMin +
            rng.nextDouble() * (params.lowBiasMax - params.lowBiasMin);
        if (rng.bernoulli(0.5))
            p = 1.0 - p;
        return std::make_unique<BiasedPredicate>(p);
    }
    // Remainder (incl. the fracShadow slice when it falls through to a
    // leaf context): highly biased, taken- or not-taken-leaning.  The
    // miss probability (1 - p) is drawn LOG-uniformly between the ends
    // of the configured range: most routine checks almost never fire
    // (the paper's "almost always or almost never taken" population),
    // with a thinner layer of merely-strongly-biased branches.
    double miss_hi = 1.0 - params.highBiasMin;
    double miss_lo = 1.0 - params.highBiasMax;
    double u2 = rng.nextDouble();
    double p = 1.0 -
        miss_lo * std::pow(miss_hi / std::max(miss_lo, 1e-6), u2);
    if (rng.bernoulli(0.5))
        p = 1.0 - p;
    return std::make_unique<BiasedPredicate>(p);
}

double
ProgramBuilder::meanTripsFor(std::uint32_t fid, unsigned depth) const
{
    // Hot functions get long loops: interpolate from meanTripsHot at
    // rank 0 down to meanTripsCold, decaying with the same shape as the
    // hotness weights themselves.
    double frac = static_cast<double>(hotRank[fid]) /
        static_cast<double>(std::max<std::size_t>(
            1, params.functionCount - 1));
    double hot_decay = std::pow(1.0 - frac, 3.0);
    double mean = params.meanTripsCold +
        (params.meanTripsHot - params.meanTripsCold) * hot_decay;
    // Inner loops are short: shrink the mean per nesting level so the
    // multiplicative iteration blow-up of nested loops stays bounded.
    double nest_scale = std::pow(params.loopDepthDecay,
                                 static_cast<double>(depth));
    return 1.0 + (mean - 1.0) / nest_scale;
}

} // namespace bpsim
