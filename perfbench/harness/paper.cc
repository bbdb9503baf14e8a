#include "harness/paper.hh"

#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "common/random.hh"
#include "harness/checks.hh"
#include "harness/host.hh"
#include "harness/json_out.hh"
#include "harness/spans.hh"
#include "harness/tally.hh"
#include "sim/experiment.hh"
#include "sim/interference.hh"
#include "sim/sweep_session.hh"
#include "stats/table_formatter.hh"
#include "trace/trace_stats.hh"
#include "verify/golden.hh"
#include "workload/profiles.hh"
#include "workload/trace_key.hh"

namespace perfbench {

using namespace bpsim;
using service::JsonValue;

namespace {

struct Outcome
{
    std::optional<SweepResult> sweep;
    std::optional<InterferenceResult> interference;
    std::optional<TraceCharacterization> characterization;

    bool
    done() const
    {
        return sweep || interference || characterization;
    }
};

/** Renders of a pass's outputs that its light-op time averages. */
constexpr std::size_t kRenderSamples = 20;

/** One bench's requests and their outcomes, in request order. */
struct BenchOutput
{
    std::string bench;
    std::vector<const PaperRequest *> reqs;
    std::vector<const Outcome *> outs;
};

/**
 * Render one bench's output as the bench binary does, recording the
 * values the bench records in golden mode when @p gold is non-null.
 */
void
renderBench(const std::string &bench,
            const std::vector<const PaperRequest *> &reqs,
            const std::vector<const Outcome *> &outs,
            verify::GoldenRecorder *gold, std::string &sink)
{
    for (const Outcome *o : outs)
        if (!o->done())
            return; // the failed request is already counted
    auto g = [&](const std::string &key, double value) {
        if (gold)
            gold->record(key, value);
    };
    auto gs = [&](const std::string &prefix, const Surface &surface) {
        if (gold)
            gold->recordSurface(prefix, surface);
    };
    const std::size_t n = reqs.size();

    if (bench == "table1_characterization") {
        TableFormatter table({"benchmark", "dyn. instrs (scaled)",
                              "cond. branches (% of instrs)",
                              "static cond. (paper)",
                              "covering 90% (paper)"});
        for (std::size_t k = 0; k < n; ++k) {
            const std::string &name = reqs[k]->profile;
            const TraceCharacterization &ch = *outs[k]->characterization;
            const PaperBenchmarkData &paper = paperData(name);
            char density[64], statics[64], covering[64];
            std::snprintf(density, sizeof(density), "%s (%.1f%%)",
                          TableFormatter::integer(
                              ch.dynamicConditionals()).c_str(),
                          ch.conditionalDensity() * 100.0);
            std::snprintf(statics, sizeof(statics), "%zu (%zu)",
                          ch.staticConditionals(),
                          paper.staticConditionals);
            std::snprintf(covering, sizeof(covering), "%zu (%zu)",
                          ch.staticCovering(0.90), paper.staticCovering90);
            table.addRow({name,
                          TableFormatter::integer(ch.dynamicInstructions()),
                          density, statics, covering});
            g("table1/" + name + "/dyn_instrs",
              static_cast<double>(ch.dynamicInstructions()));
            g("table1/" + name + "/cond_density", ch.conditionalDensity());
            g("table1/" + name + "/static_cond",
              static_cast<double>(ch.staticConditionals()));
            g("table1/" + name + "/covering90",
              static_cast<double>(ch.staticCovering(0.90)));
        }
        sink += table.render();
    } else if (bench == "table2_frequency") {
        TableFormatter table({"benchmark", "first 50%", "next 40%",
                              "next 9%", "remaining 1%"});
        for (std::size_t k = 0; k < n; ++k) {
            const std::string &name = reqs[k]->profile;
            const TraceCharacterization &ch = *outs[k]->characterization;
            const std::vector<std::size_t> quart = ch.frequencyQuartiles();
            const double statics =
                static_cast<double>(ch.staticConditionals());
            std::vector<std::string> row = {name};
            for (std::size_t q = 0; q < 4; ++q) {
                char cell[96];
                std::snprintf(cell, sizeof(cell), "%zu / %.1f%%", quart[q],
                              statics > 0 ? 100.0 *
                                                static_cast<double>(quart[q]) /
                                                statics
                                          : 0.0);
                row.push_back(cell);
                g("table2/" + name + "/q" + std::to_string(q),
                  static_cast<double>(quart[q]));
            }
            table.addRow(row);
        }
        sink += table.render();
    } else if (bench == "fig2_address_indexed" || bench == "fig3_gag") {
        const bool fig2 = bench == "fig2_address_indexed";
        const SweepOptions &o = reqs[0]->options;
        std::vector<std::string> headers = {"benchmark"};
        for (unsigned t = o.minTotalBits; t <= o.maxTotalBits; ++t)
            headers.push_back(std::to_string(1u << t));
        TableFormatter table(headers);
        for (std::size_t k = 0; k < n; ++k) {
            const std::string &name = reqs[k]->profile;
            std::vector<std::string> row = {name};
            for (unsigned t = o.minTotalBits; t <= o.maxTotalBits; ++t) {
                auto v = outs[k]->sweep->misprediction.at(t, fig2 ? 0 : t);
                row.push_back(v ? TableFormatter::percent(*v) : "-");
                if (v)
                    g((fig2 ? "fig2/" : "fig3/") + name + "/t" +
                          std::to_string(t),
                      *v);
            }
            table.addRow(row);
        }
        sink += table.render();
    } else if (bench == "fig4_gas_surface" || bench == "fig6_gshare_surface" ||
               bench == "fig9_pas_perfect") {
        const std::string fig = bench.substr(0, 4);
        for (std::size_t k = 0; k < n; ++k) {
            sink += outs[k]->sweep->misprediction.render(true);
            gs(fig + "/" + reqs[k]->profile, outs[k]->sweep->misprediction);
        }
    } else if (bench == "fig5_gas_aliasing") {
        for (std::size_t k = 0; k < n; ++k) {
            const SweepResult &r = *outs[k]->sweep;
            sink += r.aliasing.render(true);
            gs("fig5/" + reqs[k]->profile + "/alias", r.aliasing);
            gs("fig5/" + reqs[k]->profile + "/harmless", r.harmless);
        }
    } else if (bench == "fig7_gshare_vs_gas" || bench == "fig8_path_vs_gas") {
        const bool fig7 = bench == "fig7_gshare_vs_gas";
        Surface diff = outs[0]->sweep->misprediction.difference(
            outs[1]->sweep->misprediction,
            fig7 ? "GAs minus gshare: mpeg_play"
                 : "GAs minus path: mpeg_play");
        sink += diff.render(true, true);
        gs(fig7 ? "fig7/mpeg_play/diff" : "fig8/mpeg_play/diff", diff);
    } else if (bench == "fig10_pas_finite") {
        for (std::size_t k = 1; k < n; ++k) {
            const SweepResult &r = *outs[k]->sweep;
            sink += r.misprediction.render(true);
            const std::string prefix =
                "fig10/mpeg_play/bht" +
                std::to_string(reqs[k]->options.bhtEntries);
            gs(prefix, r.misprediction);
            g(prefix + "/miss_rate", r.bhtMissRate);
        }
    } else if (bench == "table3_best_configs") {
        const std::vector<unsigned> budgets = {9, 12, 15};
        for (std::size_t k = 0; k < n;) {
            const std::string &name = reqs[k]->profile;
            TableFormatter table({"predictor", "1st-level miss",
                                  "512 counters", "4096 counters",
                                  "32768 counters"});
            for (; k < n && reqs[k]->profile == name; ++k) {
                const Table3SchemeSpec spec{reqs[k]->label, reqs[k]->kind,
                                            reqs[k]->options};
                const BestConfigRow row =
                    bestConfigRowFromSweep(spec, *outs[k]->sweep, budgets);
                std::vector<std::string> cells = {row.scheme};
                cells.push_back(row.bhtMissRate < 0
                                    ? "-"
                                    : TableFormatter::percent(row.bhtMissRate));
                const std::string prefix = "table3/" + name + "/" + row.scheme;
                if (row.bhtMissRate >= 0)
                    g(prefix + "/bht_miss", row.bhtMissRate);
                for (std::size_t b = 0; b < budgets.size(); ++b) {
                    if (!row.best[b]) {
                        cells.push_back("-");
                        continue;
                    }
                    const BestConfig &best = *row.best[b];
                    cells.push_back(
                        TableFormatter::configLabel(best.rowBits,
                                                    best.colBits) +
                        " (" + TableFormatter::percent(best.mispRate) + ")");
                    const std::string at =
                        prefix + "/b" + std::to_string(budgets[b]);
                    g(at + "/misp", best.mispRate);
                    g(at + "/row_bits", static_cast<double>(best.rowBits));
                    g(at + "/col_bits", static_cast<double>(best.colBits));
                }
                table.addRow(cells);
            }
            sink += table.render();
        }
    } else if (bench == "fig_tage_aliasing") {
        for (std::size_t k = 0; k < n;) {
            const std::string &name = reqs[k]->profile;
            TableFormatter table({"budget", "scheme", "shared misp",
                                  "aliasing", "cold", "capacity"});
            for (; k < n && reqs[k]->profile == name; ++k) {
                const InterferenceResult &r = *outs[k]->interference;
                const std::string scheme =
                    reqs[k]->kind == SchemeKind::Tage ? "tage" : "gshare";
                table.addRow({reqs[k]->label, scheme,
                              TableFormatter::percent(r.sharedMispRate()),
                              TableFormatter::percent(r.aliasingRate()),
                              TableFormatter::percent(r.coldRate()),
                              TableFormatter::percent(r.capacityRate())});
                const std::string prefix = "fig_tage_aliasing/" + name +
                                           "/" + reqs[k]->label + "/" +
                                           scheme;
                g(prefix + "/shared_misp", r.sharedMispRate());
                g(prefix + "/aliasing", r.aliasingRate());
                g(prefix + "/cold", r.coldRate());
                g(prefix + "/capacity", r.capacityRate());
            }
            sink += table.render();
        }
    } else if (bench == "fig_perceptron_surface") {
        for (std::size_t k = 0; k < n; ++k) {
            sink += outs[k]->sweep->misprediction.render(true);
            gs("fig_perceptron/" + reqs[k]->profile + "/misp",
               outs[k]->sweep->misprediction);
        }
    }
}

/** What the pass learned about one request, for after-pass accounting. */
struct RequestRecord
{
    TraceHash trace;
    std::uint64_t configs = 0;
    /** Replay path of a sweep that missed; -1 otherwise. */
    int path = -1;
    double seconds = 0.0;
};

} // namespace

JsonValue
runPaperPass(const PaperPassConfig &cfg)
{
    SweepSession session(cfg.cacheDir);
    const std::vector<PaperRequest> requests = paperRequestSet();
    SpanRecorder spans(cfg.trace);
    Tally tally;
    const std::uint64_t dirBefore = directoryBytes(cfg.cacheDir);

    std::vector<Outcome> outcomes(requests.size());
    std::vector<RequestRecord> records(requests.size());
    std::vector<double> sweepMs, memoryHitUs, diskHitUs;
    std::vector<std::string> requestDigests;
    HashStream digest("perfbench.paper.v1");
    double internS = 0, prepareS = 0, interferenceS = 0,
           characterizeS = 0, renderS = 0;
    std::uint64_t generations = 0, generatedRecords = 0, sweeps = 0;
    KernelTelemetry kernel;
    std::set<TraceHash> preparedTraces;
    std::string rendered;
    std::uint64_t goldenValues = 0;

    const double readyAt = monotonicSeconds();
    ScopedSpan pass(spans, "bench.pass");
    std::size_t i = 0;
    std::vector<BenchOutput> benchOutputs;
    benchOutputs.reserve(paperBenches().size());
    for (const std::string &bench : paperBenches()) {
        BenchOutput &b = benchOutputs.emplace_back(BenchOutput{bench, {}, {}});
        std::vector<const PaperRequest *> &reqs = b.reqs;
        std::vector<const Outcome *> &outs = b.outs;
        for (; i < requests.size() && requests[i].bench == bench; ++i) {
            const PaperRequest &r = requests[i];
            const std::uint64_t rid = i + 1;
            reqs.push_back(&r);
            outs.push_back(&outcomes[i]);

            TraceHandle handle;
            {
                const std::uint64_t missesBefore =
                    session.registry().misses();
                ScopedSpan s(spans, "trace.intern", pass.id(), rid);
                handle = internParams(
                    session.registry(),
                    traceParams(r.profile, cfg.branches, cfg.seed));
                internS += s.finish();
                if (session.registry().misses() != missesBefore) {
                    ++generations;
                    generatedRecords += handle.trace->size();
                }
            }
            records[i].trace = handle.hash;

            Outcome &o = outcomes[i];
            if (r.op == OpKind::Sweep) {
                if (cfg.cold && preparedTraces.insert(handle.hash).second) {
                    ScopedSpan s(spans, "sim.prepare", pass.id(), rid);
                    Result<std::shared_ptr<const PreparedTrace>> p =
                        session.prepared(handle.hash);
                    prepareS += s.finish();
                    if (!p.ok()) {
                        tally.error(p.error().message());
                        continue;
                    }
                }
                const ReplayPath path = replayPath(r.kind, r.options);
                ScopedSpan s(spans, "sim.replay", pass.id(), rid);
                Result<SweepResponse> resp = session.sweep(
                    SweepRequest{handle.hash, r.kind, r.options});
                if (resp.ok()) {
                    s.rename(resp.value().diskHit    ? "cache.disk_hit"
                             : resp.value().cacheHit ? "cache.memory_hit"
                                                     : std::string("sim.replay.") +
                                                           replayPathName(path));
                }
                const double sec = s.finish();
                sweepMs.push_back(sec * 1e3);
                ++sweeps;
                if (!resp.ok()) {
                    tally.error(resp.error().message());
                    continue;
                }
                const SweepResponse &v = resp.value();
                records[i].configs = sweepConfigs(r.kind, r.options);
                records[i].seconds = sec;
                if (v.diskHit) {
                    diskHitUs.push_back(sec * 1e6);
                } else if (v.cacheHit) {
                    memoryHitUs.push_back(sec * 1e6);
                } else {
                    records[i].path = static_cast<int>(path);
                    kernel.merge(v.result.kernel);
                }
                o.sweep = v.result;
            } else if (r.op == OpKind::Interference) {
                std::shared_ptr<const PreparedTrace> prepared;
                {
                    ScopedSpan s(spans, "sim.prepare", pass.id(), rid);
                    Result<std::shared_ptr<const PreparedTrace>> p =
                        session.prepared(handle.hash);
                    prepareS += s.finish();
                    if (!p.ok()) {
                        tally.error(p.error().message());
                        continue;
                    }
                    prepared = p.value();
                }
                ScopedSpan s(spans, "sim.interference", pass.id(), rid);
                o.interference = analyzeInterference(
                    *prepared, r.kind, r.rowBits, r.colBits, SweepOptions{});
                interferenceS += s.finish();
                records[i].configs = 1;
            } else {
                ScopedSpan s(spans, "trace.characterize", pass.id(), rid);
                TraceView view(handle);
                o.characterization = TraceCharacterization::measure(view);
                characterizeS += s.finish();
            }
            tally.pass();
        }

        verify::GoldenRecorder gold;
        {
            ScopedSpan s(spans, "stats.render", pass.id());
            renderBench(bench, reqs, outs,
                        cfg.goldenDir.empty() ? nullptr : &gold, rendered);
            renderS += s.finish();
        }
        if (!cfg.goldenDir.empty()) {
            const std::string path = cfg.goldenDir + "/" + bench + ".golden";
            std::vector<std::string> problems;
            try {
                problems = gold.compareTo(path, 0.0);
            } catch (const std::exception &e) {
                tally.error(e.what());
                continue;
            }
            goldenValues += gold.size();
            for (const std::string &p : problems)
                tally.mismatch(bench + ": " + p);
            for (std::size_t k = problems.size(); k < gold.size(); ++k)
                tally.pass();
        }
    }
    const double wall = monotonicSeconds() - readyAt;
    pass.finish();

    // The pass's light op: rendering every bench's output, timed as
    // one (per-bench renders differ in size, so their median would
    // flip between benches from pass to pass).  One render's time
    // varies up to twofold with where its inputs happen to lie in
    // memory and with whether another tenant keeps the core's
    // hyperthread sibling busy, so a single sample lands in one mode
    // or the other.  The pass reports the mean of kRenderSamples
    // renders, each on a fresh thread (spread over the cores by the
    // scheduler) and of a fresh copy of the outputs.
    double renderMsSum = 0.0;
    for (std::size_t k = 0; k < kRenderSamples; ++k) {
        std::thread([&] {
            const std::vector<Outcome> copy = outcomes;
            std::vector<BenchOutput> copied = benchOutputs;
            for (BenchOutput &b : copied)
                for (const Outcome *&o : b.outs)
                    o = &copy[static_cast<std::size_t>(o - outcomes.data())];
            std::string sink;
            const double t0 = monotonicSeconds();
            for (const BenchOutput &b : copied)
                renderBench(b.bench, b.reqs, b.outs, nullptr, sink);
            renderMsSum += (monotonicSeconds() - t0) * 1e3;
        }).join();
    }
    const std::vector<double> lightMs{renderMsSum / kRenderSamples};

    // Everything below is outside the timed region.
    for (const Outcome &o : outcomes) {
        HashStream rd("perfbench.request.v1");
        if (o.sweep)
            absorb(rd, *o.sweep);
        if (o.interference)
            absorb(rd, *o.interference);
        if (o.characterization)
            absorb(rd, *o.characterization);
        requestDigests.push_back(o.done() ? rd.digest().hex() : "failed");
        digest.str(requestDigests.back());
    }
    std::map<TraceHash, std::uint64_t> conds;
    std::uint64_t bcus = 0;
    double replayS[kReplayPaths] = {}, replayBcus[kReplayPaths] = {};
    for (const RequestRecord &rec : records) {
        if (rec.configs == 0)
            continue;
        auto it = conds.find(rec.trace);
        if (it == conds.end())
            it = conds.emplace(rec.trace,
                               conditionalBranches(*session.registry()
                                                 .lookup(rec.trace)
                                                 .trace))
                     .first;
        const std::uint64_t b = rec.configs * it->second;
        bcus += b;
        if (rec.path >= 0) {
            replayS[rec.path] += rec.seconds;
            replayBcus[rec.path] += static_cast<double>(b);
        }
    }

    // Seeded sample of sweep points through the reference model.
    std::vector<std::size_t> done;
    for (std::size_t k = 0; k < requests.size(); ++k)
        if (outcomes[k].sweep)
            done.push_back(k);
    Pcg32 rng(cfg.seed, 0x7265666d6f64ULL);
    for (unsigned s = 0; s < kReferenceSamples && !done.empty(); ++s) {
        const std::size_t k =
            done[rng.nextBounded(static_cast<std::uint32_t>(done.size()))];
        const TraceHandle handle = session.registry().lookup(records[k].trace);
        checkAgainstReference(*handle.trace, requests[k].kind,
                              requests[k].options,
                              outcomes[k].sweep->misprediction, rng, tally);
    }

    if (cfg.trace && !cfg.spansPath.empty() &&
        !spans.writeJson(cfg.spansPath))
        tally.error("cannot write " + cfg.spansPath);

    JsonValue::Object out;
    out.emplace("ready_at", JsonValue(readyAt));
    out.emplace("wall_s", JsonValue(wall));
    out.emplace("requests", count(requests.size()));
    out.emplace("sweeps", count(sweeps));
    out.emplace("bcus", count(bcus));
    out.emplace("sweep_ms", numbers(sweepMs));
    out.emplace("light_ms", numbers(lightMs));
    out.emplace("peak_rss_mb", JsonValue(peakRssMb()));
    out.emplace("digest", JsonValue(digest.digest().hex()));
    JsonValue::Array rds;
    for (const std::string &d : requestDigests)
        rds.emplace_back(d);
    out.emplace("request_digests", JsonValue(std::move(rds)));
    out.emplace("rendered_bytes", count(rendered.size()));
    if (!cfg.goldenDir.empty())
        out.emplace("golden_values", count(goldenValues));

    if (cfg.trace) {
        const ResultCache::Stats cs = session.cache().stats();
        JsonValue::Object l;
        l.emplace("trace.intern_s", JsonValue(internS));
        l.emplace("workload.generations", count(generations));
        l.emplace("workload.generated_mbranches",
                  JsonValue(static_cast<double>(generatedRecords) / 1e6));
        l.emplace("sim.prepare_s", JsonValue(prepareS));
        l.emplace("sim.interference_s", JsonValue(interferenceS));
        l.emplace("trace.characterize_s", JsonValue(characterizeS));
        l.emplace("stats.render_s", JsonValue(renderS));
        for (int p = 0; p < kReplayPaths; ++p) {
            const std::string name =
                replayPathName(static_cast<ReplayPath>(p));
            l.emplace("sim.replay_s." + name, JsonValue(replayS[p]));
            l.emplace("sim.bcus." + name, JsonValue(replayBcus[p]));
        }
        l.emplace("sim.fused_groups", count(kernel.fusedGroups));
        l.emplace("sim.lanes_per_group", JsonValue(kernel.lanesPerGroup()));
        l.emplace("sim.fallback_jobs", count(kernel.fallbackJobs));
        l.emplace("sim.model_lanes_per_group",
                  JsonValue(kernel.modelLanesPerGroup()));
        l.emplace("sim.worker_utilization",
                  JsonValue(kernel.workerUtilization()));
        l.emplace("sim.hot_bytes_per_branch",
                  JsonValue(kernel.hotBytesPerBranch()));
        l.emplace("cache.memory_hit_us", numbers(memoryHitUs));
        l.emplace("cache.disk_hit_us", numbers(diskHitUs));
        l.emplace("cache.hits", count(cs.hits()));
        l.emplace("cache.lookups", count(sweeps));
        l.emplace("cache.misses", count(cs.misses));
        l.emplace("cache.disk_hits", count(cs.diskHits));
        l.emplace("cache.store_failures", count(cs.storeFailures));
        l.emplace("cache.corrupt", count(cs.corrupt));
        l.emplace("cache.dir_mb",
                  JsonValue(static_cast<double>(
                                directoryBytes(cfg.cacheDir) - dirBefore) /
                            1e6));
        const std::vector<Span> all = spans.spans();
        JsonValue::Object self;
        for (const auto &[name, sec] : selfSecondsByName(all))
            self.emplace(name, JsonValue(sec));
        l.emplace("self_s", JsonValue(std::move(self)));
        l.emplace("bench.unaccounted_s",
                  JsonValue(selfSeconds(all).at(pass.id())));
        out.emplace("layers", JsonValue(std::move(l)));
    }
    out.emplace("attempted", count(tally.attempted()));
    out.emplace("failed", count(tally.failed()));
    JsonValue::Array problems;
    for (const std::string &p : tally.problems())
        problems.emplace_back(p);
    out.emplace("problems", JsonValue(std::move(problems)));
    return JsonValue(std::move(out));
}

} // namespace perfbench
