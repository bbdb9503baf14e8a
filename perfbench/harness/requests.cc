#include "harness/requests.hh"

#include <algorithm>
#include <sstream>

#include "common/random.hh"
#include "service/json.hh"
#include "sim/experiment.hh"
#include "workload/profiles.hh"
#include "workload/trace_key.hh"

namespace perfbench {

using namespace bpsim;

bpsim::WorkloadParams
traceParams(const std::string &profile, std::uint64_t branches,
            std::uint64_t seed)
{
    WorkloadParams params = profileParams(profile, branches);
    if (seed != kDefaultSeed) {
        // splitmix64 of (profile seed, workload seed): distinct seeds
        // give unrelated traces with the profile's shape.
        std::uint64_t z = params.seed ^ (seed * 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        params.seed = z ^ (z >> 31);
    }
    return params;
}

const std::vector<std::string> &
paperBenches()
{
    static const std::vector<std::string> benches = {
        "table1_characterization", "table2_frequency",
        "fig2_address_indexed",    "fig3_gag",
        "fig4_gas_surface",        "fig5_gas_aliasing",
        "fig6_gshare_surface",     "fig7_gshare_vs_gas",
        "fig8_path_vs_gas",        "fig9_pas_perfect",
        "fig10_pas_finite",        "table3_best_configs",
        "fig_tage_aliasing",       "fig_perceptron_surface",
    };
    return benches;
}

std::vector<PaperRequest>
paperRequestSet()
{
    std::vector<PaperRequest> out;
    SweepOptions paper = paperSweepOptions();
    paper.threads = 0;
    SweepOptions misp = paper;
    misp.trackAliasing = false;

    auto sweep = [&](const std::string &bench, const std::string &profile,
                     SchemeKind kind, const SweepOptions &options,
                     const std::string &label = {}) {
        PaperRequest r;
        r.bench = bench;
        r.profile = profile;
        r.kind = kind;
        r.options = options;
        r.label = label;
        out.push_back(std::move(r));
    };
    auto characterize = [&](const std::string &bench,
                            const std::string &profile) {
        PaperRequest r;
        r.bench = bench;
        r.profile = profile;
        r.op = OpKind::Characterize;
        out.push_back(std::move(r));
    };

    for (const std::string &name : profileNames())
        characterize("table1_characterization", name);
    for (const PaperFrequencyRow &row : paperFrequencyRows())
        characterize("table2_frequency", row.name);
    for (const std::string &name : profileNames())
        sweep("fig2_address_indexed", name, SchemeKind::AddressIndexed,
              misp);
    for (const std::string &name : profileNames())
        sweep("fig3_gag", name, SchemeKind::GAg, misp);
    for (const std::string &name : focusProfileNames())
        sweep("fig4_gas_surface", name, SchemeKind::GAs, misp);
    for (const std::string &name : focusProfileNames())
        sweep("fig5_gas_aliasing", name, SchemeKind::GAs, paper);
    for (const std::string &name : focusProfileNames())
        sweep("fig6_gshare_surface", name, SchemeKind::Gshare, misp);
    sweep("fig7_gshare_vs_gas", "mpeg_play", SchemeKind::GAs, misp);
    sweep("fig7_gshare_vs_gas", "mpeg_play", SchemeKind::Gshare, misp);
    SweepOptions path = misp;
    path.pathBitsPerTarget = 2;
    sweep("fig8_path_vs_gas", "mpeg_play", SchemeKind::GAs, path);
    sweep("fig8_path_vs_gas", "mpeg_play", SchemeKind::Path, path);
    for (const std::string &name : focusProfileNames())
        sweep("fig9_pas_perfect", name, SchemeKind::PAsPerfect, misp);
    sweep("fig10_pas_finite", "mpeg_play", SchemeKind::PAsPerfect, misp);
    for (std::size_t entries : {128u, 1024u, 2048u}) {
        SweepOptions finite = misp;
        finite.bhtEntries = entries;
        finite.bhtAssoc = 4;
        sweep("fig10_pas_finite", "mpeg_play", SchemeKind::PAsFinite,
              finite);
    }
    Table3Options t3;
    t3.budgetBits = {9, 12, 15};
    t3.bhtSizes = {2048, 1024, 128};
    t3.threads = 0;
    for (const std::string &name : focusProfileNames()) {
        for (const Table3SchemeSpec &spec : table3Plan(t3))
            sweep("table3_best_configs", name, spec.kind, spec.options,
                  spec.name);
    }
    struct Budget
    {
        const char *label;
        unsigned tageEntryBits, tageBaseBits, gshareRowBits;
    };
    const Budget budgets[] = {
        {"small", 4, 6, 8},
        {"medium", 6, 8, 10},
        {"large", 8, 10, 12},
    };
    for (const std::string &name : focusProfileNames()) {
        for (const Budget &b : budgets) {
            for (bool tage : {true, false}) {
                PaperRequest r;
                r.bench = "fig_tage_aliasing";
                r.profile = name;
                r.op = OpKind::Interference;
                r.kind = tage ? SchemeKind::Tage : SchemeKind::Gshare;
                r.label = b.label;
                r.rowBits = tage ? b.tageEntryBits : b.gshareRowBits;
                r.colBits = tage ? b.tageBaseBits : 0;
                out.push_back(std::move(r));
            }
        }
    }
    for (const std::string &name : focusProfileNames())
        sweep("fig_perceptron_surface", name, SchemeKind::Perceptron,
              paper);
    return out;
}

std::string
describeRequestSet(const std::vector<PaperRequest> &requests,
                   std::uint64_t branches, std::uint64_t seed)
{
    static const char *const ops[] = {"sweep", "interference",
                                      "characterize"};
    std::ostringstream os;
    std::vector<std::string> profiles;
    for (const PaperRequest &r : requests) {
        const SweepOptions &o = r.options;
        os << r.bench << ' ' << r.profile << ' '
           << ops[static_cast<int>(r.op)] << ' '
           << schemeKindName(r.kind) << " label=" << r.label
           << " geometry=" << r.rowBits << 'x' << r.colBits
           << " tiers=" << o.minTotalBits << ".." << o.maxTotalBits
           << " alias=" << o.trackAliasing
           << " path_bits=" << o.pathBitsPerTarget
           << " bht=" << o.bhtEntries << '/' << o.bhtAssoc << '/'
           << static_cast<int>(o.bhtResetPolicy)
           << " tage_tag_bits=" << o.tageTagBits << " histories=";
        for (unsigned h : o.tageHistories)
            os << h << ',';
        os << " perceptron_tables=" << o.perceptronTables
           << " threads=" << o.threads << " segments=" << o.segments
           << '\n';
        if (std::find(profiles.begin(), profiles.end(), r.profile) ==
            profiles.end())
            profiles.push_back(r.profile);
    }
    for (const std::string &p : profiles) {
        const WorkloadParams params = traceParams(p, branches, seed);
        os << "trace " << p << " seed=" << params.seed
           << " key=" << syntheticTraceKey(params).hex() << '\n';
    }
    return os.str();
}

ReplayPath
replayPath(SchemeKind kind, const SweepOptions &options)
{
    if (kind == SchemeKind::Tage || kind == SchemeKind::Perceptron)
        return ReplayPath::Model;
    if (options.trackAliasing)
        return ReplayPath::Alias;
    if (kind == SchemeKind::PAsFinite)
        return ReplayPath::Bht;
    return ReplayPath::Fused;
}

const char *
replayPathName(ReplayPath path)
{
    switch (path) {
      case ReplayPath::Fused: return "fused";
      case ReplayPath::Alias: return "alias";
      case ReplayPath::Bht: return "bht";
      case ReplayPath::Model: return "model";
    }
    return "?";
}

std::uint64_t
sweepConfigs(SchemeKind kind, const SweepOptions &options)
{
    return planSweep(kind, options).size();
}

std::uint64_t
conditionalBranches(const MemoryTrace &trace)
{
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < trace.size(); ++i)
        n += trace[i].isConditional() ? 1 : 0;
    return n;
}

const std::vector<std::string> &
serviceProfiles()
{
    static const std::vector<std::string> profiles = {
        "espresso", "mpeg_play", "real_gcc"};
    return profiles;
}

std::vector<std::string>
serviceScript(std::uint64_t seed, unsigned client,
              const std::vector<TraceHash> &traces)
{
    using service::JsonValue;
    static const char *const schemes[] = {"gshare", "gas", "pas"};

    // The new sweeps of all clients are dealt from one seeded shuffle
    // of every (scheme, trace, tier window) combination, so a pass
    // asks for nearly the same total work at every seed; the seed
    // decides order, which client asks what, and which sweeps repeat.
    struct Combo
    {
        unsigned scheme, trace, lo, hi;
    };
    std::vector<Combo> combos;
    for (unsigned sc = 0; sc < 3; ++sc)
        for (unsigned t = 0; t < traces.size(); ++t)
            for (unsigned lo = 4; lo <= 8; ++lo)
                for (unsigned width : {5u, 7u})
                    combos.push_back(Combo{sc, t, lo, lo + width});
    Pcg32 deal(seed, 0);
    for (std::size_t i = combos.size(); i > 1; --i)
        std::swap(combos[i - 1],
                  combos[deal.nextBounded(static_cast<std::uint32_t>(i))]);

    Pcg32 rng(seed, 2 * client + 1);
    auto traceRef = [&](std::uint32_t i) {
        JsonValue::Object ref;
        ref.emplace("hash", JsonValue(traces.at(i).hex()));
        return JsonValue(std::move(ref));
    };
    std::vector<std::string> lines;
    std::vector<JsonValue::Object> sweeps;
    std::size_t next = client * (kServiceSweepsPerClient -
                                 kServiceSweepsPerClient / 3);
    for (unsigned s = 0; s < kServiceSweepsPerClient; ++s) {
        JsonValue::Object req;
        if (s % 3 == 2) {
            // Every third sweep repeats one of this client's earlier
            // sweeps: a memory hit.
            req = sweeps[rng.nextBounded(
                static_cast<std::uint32_t>(sweeps.size()))];
        } else {
            const Combo &c = combos[next++ % combos.size()];
            JsonValue::Object options;
            options.emplace("min_bits", JsonValue(static_cast<std::int64_t>(c.lo)));
            options.emplace("max_bits", JsonValue(static_cast<std::int64_t>(c.hi)));
            req.emplace("op", JsonValue("sweep"));
            req.emplace("scheme", JsonValue(schemes[c.scheme]));
            req.emplace("trace", traceRef(c.trace));
            req.emplace("options", JsonValue(std::move(options)));
            sweeps.push_back(req);
        }
        req["id"] = JsonValue("c" + std::to_string(client) + "-" +
                              std::to_string(lines.size()));
        lines.push_back(JsonValue(std::move(req)).render());

        // One light op after every sweep: two point probes in three,
        // then a ping or a stats query in turn.
        JsonValue::Object light;
        if (s % 3 != 2) {
            const auto row = rng.uniformInt(0, 8);
            const auto col = rng.uniformInt(0, 12 - row);
            light.emplace("op", JsonValue("point"));
            light.emplace("scheme", JsonValue(schemes[rng.nextBounded(3)]));
            light.emplace("trace",
                          traceRef(rng.nextBounded(
                              static_cast<std::uint32_t>(traces.size()))));
            light.emplace("row_bits", JsonValue(row));
            light.emplace("col_bits", JsonValue(col));
        } else {
            light.emplace("op", JsonValue(s % 6 == 2 ? "ping" : "stats"));
        }
        light.emplace("id", JsonValue("c" + std::to_string(client) + "-" +
                                      std::to_string(lines.size())));
        lines.push_back(JsonValue(std::move(light)).render());
    }
    return lines;
}

} // namespace perfbench
