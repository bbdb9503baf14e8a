/**
 * @file
 * Aliasing re-study for the modern-predictor zoo: does the paper's
 * central finding -- that predictor tables are dominated by aliasing
 * long before correlation runs out -- survive tagging?
 *
 * For each focus benchmark and a few matched storage budgets, decompose
 * every shared misprediction of an untagged global-history scheme
 * (gshare, the paper's best two-level variant) and of TAGE into the
 * three-C partition: aliasing (destructive), cold (first-touch /
 * allocation) and capacity.  TAGE's tag check turns silent counter
 * sharing into explicit allocation misses, so its aliasing share
 * should collapse while cold/capacity grow -- the re-study's headline.
 */

#include "bench_util.hh"
#include "sim/interference.hh"
#include "stats/table_formatter.hh"

using namespace bpsim;
using namespace bpsim::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    banner("TAGE aliasing re-study: three-C decomposition vs gshare");

    // Loosely matched prediction-state budgets, small to large.  TAGE
    // spends rows on per-component entries and cols on the bimodal
    // base; gshare spends everything on one PHT.
    struct Budget
    {
        const char *label;
        unsigned tageEntryBits; ///< rows: per-component entries
        unsigned tageBaseBits;  ///< cols: base table
        unsigned gshareRowBits; ///< gshare history = table bits
    };
    const Budget budgets[] = {
        {"small", 4, 6, 8},
        {"medium", 6, 8, 10},
        {"large", 8, 10, 12},
    };

    for (const auto &name : focusProfileNames()) {
        TraceHandle handle =
            internProfile(opts.session(), name, opts.branches);
        auto trace = preparedTrace(opts.session(), handle);
        std::printf("--- %s ---\n", name.c_str());
        TableFormatter table({"budget", "scheme", "shared misp",
                              "aliasing", "cold", "capacity"});
        for (const Budget &b : budgets) {
            const SweepOptions o = opts.sweepOptions({});
            InterferenceResult tage = analyzeInterference(
                *trace, SchemeKind::Tage, b.tageEntryBits,
                b.tageBaseBits, o);
            InterferenceResult gshare = analyzeInterference(
                *trace, SchemeKind::Gshare, b.gshareRowBits, 0, o);

            table.addRow({b.label, "gshare",
                          TableFormatter::percent(
                              gshare.sharedMispRate()),
                          TableFormatter::percent(
                              gshare.aliasingRate()),
                          TableFormatter::percent(gshare.coldRate()),
                          TableFormatter::percent(
                              gshare.capacityRate())});
            table.addRow({b.label, "tage",
                          TableFormatter::percent(
                              tage.sharedMispRate()),
                          TableFormatter::percent(tage.aliasingRate()),
                          TableFormatter::percent(tage.coldRate()),
                          TableFormatter::percent(
                              tage.capacityRate())});

            const std::string prefix =
                std::string("fig_tage_aliasing/") + name + "/" +
                b.label;
            opts.gold(prefix + "/gshare/shared_misp",
                      gshare.sharedMispRate());
            opts.gold(prefix + "/gshare/aliasing",
                      gshare.aliasingRate());
            opts.gold(prefix + "/gshare/cold", gshare.coldRate());
            opts.gold(prefix + "/gshare/capacity",
                      gshare.capacityRate());
            opts.gold(prefix + "/tage/shared_misp",
                      tage.sharedMispRate());
            opts.gold(prefix + "/tage/aliasing", tage.aliasingRate());
            opts.gold(prefix + "/tage/cold", tage.coldRate());
            opts.gold(prefix + "/tage/capacity", tage.capacityRate());
        }
        std::printf("%s\n", table.render().c_str());
    }

    std::printf("Reading: gshare's mispredictions are dominated by "
                "destructive aliasing exactly as the paper measured "
                "for its two-level family; TAGE's tag check converts "
                "nearly all of that interference into cold "
                "(allocation) and capacity misses.  The paper-era "
                "aliasing machinery would misclassify those allocation "
                "misses as interference -- the decomposition here "
                "keeps the three classes separate.\n");
    return opts.goldenFinish();
}
