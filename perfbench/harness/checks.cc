#include "harness/checks.hh"

#include <vector>

#include "verify/differential.hh"

namespace perfbench {

using namespace bpsim;

void
absorb(HashStream &h, const Surface &surface)
{
    h.str(surface.name());
    for (const SurfaceTier &tier : surface.tiers()) {
        h.u32(tier.totalBits);
        for (const SurfacePoint &p : tier.points) {
            h.u32(p.rowBits);
            h.u32(p.colBits);
            h.f64(p.value);
        }
    }
}

void
absorb(HashStream &h, const SweepResult &result)
{
    absorb(h, result.misprediction);
    absorb(h, result.aliasing);
    absorb(h, result.harmless);
    h.f64(result.bhtMissRate);
}

void
absorb(HashStream &h, const InterferenceResult &r)
{
    for (std::uint64_t v :
         {r.instances, r.sharedMispredicts, r.privateMispredicts,
          r.destructive, r.constructive, r.coldMispredicts,
          r.capacityMispredicts})
        h.u64(v);
}

void
absorb(HashStream &h, const TraceCharacterization &c)
{
    h.u64(c.dynamicInstructions());
    h.u64(c.dynamicConditionals());
    h.u64(c.staticConditionals());
    h.u64(c.staticCovering(0.90));
    for (std::size_t q : c.frequencyQuartiles())
        h.u64(q);
}

std::optional<verify::RefConfig>
referenceConfig(SchemeKind kind, unsigned row_bits, unsigned col_bits,
                const SweepOptions &options)
{
    using verify::RefResetPolicy;
    using verify::RefScheme;
    verify::RefConfig c;
    switch (kind) {
      case SchemeKind::AddressIndexed: c.scheme = RefScheme::AddressIndexed; break;
      case SchemeKind::GAg: c.scheme = RefScheme::GAg; break;
      case SchemeKind::GAs: c.scheme = RefScheme::GAs; break;
      case SchemeKind::Gshare: c.scheme = RefScheme::Gshare; break;
      case SchemeKind::Path: c.scheme = RefScheme::Path; break;
      case SchemeKind::PAsPerfect: c.scheme = RefScheme::PAsPerfect; break;
      case SchemeKind::PAsFinite: c.scheme = RefScheme::PAsFinite; break;
      case SchemeKind::Tage: c.scheme = RefScheme::Tage; break;
      case SchemeKind::Perceptron: c.scheme = RefScheme::Perceptron; break;
      default: return std::nullopt;
    }
    switch (options.bhtResetPolicy) {
      case BhtResetPolicy::C3ffPrefix: c.bhtResetPolicy = RefResetPolicy::C3ffPrefix; break;
      case BhtResetPolicy::Zeros: c.bhtResetPolicy = RefResetPolicy::Zeros; break;
      case BhtResetPolicy::Ones: c.bhtResetPolicy = RefResetPolicy::Ones; break;
      case BhtResetPolicy::Hold: c.bhtResetPolicy = RefResetPolicy::Hold; break;
    }
    c.rowBits = row_bits;
    c.colBits = col_bits;
    c.pathBitsPerTarget = options.pathBitsPerTarget;
    c.bhtEntries = options.bhtEntries;
    c.bhtAssoc = options.bhtAssoc;
    c.tagBits = options.tageTagBits;
    c.tageHistories = options.tageHistories;
    c.perceptronTables = options.perceptronTables;
    return c;
}

void
checkAgainstReference(const MemoryTrace &trace, SchemeKind kind,
                      const SweepOptions &options,
                      const Surface &misprediction, Pcg32 &rng,
                      Tally &tally)
{
    std::vector<const SurfacePoint *> points;
    for (const SurfaceTier &tier : misprediction.tiers())
        for (const SurfacePoint &p : tier.points)
            points.push_back(&p);
    if (points.empty())
        return;
    const SurfacePoint &p = *points[rng.nextBounded(
        static_cast<std::uint32_t>(points.size()))];
    std::optional<verify::RefConfig> config =
        referenceConfig(kind, p.rowBits, p.colBits, options);
    if (!config)
        return;
    const double reference = verify::referenceMispRate(*config, trace);
    tally.check(reference == p.value,
                std::string(schemeKindName(kind)) + " r" +
                    std::to_string(p.rowBits) + "c" +
                    std::to_string(p.colBits) + " on " + trace.name() +
                    ": engine " + std::to_string(p.value) +
                    " vs reference " + std::to_string(reference));
}

} // namespace perfbench
