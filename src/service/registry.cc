#include "service/registry.hh"

#include <algorithm>
#include <cctype>

#include "workload/profiles.hh"

namespace bpsim::service {

namespace {

std::string
lowercase(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &name : names) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

} // namespace

Status
SchemeRegistry::registerScheme(const std::string &name, SchemeKind kind)
{
    if (name.empty())
        return BPSIM_ERROR("scheme name must be non-empty");
    if (!schemes_.emplace(name, kind).second)
        return BPSIM_ERROR("scheme \"", name, "\" is already registered");
    return Status();
}

Result<SchemeKind>
SchemeRegistry::resolve(const std::string &name) const
{
    auto it = schemes_.find(name);
    if (it == schemes_.end()) {
        // A multi-component factory spec ("tage:12:10:8:4,8,16,32",
        // "tournament(...)") is a different namespace: the service
        // takes a bare scheme name plus structured options, so point
        // the client at the right shape instead of just listing names.
        if (name.find(':') != std::string::npos ||
            name.find('(') != std::string::npos ||
            name.find(',') != std::string::npos) {
            std::vector<std::string> params;
            for (const OptionField &f : sweepOptionFields())
                if (f.protocolKey && f.schemes != kEveryScheme)
                    params.push_back(f.protocolKey);
            return BPSIM_ERROR(
                "unknown scheme \"", name,
                "\" -- looks like a predictor spec string; the "
                "service takes a bare scheme name (registered: ",
                joinNames(names()),
                ") with per-scheme parameters in \"options\" (",
                joinNames(params), ")");
        }
        return BPSIM_ERROR("unknown scheme \"", name,
                           "\" (registered: ", joinNames(names()), ")");
    }
    return it->second;
}

std::vector<std::string>
SchemeRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(schemes_.size());
    for (const auto &[name, kind] : schemes_) {
        static_cast<void>(kind);
        out.push_back(name);
    }
    return out;
}

SchemeRegistry
SchemeRegistry::withBuiltins()
{
    SchemeRegistry reg;
    for (SchemeKind kind : kSchemeKinds) {
        const std::string display = schemeKindName(kind);
        static_cast<void>(reg.registerScheme(display, kind));
        const std::string lower = lowercase(display);
        if (lower != display)
            static_cast<void>(reg.registerScheme(lower, kind));
    }
    // Ergonomic short names for the two PAs variants.
    static_cast<void>(reg.registerScheme("pas", SchemeKind::PAsPerfect));
    static_cast<void>(
        reg.registerScheme("pas_bht", SchemeKind::PAsFinite));
    return reg;
}

Status
WorkloadRegistry::registerWorkload(const std::string &name,
                                   Generator gen)
{
    if (name.empty())
        return BPSIM_ERROR("workload name must be non-empty");
    if (!gen)
        return BPSIM_ERROR("workload \"", name,
                           "\" has no generator function");
    if (!workloads_.emplace(name, std::move(gen)).second)
        return BPSIM_ERROR("workload \"", name,
                           "\" is already registered");
    return Status();
}

Result<TraceHandle>
WorkloadRegistry::intern(const std::string &name, SweepSession &session,
                         std::uint64_t target_conditionals) const
{
    auto it = workloads_.find(name);
    if (it == workloads_.end())
        return BPSIM_ERROR("unknown workload \"", name,
                           "\" (registered: ", joinNames(names()), ")");
    return it->second(session, target_conditionals);
}

std::vector<std::string>
WorkloadRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(workloads_.size());
    for (const auto &[name, gen] : workloads_) {
        static_cast<void>(gen);
        out.push_back(name);
    }
    return out;
}

WorkloadRegistry
WorkloadRegistry::withBuiltins()
{
    WorkloadRegistry reg;
    for (const std::string &profile : profileNames()) {
        static_cast<void>(reg.registerWorkload(
            profile,
            [profile](SweepSession &session,
                      std::uint64_t target_conditionals) {
                return session.internProfile(profile,
                                             target_conditionals);
            }));
    }
    return reg;
}

} // namespace bpsim::service
