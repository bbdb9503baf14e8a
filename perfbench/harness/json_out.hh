/**
 * @file
 * Small helpers for the pass result objects.
 */

#ifndef PERFBENCH_HARNESS_JSON_OUT_HH
#define PERFBENCH_HARNESS_JSON_OUT_HH

#include <cstdint>
#include <vector>

#include "service/json.hh"

namespace perfbench {

inline bpsim::service::JsonValue
count(std::uint64_t v)
{
    return bpsim::service::JsonValue(static_cast<std::int64_t>(v));
}

inline bpsim::service::JsonValue
numbers(const std::vector<double> &values)
{
    bpsim::service::JsonValue::Array out;
    for (double v : values)
        out.emplace_back(v);
    return bpsim::service::JsonValue(std::move(out));
}

} // namespace perfbench

#endif // PERFBENCH_HARNESS_JSON_OUT_HH
