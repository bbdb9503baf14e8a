#include "harness/host.hh"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <fstream>

#include "common/simd.hh"
#include "common/thread_pool.hh"

namespace perfbench {

using bpsim::service::JsonValue;

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

} // namespace

JsonValue
hostFingerprint()
{
    JsonValue::Object host;
    host.emplace("cpu_model", JsonValue(cpuModel()));
    host.emplace("nproc", JsonValue(static_cast<std::int64_t>(
                              bpsim::ThreadPool::hardwareThreads())));
    host.emplace("compiler", JsonValue(PERFBENCH_COMPILER));
    host.emplace("build_type", JsonValue(PERFBENCH_BUILD_TYPE));
    host.emplace("simd_target", JsonValue(bpsim::simdTargetName(
                                    bpsim::detectSimdTarget())));
    return JsonValue(std::move(host));
}

double
hostControlMs()
{
    std::array<double, 3> ms{};
    volatile std::uint64_t sink = 0;
    for (double &m : ms) {
        const auto start = std::chrono::steady_clock::now();
        // splitmix64 steps; each depends on its chain's last, so no
        // chain can be cut short.
        std::array<std::uint64_t, 8> z{};
        for (std::size_t k = 0; k < z.size(); ++k)
            z[k] = sink + k;
        for (int i = 0; i < 2'000'000; ++i) {
            for (std::uint64_t &c : z) {
                c += 0x9e3779b97f4a7c15ULL;
                c = (c ^ (c >> 30)) * 0xbf58476d1ce4e5b9ULL;
                c = (c ^ (c >> 27)) * 0x94d049bb133111ebULL;
                c ^= c >> 31;
            }
        }
        std::uint64_t all = 0;
        for (std::uint64_t c : z)
            all ^= c;
        sink = all;
        m = std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
    }
    std::sort(ms.begin(), ms.end());
    return ms[1];
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t
directoryBytes(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    std::uint64_t total = 0;
    if (dir.empty() || !fs::exists(dir, ec))
        return 0;
    for (const auto &entry : fs::recursive_directory_iterator(dir, ec)) {
        if (entry.is_regular_file(ec))
            total += entry.file_size(ec);
    }
    return total;
}

} // namespace perfbench
