/**
 * perfbench: one benchmark pass per process, driven by perfbench/run.py.
 *
 *   perfbench paper   [--seed N] [--branches N] [--cache-dir D]
 *                     [--cold 0|1] [--trace 0|1] [--spans FILE]
 *                     [--golden-dir DIR] [--calibrate 0|1]
 *   perfbench service [--seed N] [--branches N] [--trace 0|1]
 *                     [--spans FILE] [--socket PATH] [--calibrate 0|1]
 *                     [--cold-check 0|1]
 *   perfbench host
 *
 * Each command prints one JSON object on stdout.  With --calibrate 1 a
 * pass adds "host_control_ms", the host-speed control of
 * hostControlMs(), measured after the pass.  A failed operation
 * is counted in the object's "failed"; the exit code is non-zero only
 * when the pass could not run at all.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "harness/host.hh"
#include "harness/paper.hh"
#include "harness/service.hh"

namespace {

int
usage()
{
    std::fprintf(stderr, "usage: perfbench paper|service|host "
                         "[--key value ...]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    std::map<std::string, std::string> args;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0)
            return usage();
        args[key.substr(2)] = argv[i + 1];
    }
    auto get = [&](const std::string &key, const std::string &fallback) {
        auto it = args.find(key);
        return it == args.end() ? fallback : it->second;
    };
    auto num = [&](const std::string &key, std::uint64_t fallback) {
        auto it = args.find(key);
        return it == args.end() ? fallback
                                : std::strtoull(it->second.c_str(),
                                                nullptr, 10);
    };

    try {
        bpsim::service::JsonValue result;
        if (command == "paper") {
            PaperPassConfig cfg;
            cfg.seed = num("seed", kDefaultSeed);
            cfg.branches = num("branches", kTimedBranches);
            cfg.cacheDir = get("cache-dir", "");
            cfg.cold = num("cold", 1) != 0;
            cfg.trace = num("trace", 0) != 0;
            cfg.spansPath = get("spans", "");
            cfg.goldenDir = get("golden-dir", "");
            result = runPaperPass(cfg);
        } else if (command == "service") {
            ServicePassConfig cfg;
            cfg.seed = num("seed", kDefaultSeed);
            cfg.branches = num("branches", kTimedBranches);
            cfg.trace = num("trace", 0) != 0;
            cfg.spansPath = get("spans", "");
            cfg.socketPath = get("socket", "perfbench.sock");
            cfg.coldCheck = num("cold-check", 1) != 0;
            result = runServicePass(cfg);
        } else if (command == "host") {
            result = hostFingerprint();
        } else {
            return usage();
        }
        if (command != "host" && num("calibrate", 0) != 0)
            result.object().emplace(
                "host_control_ms",
                bpsim::service::JsonValue(hostControlMs()));
        std::printf("%s\n", result.render().c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
