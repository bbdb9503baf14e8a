#!/usr/bin/env python3
"""End-to-end benchmark of the bpsim reproduction.

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 10 --trace 0

Run from the repository root.  The script builds the harness
(perfbench/CMakeLists.txt) from source, then runs benchmark passes of
the chosen workload, one fresh process per pass, until --seconds have
passed (and at least MIN_PASSES ran).  Every pass checks its outputs;
the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured untraced.  --trace 1
alternates traced and untraced passes and reports the per-layer
metrics (from the traced passes) plus the tracing overhead.  See
perfbench/README.md for the workloads and how to read the output.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("paper_cold", "paper_warm", "service_explore")
DEFAULT_SEED = 1
# Trace length the bench/golden files were emitted with.
GOLDEN_BRANCHES = 6000
# A run makes at least this many passes, however short --seconds is.
MIN_PASSES = 3
# paper_warm fills this many cache directories (its set-up) per run.
WARM_FILLS = 3
PASS_TIMEOUT_S = 120

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("bcu_per_s", "bcu/s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("light_op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

REPLAY_PATHS = ("fused", "alias", "bht", "model")

PER_LAYER = (
    [("trace.intern_s", "s"),
     ("workload.generations", "count"),
     ("workload.generated_mbranches", "Mbranch"),
     ("trace.characterize_s", "s"),
     ("sim.prepare_s", "s"),
     ("sim.interference_s", "s")]
    + [("sim.replay_s." + p, "s") for p in REPLAY_PATHS]
    + [("sim.bcu_per_s." + p, "bcu/s") for p in REPLAY_PATHS]
    + [("sim.fused_groups", "count"),
       ("sim.lanes_per_group", "lanes"),
       ("sim.fallback_jobs", "count"),
       ("sim.model_lanes_per_group", "lanes"),
       ("sim.worker_utilization", "ratio"),
       ("sim.hot_bytes_per_branch", "B"),
       ("cache.memory_hit_us", "us"),
       ("cache.disk_hit_us", "us"),
       ("cache.hit_frac", "ratio"),
       ("cache.misses", "count"),
       ("cache.disk_hits", "count"),
       ("cache.store_failures", "count"),
       ("cache.corrupt", "count"),
       ("cache.dir_mb", "MB"),
       ("stats.render_s", "s"),
       ("service.outside_engine_ms", "ms"),
       ("service.coalesced_frac", "ratio"),
       ("service.requests_per_drain", "count"),
       ("service.envelope_sweeps", "count"),
       ("service.errors", "count"),
       ("service.parse_us", "us"),
       ("bench.tracing_overhead_frac", "ratio"),
       ("bench.unaccounted_frac", "ratio"),
       ("bench.host_control_ms", "ms")]
)

# Per-layer values a pass reports as sample lists: pooled over passes.
POOLED = ("cache.memory_hit_us", "cache.disk_hit_us",
          "service.outside_engine_ms")


class BenchError(Exception):
    pass


def percentile(values, q):
    """Nearest-rank q-quantile of values, with its sample count and the
    number of samples strictly beyond it."""
    if not values:
        return {"value": 0.0, "samples": 0, "beyond": 0}
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    value = ordered[rank - 1]
    return {"value": value, "samples": len(ordered),
            "beyond": sum(1 for v in ordered if v > value)}


def median(values):
    return statistics.median(values) if values else 0.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure and build the harness; returns the binary path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
           "--target", "perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return os.path.join(build_dir, "perfbench")


def run_pass(binary, args):
    """Run one pass process; its result dict gains spawn_s (how long
    from spawn to its first timed request) and process_s."""
    start = time.monotonic()
    proc = subprocess.run([binary] + [str(a) for a in args], cwd=ROOT,
                          stdout=subprocess.PIPE, timeout=PASS_TIMEOUT_S,
                          text=True)
    end = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("pass %s exited with %d" % (args[0], proc.returncode))
    result = json.loads(lines[-1])
    result["spawn_s"] = result.get("ready_at", start) - start
    result["process_s"] = end - start
    return result


class Run:
    """One benchmark run: its passes, checks and failure counts."""

    def __init__(self, binary, workload, seed, seconds, trace, scratch):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scratch = scratch
        self.passes = []        # (traced, result)
        self.setups = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def count(self, result):
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems += result.get("problems", [])

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def pass_args(self, index):
        traced = self.trace and index % 2 == 0
        args = ["--seed", self.seed, "--trace", int(traced),
                "--calibrate", 1]
        if traced:
            spans = os.path.join(ROOT, ".perfbench", "spans")
            os.makedirs(spans, exist_ok=True)
            args += ["--spans", os.path.join(
                spans, "%s-pass%d.json" % (self.workload, index))]
        return traced, args

    def more(self, deadline):
        return len(self.passes) < MIN_PASSES + (1 if self.trace else 0) \
            or time.monotonic() < deadline

    def run(self):
        deadline = time.monotonic() + self.seconds
        if self.workload == "paper_cold":
            while self.more(deadline):
                cache = os.path.join(self.scratch, "cold")
                shutil.rmtree(cache, ignore_errors=True)
                traced, args = self.pass_args(len(self.passes))
                r = run_pass(self.binary, ["paper", "--cache-dir", cache,
                                           "--cold", 1] + args)
                shutil.rmtree(cache, ignore_errors=True)
                self.setups.append(r["spawn_s"])
                self.passes.append((traced, r))
        elif self.workload == "paper_warm":
            fills = []
            for k in range(WARM_FILLS):
                cache = os.path.join(self.scratch, "warm%d" % k)
                fill = run_pass(self.binary, ["paper", "--cache-dir", cache,
                                              "--cold", 1, "--seed", self.seed])
                self.count(fill)
                fills.append((cache, fill))
            deadline = time.monotonic() + self.seconds
            while self.more(deadline) or len(self.passes) < len(fills):
                cache, fill = fills[len(self.passes) % len(fills)]
                traced, args = self.pass_args(len(self.passes))
                r = run_pass(self.binary, ["paper", "--cache-dir", cache,
                                           "--cold", 0] + args)
                if len(self.passes) < len(fills):
                    self.setups.append(fill["process_s"] + r["spawn_s"])
                digests_ok = r["request_digests"] == fill["request_digests"]
                self.check(digests_ok, "warm pass results differ from the "
                                       "cold pass that filled its cache")
                self.passes.append((traced, r))
        else:
            while self.more(deadline):
                traced, args = self.pass_args(len(self.passes))
                socket = os.path.relpath(
                    os.path.join(self.scratch, "s.sock"), ROOT)
                # The first pass checks every reply against the cold
                # path; the digest check below ties later passes to it.
                r = run_pass(self.binary, ["service", "--socket", socket,
                                           "--cold-check",
                                           int(not self.passes)] + args)
                self.setups.append(r["spawn_s"])
                self.passes.append((traced, r))

        for _, r in self.passes:
            self.count(r)
        digests = {r["digest"] for _, r in self.passes}
        self.check(len(digests) == 1,
                   "passes of one run produced different results")
        expected = expected_digest(self.workload, self.seed)
        if expected is not None:
            self.check(digests == {expected},
                       "digest %s differs from the recorded %s"
                       % (sorted(digests), expected))
        if self.workload.startswith("paper"):
            golden = run_pass(self.binary, [
                "paper", "--branches", GOLDEN_BRANCHES,
                "--golden-dir", os.path.join(ROOT, "bench", "golden")])
            self.count(golden)
            self.golden_values = golden.get("golden_values", 0)


def expected_digest(workload, seed):
    """The recorded digest for this run, or None when none applies."""
    if seed != DEFAULT_SEED:
        return None
    if workload == "service_explore":
        workload += "@%d" % (os.cpu_count() or 1)
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)["digests"].get(workload)


def end_to_end(run):
    passes = [r for traced, r in run.passes if not traced]
    sweep_ms = [v for r in passes for v in r["sweep_ms"]]
    light_ms = [v for r in passes for v in r["light_ms"]]
    p50 = percentile(sweep_ms, 0.5)
    p90 = percentile(sweep_ms, 0.9)
    light = percentile(light_ms, 0.5)
    values = {
        "setup_s": median(run.setups),
        "wall_s": median([r["wall_s"] for r in passes]),
        "bcu_per_s": median([r["bcus"] / r["wall_s"] for r in passes]),
        "requests_per_s": median([r["requests"] / r["wall_s"]
                                  for r in passes]),
        "latency_p50_ms": p50["value"],
        "latency_p90_ms": p90["value"],
        "light_op_p50_ms": light["value"],
        "peak_rss_mb": median([r["peak_rss_mb"] for r in passes]),
    }
    values["host_control_ms"] = median([r["host_control_ms"] for r in passes])
    notes = {
        "setup_s": "median of %d set-ups" % len(run.setups),
        "wall_s": "median of %d passes" % len(passes),
        "latency_p50_ms": "%d samples" % p50["samples"],
        "latency_p90_ms": "%d samples, %d beyond" % (p90["samples"],
                                                     p90["beyond"]),
        "light_op_p50_ms": "%d samples" % light["samples"],
    }
    return values, notes


def per_layer(run):
    traced = [r for t, r in run.passes if t]
    plain = [r for t, r in run.passes if not t]
    layers = [r["layers"] for r in traced]

    def scalar(key):
        return median([l.get(key, 0.0) for l in layers])

    values = {}
    for name, _ in PER_LAYER:
        if name in POOLED:
            values[name] = median([v for l in layers for v in l.get(name, [])])
        else:
            values[name] = scalar(name)
    for p in REPLAY_PATHS:
        rates = [l["sim.bcus." + p] / l["sim.replay_s." + p]
                 for l in layers if l.get("sim.replay_s." + p, 0) > 0]
        values["sim.bcu_per_s." + p] = median(rates)
    values["cache.hit_frac"] = median(
        [l["cache.hits"] / l["cache.lookups"] for l in layers
         if l.get("cache.lookups", 0) > 0])
    values["bench.unaccounted_frac"] = median(
        [r["layers"]["bench.unaccounted_s"] / r["wall_s"] for r in traced])
    values["bench.host_control_ms"] = median(
        [r["host_control_ms"] for _, r in run.passes])
    values["bench.tracing_overhead_frac"] = (
        median([r["wall_s"] for r in traced])
        / median([r["wall_s"] for r in plain]) - 1.0)
    self_s = {}
    for l in layers:
        for name, sec in l.get("self_s", {}).items():
            self_s.setdefault(name, []).append(sec)
    return values, {name: median(v) for name, v in self_s.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        binary = build()
        host = run_pass(binary, ["host"])
        scratch = os.path.join(ROOT, ".perfbench", "run-%d" % os.getpid())
        os.makedirs(scratch, exist_ok=True)
        run = Run(binary, args.workload, args.seed, args.seconds,
                  bool(args.trace), scratch)
        try:
            run.run()
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as e:
        log("perfbench: %s" % e)
        return 1

    host.pop("spawn_s", None)
    host.pop("process_s", None)
    print("workload %s  seed %d  host %s" % (args.workload, args.seed,
                                             json.dumps(host)))
    if args.trace:
        values, self_s = per_layer(run)
        units = dict(PER_LAYER)
        for name, _ in PER_LAYER:
            print("  %-30s %14.6g %s" % (name, values[name], units[name]))
        print("  self time per span name (median over traced passes):")
        for name, sec in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print("    %-28s %10.6f s" % (name, sec))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values, notes = end_to_end(run)
        for name, unit in END_TO_END:
            print("  %-18s %14.6g %-6s %s" % (name, values[name], unit,
                                              notes.get(name, "")))
        print("  %-18s %14.6g %-6s host-speed control, median over passes"
              % ("host_control_ms", values["host_control_ms"], "ms"))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    failed_frac = run.failed / run.attempted if run.attempted else 0.0
    print("  %-18s %14.6g %-6s %d of %d operations" % (
        "failed_frac", failed_frac, "ratio", run.failed, run.attempted))
    if run.workload.startswith("paper"):
        print("  golden cross-check: %d values at %d branches"
              % (run.golden_values, GOLDEN_BRANCHES))
    print("  digest %s" % sorted({r["digest"] for _, r in run.passes}))
    for p in run.problems[:10]:
        print("  problem: %s" % p)
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
