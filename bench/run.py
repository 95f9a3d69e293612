"""Benchmark of the nine-agent comparison grid: one named workload per run.

    python3 bench/run.py --workload uct_sweep --seed 1 --seconds 35 --trace 0

Runs whole rounds of the workload's grid through the package's public API
(run_batch, or the CLI's main for cli_parallel) until --seconds have
passed, checks every output file, and prints one JSON line last: whether
the outputs were correct, the seeded runs attempted and failed, and the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
Each round runs its own base seed, derived from --seed.

    python3 bench/run.py --remake-refs

runs each grid serially at the program's default seed and rewrites
refs.json, the digests that rounds at that seed are compared against.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFS = os.path.join(HERE, "refs.json")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import tracing  # noqa: E402

DEFAULT_SEED = 0
RUNS_PER_CELL = 1
SETUP_STARTS = 11
UCT_AGENTS = ("uct:0.5", "uct:1", "uct:sqrt2", "uct:2", "uct:3")
EVO_AGENTS = ("ea:2570", "ea:5000", "siea:2570", "siea:5000")
FUNCTIONS = ("f1", "f2", "f3", "f4", "f5")

# agents of each workload, and the worker count of those run through the CLI;
# cli_parallel names no agents, so it runs the CLI's default nine
WORKLOADS = {
    "uct_sweep": (UCT_AGENTS, None),
    "evolve_sweep": (EVO_AGENTS, None),
    "cli_parallel": (UCT_AGENTS + EVO_AGENTS, 2),
}

# the program's set-up as a user pays it: a fresh interpreter that imports
# the package, validates the command line and makes the output directory,
# then reports the CPU time it has used since it started
SETUP_PROBE = """
import os, sys, time
from evomcts.harness import cli_parse
cfg = cli_parse(sys.argv[1:])
os.makedirs(cfg.out_dir, exist_ok=True)
print(time.process_time(), flush=True)
"""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "iters_per_cpu_s": "iterations/s",
    "peak_rss_mib": "MiB",
}


def cli_argv(workload, seed, out, jobs=None):
    agents, cli_jobs = WORKLOADS[workload]
    argv = ["--functions", ",".join(FUNCTIONS), "--runs", str(RUNS_PER_CELL),
            "--seed", str(seed), "--out", out]
    jobs = cli_jobs if jobs is None else jobs
    if cli_jobs is None:
        argv += ["--agents", ",".join(agents)]
    else:
        argv += ["--jobs", str(jobs)]
    return argv


def cpu_seconds():
    """CPU time of this process and of its reaped children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def peak_rss_mib():
    s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(s, c) / 1024.0


def setup_seconds(argv, out):
    """Median CPU time of a fresh interpreter from its start to a ready output directory.

    CPU time, because steal and scheduling stretch the wall time of a
    0.15 s start-up by as much as the start-up itself.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    times = []
    for _ in range(SETUP_STARTS):
        shutil.rmtree(out, ignore_errors=True)
        probe = subprocess.run([sys.executable, "-c", SETUP_PROBE, *argv],
                               capture_output=True, text=True, env=env)
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {probe.stderr.strip()}")
        times.append(float(probe.stdout))
    return statistics.median(times)


def round_seed(seed, i):
    """Base seed of round i of a run; round 0 of --seed 0 is the program's default."""
    return 1000 * seed + i


def grid_size(workload):
    return len(WORKLOADS[workload][0]) * len(FUNCTIONS) * RUNS_PER_CELL


def run_round(workload, seed, out, jobs=None):
    """One pass over the grid at base seed `seed`: (wall s, cpu s, failed runs)."""
    from evomcts.harness import RunFailure, cli_parse, main, run_batch

    argv = cli_argv(workload, seed, out, jobs)
    cfg = cli_parse(argv)
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    if cfg.jobs == 1:
        try:
            run_batch(cfg)
            failed = 0
        except RunFailure as e:
            print(f"round failed: {e}", file=sys.stderr)
            failed = grid_size(workload)
    else:
        failed = 0 if main(argv) == 0 else grid_size(workload)
    return time.perf_counter() - wall0, cpu_seconds() - cpu0, failed


def digests(out):
    result = {}
    for name in checks.OUTPUT_FILES:
        with open(os.path.join(out, name), "rb") as fh:
            result[name] = hashlib.sha256(fh.read()).hexdigest()
    return result


class Outcome:
    """Attempted and failed runs, output problems and digests across rounds.

    Rounds that run the same base seed must write byte-identical files, and
    a round at the program's default seed must match refs.json.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.problems = []
        self.digests = {}  # base seed -> digests of its first round

    def add_round(self, out, seed, failed):
        """Check the round's files; returns the iterations they record."""
        self.attempted += grid_size(self.workload)
        self.failed += failed
        if failed:
            return 0
        records = checks.load_records(out)
        self.problems += checks.check_batch(
            records, WORKLOADS[self.workload][0], FUNCTIONS, RUNS_PER_CELL)
        dig = digests(out)
        if seed not in self.digests:
            self.digests[seed] = dig
            if seed == DEFAULT_SEED:
                with open(REFS) as fh:
                    ref = json.load(fh)[self.workload]
                self.problems += [f"{n} differs from its reference digest"
                                  for n in checks.OUTPUT_FILES if dig[n] != ref[n]]
        elif dig != self.digests[seed]:
            self.problems.append(f"outputs at seed {seed} differ from an earlier round's")
        return sum(r["iterations"] for r in records)

    def report(self, metrics):
        if self.digests:
            seed, dig = next(iter(self.digests.items()))
            for name, h in dig.items():
                print(f"sha256 {self.workload} seed {seed} {name} {h}")
        for p in self.problems[:20]:
            print(f"check failed: {p}", file=sys.stderr)
        print(json.dumps({
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))


def measure(workload, seed, seconds):
    out = os.path.join(OUT, workload)
    setup = setup_seconds(cli_argv(workload, round_seed(seed, 0), out), out)
    outcome = Outcome(workload)
    walls, rates = [], []
    start = time.perf_counter()
    for i in itertools.count():
        s = round_seed(seed, i)
        wall, cpu, failed = run_round(workload, s, out)
        iterations = outcome.add_round(out, s, failed)
        if iterations:
            walls.append(wall)
            rates.append(iterations / cpu)
        # whole rounds only, ending as near the run length as they can
        if time.perf_counter() - start + wall / 2 > seconds:
            break
    values = {
        "setup_s": setup,
        "wall_s": statistics.median(walls) if walls else math.nan,
        "iters_per_cpu_s": statistics.median(rates) if rates else math.nan,
        "peak_rss_mib": peak_rss_mib(),
    }
    outcome.report({k: (v, END_TO_END[k]) for k, v in values.items()})


def tail(values):
    """(percent, value) of the highest percentile with ten samples above it."""
    s = sorted(values)
    i = max(0, len(s) - 11)
    return 100.0 * (i + 1) / len(s), s[i]


def tree_kib(workload, seed):
    """Mean tracemalloc peak of one run per agent, agent i on landscape i mod 5."""
    from evomcts.fop import FunctionId
    from evomcts.harness import cli_parse, parse_agent, run_one

    cfg = cli_parse(cli_argv(workload, seed, os.path.join(OUT, workload)))
    peaks = []
    tracemalloc.start()
    try:
        for i, label in enumerate(WORKLOADS[workload][0]):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_one(cfg, parse_agent(label), FunctionId(FUNCTIONS[i % len(FUNCTIONS)]), 0)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1024.0)
    finally:
        tracemalloc.stop()
    return statistics.fmean(peaks)


def trace(workload, seed):
    """Per-layer metrics of the grid at rounds 0 and 1 of --seed.

    The pool round (cli_parallel only) and the run-timed rounds run
    untraced; the traced round repeats round 0 in this process, where its
    spans land, and must write the same bytes as the untraced rounds.
    """
    out = os.path.join(OUT, workload)
    outcome = Outcome(workload)
    first, second = round_seed(seed, 0), round_seed(seed, 1)
    pool_jobs = WORKLOADS[workload][1]
    if pool_jobs is not None:
        wall, cpu, failed = run_round(workload, first, out)
        outcome.add_round(out, first, failed)
        pool_idle = pool_jobs * wall - cpu

    runs_only = tracing.Tracer()
    with tracing.patched(tracing.run_spans(runs_only)):
        wall, plain_cpu, failed = run_round(workload, first, out, jobs=1)
        outcome.add_round(out, first, failed)
        failed = run_round(workload, second, out, jobs=1)[2]
        outcome.add_round(out, second, failed)
    if pool_jobs is None:
        pool_idle = wall - plain_cpu

    o_in, o_out = tracing.calibrate()
    t = tracing.Tracer()
    with tracing.patched(tracing.layer_spans(t)):
        _, traced_cpu, failed = run_round(workload, first, out, jobs=1)
    iterations = outcome.add_round(out, first, failed)
    out_bytes = sum(os.path.getsize(os.path.join(out, n)) for n in checks.OUTPUT_FILES)
    kib = tree_kib(workload, first)

    runs = grid_size(workload)
    evolving = sum(not a.startswith("uct:") for a in WORKLOADS[workload][0]) * (
        len(FUNCTIONS) * RUNS_PER_CELL)

    def self_ns(name):
        own, _, calls, children = t.layer(name)
        return max(0.0, own - calls * o_in - children * o_out)

    def calls(name):
        return t.layer(name)[2]

    def per_call(name, scale):
        return self_ns(name) / calls(name) / scale if calls(name) else 0.0

    run_ms = runs_only.durations_ms("harness.run")
    tail_pct, tail_ms = tail(run_ms)
    evo_ns = t.layer("evo.evolve")[1] - t.layer("evo.fitness_iterations")[1]
    layers = {
        "expr.policy_ns": (per_call("expr.policy", 1), "ns"),
        "expr.policy_calls": (calls("expr.policy") / iterations, "calls/iter"),
        "expr.compile_us": (per_call("expr.compile", 1e3), "us"),
        "expr.compile_calls": (calls("expr.compile") / runs, "calls/run"),
        "mcts.select_us": (per_call("mcts.select", 1e3), "us"),
        "mcts.select_depth": (t.counts["mcts.select_depth"] / calls("mcts.select"), "levels"),
        "mcts.expand_us": (per_call("mcts.expand", 1e3), "us"),
        "mcts.rollout_us": (per_call("mcts.rollout", 1e3), "us"),
        "mcts.rollout_levels": (t.counts["mcts.rollout_levels"] / calls("mcts.rollout"),
                                "levels"),
        "mcts.backprop_us": (per_call("mcts.backprop", 1e3), "us"),
        "mcts.recommend_us": (self_ns("mcts.recommend") / runs / 1e3, "us/run"),
        "mcts.tree_kib": (kib, "KiB"),
        "fop.children_us": (per_call("fop.children", 1e3), "us"),
        "fop.f_eval_ns": (per_call("fop.f_eval", 1), "ns"),
        "fop.f_eval_calls": (calls("fop.f_eval") / runs, "calls/run"),
        "evo.overhead_ms": (evo_ns / evolving / 1e6 if evolving else 0.0, "ms/run"),
        "evo.mutate_us": (per_call("evo.mutate", 1e3), "us"),
        "evo.tied_generations": (t.counts["evo.tied_generations"], "count"),
        "metrics.snapshot_ms": (per_call("metrics.snapshot", 1e6), "ms"),
        "metrics.hook_us": (per_call("metrics.hook", 1e3), "us"),
        "metrics.terminal_scan_ms": (per_call("metrics.terminal_scan", 1e6), "ms"),
        "harness.run_ms_p50": (statistics.median(run_ms), "ms"),
        "harness.run_ms_tail": (tail_ms, "ms"),
        "harness.pool_idle_s": (pool_idle, "s"),
        "harness_io.write_ms": (self_ns("harness_io.write") / 1e6, "ms"),
        "harness_io.bytes": (out_bytes, "bytes"),
        "trace.overhead_pct": (100.0 * (traced_cpu / plain_cpu - 1.0), "%"),
    }
    with open(os.path.join(out, "trace.json"), "w") as fh:
        json.dump({
            "workload": workload,
            "seed": first,
            "calibration_ns": {"inside": o_in, "outside": o_out},
            "run_ms_tail_percentile": tail_pct,
            "layers": {n: dict(zip(("self_ns", "total_ns", "calls", "child_spans"), v))
                       for n, v in sorted(t.layers.items())},
            "counts": dict(sorted(t.counts.items())),
            "spans": t.spans,
        }, fh)
    print(f"harness.run_ms_tail is p{tail_pct:.0f} of {len(run_ms)} runs")
    outcome.report(layers)


def remake_refs():
    from evomcts.harness import cli_parse, run_batch

    refs = {}
    for workload in WORKLOADS:
        out = os.path.join(OUT, "refs", workload)
        run_batch(cli_parse(cli_argv(workload, DEFAULT_SEED, out, jobs=1)))
        refs[workload] = digests(out)
    with open(REFS, "w") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFS}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--remake-refs", action="store_true",
                   help="rerun every grid serially at the default seed and rewrite refs.json")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "evomcts", "harness.py")):
        print(f"error: no evomcts sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.remake_refs:
        remake_refs()
    elif args.workload is None:
        p.error("--workload is required")
    elif args.trace:
        trace(args.workload, args.seed)
    else:
        measure(args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
