"""Output checks for the benchmark, computed apart from the program.

Everything here is written from the paper's definitions, not imported from
evomcts: the five landscapes, the evolution budget, the stage marks and the
dyadic grid of interval midpoints. A check returns a list of problems; an
empty list means the outputs passed.
"""

from __future__ import annotations

import csv
import math
import os
from functools import lru_cache
from typing import Dict, List, Sequence

UCT_ITERATIONS = 5000
# (1, 4) evolution: 30 iterations per candidate, the seed parent plus
# 20 generations of 4 offspring
FITNESS_ITERATIONS = 30 * (1 + 20 * 4)
STAGE_FRACTIONS = (1 / 3, 2 / 3, 1)
# binary splitting stops below width 1e-5, i.e. at depth 17, so every node
# midpoint is a multiple of 2^-18
GRID = 2 ** 18
VALUE_TOL = 1e-12
UCT_F1_FLOOR = 0.99
OUTPUT_FILES = ("runs.csv", "summary.csv", "histograms.csv", "histograms_mean.csv")


def f1(x):
    return math.sin(math.pi * x)


def f2(x):
    return 0.5 * math.sin(13 * x) * math.sin(27 * x) + 0.5


def f3(x):
    s = 0.5 * abs(math.sin(1 / x ** 5))
    return 0.5 + s if x < 0.5 else 0.35 + s


def f4(x):
    return 0.5 * x + (1 - 0.7 * x) * math.sin(5 * math.pi * x) ** 4


def f5(x):
    return 0.5 * x + (1 - 0.7 * x) * math.sin(5 * math.pi * x) ** 80


LANDSCAPES = {"f1": f1, "f2": f2, "f3": f3, "f4": f4, "f5": f5}


@lru_cache(maxsize=None)
def grid_max(fname: str) -> float:
    """Largest value of the landscape over the interior midpoint grid.

    Every recommendation is a grid point, so no recommended value may
    exceed this.
    """
    f = LANDSCAPES[fname]
    return max(f(j / GRID) for j in range(1, GRID))


def expected_iterations(agent: str) -> int:
    kind, _, arg = agent.partition(":")
    return UCT_ITERATIONS if kind == "uct" else FITNESS_ITERATIONS + int(arg)


def load_records(out_dir: str) -> List[dict]:
    """Records of runs.csv with their stage histograms from histograms.csv."""
    with open(os.path.join(out_dir, "runs.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    hists: Dict[tuple, Dict[int, Dict[int, int]]] = {}
    with open(os.path.join(out_dir, "histograms.csv"), newline="") as fh:
        for h in csv.DictReader(fh):
            key = (h["agent"], h["function"], int(h["seed"]))
            stage = hists.setdefault(key, {}).setdefault(int(h["stage"]), {})
            stage[int(h["bin_index"])] = int(h["count"])
    records = []
    for row in rows:
        key = (row["agent"], row["function"], int(row["seed"]))
        stages = hists.get(key, {})
        records.append({
            "agent": row["agent"],
            "function": row["function"],
            "seed": int(row["seed"]),
            "iterations": int(row["iterations"]),
            "expansion_rate": float(row["expansion_rate"]),
            "terminal_states": int(row["terminal_states"]),
            "most_visited_x": float(row["most_visited_x"]),
            "most_visited_value": float(row["most_visited_value"]),
            "best_reward_x": float(row["best_reward_x"]),
            "best_reward_value": float(row["best_reward_value"]),
            "histograms": [
                [counts[i] for i in sorted(counts)] for _, counts in sorted(stages.items())
            ],
        })
    return records


def check_record(rec: dict, maxima: Dict[str, float]) -> List[str]:
    """Problems with one run's record; maxima maps function name to grid_max."""
    who = f"{rec['agent']}/{rec['function']}/{rec['seed']}"
    problems = []
    iters = rec["iterations"]
    want = expected_iterations(rec["agent"])
    if iters != want:
        problems.append(f"{who}: iterations {iters} != {want}")

    hists = rec["histograms"]
    sums = [sum(h) for h in hists]
    marks = [max(1, round(f * iters)) for f in STAGE_FRACTIONS]
    if len(sums) != len(marks):
        problems.append(f"{who}: {len(sums)} stage histograms, want {len(marks)}")
    else:
        nodes = 1 + rec["expansion_rate"] * iters
        if abs(sums[-1] - nodes) > 1e-6:
            problems.append(f"{who}: last histogram holds {sums[-1]} nodes, counters say {nodes}")
        for i, (s, m) in enumerate(zip(sums, marks)):
            if s > 1 + m:
                problems.append(f"{who}: stage {i} holds {s} nodes after {m} iterations")
            if i and s < sums[i - 1]:
                problems.append(f"{who}: stage {i} shrank from {sums[i - 1]} to {s}")
    if rec["terminal_states"] == 0 and rec["expansion_rate"] != 1.0:
        problems.append(f"{who}: no terminal states but expansion rate {rec['expansion_rate']}")

    f = LANDSCAPES[rec["function"]]
    for side in ("most_visited", "best_reward"):
        x, v = rec[f"{side}_x"], rec[f"{side}_value"]
        if not (0.0 < x < 1.0 and (x * GRID).is_integer()):
            problems.append(f"{who}: {side} x {x!r} is not a dyadic midpoint")
            continue
        if abs(v - f(x)) > VALUE_TOL:
            problems.append(f"{who}: {side} value {v!r} != {rec['function']}({x!r}) = {f(x)!r}")
        if v > maxima[rec["function"]] + VALUE_TOL:
            problems.append(f"{who}: {side} value {v!r} above the landscape maximum")
    return problems


def check_batch(records: Sequence[dict], agents: Sequence[str], functions: Sequence[str],
                runs: int) -> List[str]:
    """Problems with a whole grid's records: coverage, per-record checks, f1 robustness."""
    want = sorted((a, f, s) for a in agents for f in functions for s in range(runs))
    got = sorted((r["agent"], r["function"], r["seed"]) for r in records)
    if got != want:
        return [f"grid mismatch: {len(got)} records for {len(want)} expected cells"]
    maxima = {f: grid_max(f) for f in functions}
    problems = [p for r in records for p in check_record(r, maxima)]
    uct_f1 = [r["most_visited_value"] for r in records
              if r["agent"].startswith("uct:") and r["function"] == "f1"]
    if uct_f1 and sum(uct_f1) / len(uct_f1) < UCT_F1_FLOOR:
        problems.append(f"UCT mean most-visited value on f1 is {sum(uct_f1) / len(uct_f1)}")
    return problems
