"""A reference UCT run, written apart from the package, against run_one.

The reference shares only the landscapes (f_eval) and the per-run seed
(derive_seed) with the package. Its nodes are plain lists, an interval is
an integer (depth, index) pair, so its bounds are index / 2**depth exactly,
UCB1 is written out with math.log and math.sqrt, and it has its own
expand, rollout, backpropagation, descents, histograms and terminal count.
It covers binary splitting only.
"""

import dataclasses
import math
import random

import pytest

from evomcts.fop import FopConfig, FunctionId, f_eval
from evomcts.harness import default_config, derive_seed, parse_agent, run_one

C = {"uct:0.5": 0.5, "uct:1": 1.0, "uct:sqrt2": math.sqrt(2.0), "uct:2": 2.0, "uct:3": 3.0}
DEPTH, INDEX, VISITS, TOTAL, KIDS, UNTRIED, BORN = range(7)


def node(depth, index, born, threshold):
    return [depth, index, 0, 0, [], [] if 2.0 ** -depth < threshold else [0, 1], born]


def midpoint(n):
    return (2 * n[INDEX] + 1) / 2.0 ** (n[DEPTH] + 1)


def pick(items, scores, rng):
    # leftmost maximum; an exact tie of several draws one of them
    tied = [x for x, s in zip(items, scores) if s == max(scores)]
    return tied[0] if len(tied) == 1 else tied[rng.randrange(len(tied))]


def reference_run(label, fid, run, iterations, bins, threshold, base_seed=0):
    """run_one's record of a uct:C agent, as a dict of its fields."""
    rng = random.Random(derive_seed(base_seed, label, fid.value, run))
    c = C[label]
    root = node(0, 0, 0, threshold)
    nodes, expansions = [root], 0
    for it in range(iterations):
        path = [root]
        while not path[-1][UNTRIED] and path[-1][KIDS]:
            np, kids = path[-1][VISITS], path[-1][KIDS]
            scores = [k[TOTAL] / k[VISITS] + c * math.sqrt(2.0 * math.log(np) / k[VISITS])
                      for k in kids]
            path.append(pick(kids, scores, rng))
        leaf = path[-1]
        if leaf[UNTRIED]:
            i = leaf[UNTRIED].pop(rng.randrange(len(leaf[UNTRIED])))
            leaf = node(leaf[DEPTH] + 1, 2 * leaf[INDEX] + i, it + 1, threshold)
            path[-1][KIDS].append(leaf)
            path.append(leaf)
            nodes.append(leaf)
            expansions += 1
        depth, index = leaf[DEPTH], leaf[INDEX]
        while 2.0 ** -depth >= threshold:
            depth, index = depth + 1, 2 * index + int(rng.random() * 2)
        x = (2 * index + 1) / 2.0 ** (depth + 1)
        reward = 1 if rng.random() < f_eval(fid, x) else 0
        for n in path:
            n[VISITS] += 1
            n[TOTAL] += reward
    marks = [max(1, round(f * iterations)) for f in (1 / 3, 2 / 3, 1.0)]
    histograms = []
    for m in marks:
        counts = [0] * bins
        for n in nodes:
            if n[BORN] <= m:
                counts[min(int(midpoint(n) * bins), bins - 1)] += 1
        histograms.append(tuple(counts))
    found = []
    for key in (lambda k: k[VISITS], lambda k: k[TOTAL] / k[VISITS]):
        n = root
        while any(k[VISITS] for k in n[KIDS]):
            kids = [k for k in n[KIDS] if k[VISITS] > 0]
            n = pick(kids, [key(k) for k in kids], rng)
        found.append((midpoint(n), f_eval(fid, midpoint(n))))
    return dict(
        agent=label, function=fid.value, seed=run,
        expansion_rate=expansions / iterations,
        terminal_states=sum(2.0 ** -n[DEPTH] < threshold for n in nodes),
        most_visited_x=found[0][0], most_visited_value=found[0][1],
        best_reward_x=found[1][0], best_reward_value=found[1][1],
        iterations=iterations, fitness_iterations=0, evolved_policy="",
        histograms=tuple(histograms),
    )


@pytest.mark.parametrize("threshold", [1e-5, 2.0 ** -9])
def test_run_one_matches_the_reference_uct_run(threshold):
    # with threshold 2**-9 the search reaches terminal intervals
    cfg = default_config(uct_iterations=500, fop=FopConfig(threshold=threshold))
    terminals = 0
    for label in C:
        agent = parse_agent(label)
        for fid in FunctionId:
            for run in (0, 1):
                got = dataclasses.asdict(run_one(cfg, agent, fid, run))
                want = reference_run(label, fid, run, cfg.uct_iterations, cfg.bins, threshold)
                assert got == want, (label, fid, run)
                terminals += want["terminal_states"]
    assert terminals > 0 or threshold < 1e-3
