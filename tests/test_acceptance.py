"""End-to-end acceptance checks for the full default comparison grid.

One test per numbered acceptance criterion, each printing a PASS/FAIL line
(run with -s to see the lines for passing tests too). The expensive shared
fixture executes the complete default sweep once (9 agents x 5 landscapes x
30 runs); a second full sweep inside criterion 10, run through the process
pool, verifies that serial and parallel outputs are byte-identical. Expect
this module to take on the order of 15 minutes; deselect it with
`-k "not acceptance"` while iterating on units.

Criteria 2 and 3 encode external reference bands for low exploration
constants that this implementation does not reach (it explores more than
the reference data suggests at c=0.5); they are expected to FAIL and the
failure is documented rather than papered over. See the README.
"""

import logging
import math
import os
import random
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from evomcts.evo import EvoConfig, evolve_policy, ssd, ssi
from evomcts.expr import ucb1_seed
from evomcts.fop import ROOT, FunctionId, center, children, f_eval
from evomcts.harness import default_config, run_batch
from evomcts.mcts import (
    SearchTree,
    recommend_best_reward,
    recommend_most_visited,
    rollout,
    run_iterations,
)

UCT_LABELS = ("uct:0.5", "uct:1", "uct:sqrt2", "uct:2", "uct:3")
EA_LABELS = ("ea:2570", "ea:5000", "siea:2570", "siea:5000")


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    cfg = default_config(out_dir=str(out))
    t0 = time.perf_counter()
    records, summary = run_batch(cfg)
    elapsed = time.perf_counter() - t0
    assert len(records) == 1350
    return SimpleNamespace(cfg=cfg, records=records, summary=summary, elapsed=elapsed)


def cell(records, agent, function):
    got = [r for r in records if r.agent == agent and r.function == function]
    assert len(got) == 30
    return got


def mean(records, field):
    return sum(getattr(r, field) for r in records) / len(records)


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_01_unimodal_uct_table(sweep):
    problems = []
    details = []
    for label in UCT_LABELS:
        runs = cell(sweep.records, label, "f1")
        rate = mean(runs, "expansion_rate")
        terms = sum(r.terminal_states for r in runs)
        mv = mean(runs, "most_visited_value")
        br = mean(runs, "best_reward_value")
        details.append(f"{label} rate={rate:.4f} terms={terms} mv={mv:.4f} br={br:.4f}")
        if abs(rate - 1.0) > 0.005:
            problems.append(f"{label} rate {rate:.4f}")
        if terms != 0:
            problems.append(f"{label} terminals {terms}")
        if abs(mv - 1.0) > 0.02:
            problems.append(f"{label} most-visited {mv:.4f}")
        if abs(br - 1.0) > 0.02:
            problems.append(f"{label} best-reward {br:.4f}")
    report(
        "criterion 1 (f1 UCT rows: rate 1.00+-0.005, 0 terminals, values 1.00+-0.02)",
        not problems,
        "; ".join(problems or details),
    )


def test_criterion_02_multimodal_c3_and_c05(sweep):
    c3 = cell(sweep.records, "uct:3", "f2")
    c05 = cell(sweep.records, "uct:0.5", "f2")
    terms3 = sum(r.terminal_states for r in c3)
    mv3 = mean(c3, "most_visited_value")
    rate05 = mean(c05, "expansion_rate")
    ok = terms3 == 0 and 0.94 <= mv3 <= 1.0 and 0.31 <= rate05 <= 0.71
    report(
        "criterion 2 (f2: c=3 0 terminals and mv 0.97+-0.03; c=0.5 rate 0.51+-0.20)",
        ok,
        f"c=3 terms={terms3} mv={mv3:.4f}; c=0.5 rate={rate05:.4f} (band [0.31, 0.71])",
    )


def test_criterion_03_needle_value_ladder(sweep):
    means = [mean(cell(sweep.records, label, "f5"), "most_visited_value") for label in UCT_LABELS]
    ladder = " -> ".join(f"{v:.4f}" for v in means)
    monotone = all(a <= b + 1e-12 for a, b in zip(means, means[1:]))
    ok = monotone and means[-1] >= 0.90 and means[0] <= 0.90
    report(
        "criterion 3 (f5 most-visited means non-decreasing in c; c=3 >= 0.90; c=0.5 <= 0.90)",
        ok,
        f"{ladder}; monotone={monotone}",
    )


def test_criterion_04_rugged_terminal_counts(sweep):
    problems = []
    for label in ("uct:sqrt2", "uct:2", "uct:3"):
        terms = sum(r.terminal_states for r in cell(sweep.records, label, "f3"))
        if terms != 0:
            problems.append(f"{label} terminals {terms}")
    t05 = mean(cell(sweep.records, "uct:0.5", "f3"), "terminal_states")
    if not 17 <= t05 <= 917:
        problems.append(f"c=0.5 terminal mean {t05:.1f} outside [17, 917]")
    report(
        "criterion 4 (f3: 0 terminals at c in {sqrt2, 2, 3}; c=0.5 mean in 467+-450)",
        not problems,
        "; ".join(problems) or f"c=0.5 terminal mean {t05:.1f}",
    )


def test_criterion_05_fitness_budget_identity(sweep):
    bad = 0
    for label in EA_LABELS:
        budget = int(label.split(":")[1])
        for function in ("f1", "f2", "f3", "f4", "f5"):
            for r in cell(sweep.records, label, function):
                if r.fitness_iterations != 2430 or r.iterations != 2430 + budget:
                    bad += 1
    report(
        "criterion 5 (every EA/SIEA run consumes exactly 2430 fitness iterations)",
        bad == 0,
        f"{bad} of 600 evolved runs broke the budget identity",
    )


def test_criterion_06_evolved_agents_on_unimodal(sweep):
    uct_rate = mean(cell(sweep.records, "uct:sqrt2", "f1"), "expansion_rate")
    problems = []
    details = []
    for label in EA_LABELS:
        runs = cell(sweep.records, label, "f1")
        mv = mean(runs, "most_visited_value")
        rate = mean(runs, "expansion_rate")
        details.append(f"{label} mv={mv:.4f} rate={rate:.4f}")
        if not 0.70 <= mv <= 1.0:
            problems.append(f"{label} most-visited {mv:.4f} outside [0.70, 1.0]")
        if not rate < uct_rate:
            problems.append(f"{label} rate {rate:.4f} not below uct:sqrt2 {uct_rate:.4f}")
    report(
        "criterion 6 (f1 evolved agents: mv in [0.70, 1.0], rates below uct:sqrt2)",
        not problems,
        "; ".join(problems) or f"uct:sqrt2 rate={uct_rate:.4f}; " + "; ".join(details),
    )


def build_stats_tree(tree, node, rng, depth_left):
    if depth_left == 0 or rng.random() < 0.35:
        return
    visits = rng.sample(range(1, 10_000), 2)
    node.untried_actions = []
    for state, v in zip(children(node.state, tree.cfg), visits):
        kid = tree.make_node(state)
        kid.visits = v
        kid.total_reward = rng.random() * v
        node.children.append(kid)
        build_stats_tree(tree, kid, rng, depth_left - 1)


def count_nodes(node):
    return 1 + sum(count_nodes(k) for k in node.children)


def oracle(node, key):
    while True:
        kids = [k for k in node.children if k.visits > 0]
        if not kids:
            return node
        node = max(kids, key=key)


def test_criterion_07_recommendation_matches_bruteforce():
    rng = random.Random(1007)
    fid = FunctionId.F4
    checked = 0
    for _ in range(200):
        tree = SearchTree(ucb1_seed(math.sqrt(2.0)))
        tree.root.visits = 1
        build_stats_tree(tree, tree.root, rng, 5)
        assert count_nodes(tree.root) <= 63
        want_mv = oracle(tree.root, lambda k: k.visits)
        want_br = oracle(tree.root, lambda k: k.total_reward / k.visits)
        got_mv = recommend_most_visited(tree, fid, random.Random(0))
        got_br = recommend_best_reward(tree, fid, random.Random(0))
        ok = got_mv == (center(want_mv.state), f_eval(fid, center(want_mv.state))) and got_br == (
            center(want_br.state),
            f_eval(fid, center(want_br.state)),
        )
        if not ok:
            report("criterion 7 (recommendation equals brute-force descent)", False,
                   f"tree {checked} diverged: mv {got_mv} br {got_br}")
        checked += 1
    report(
        "criterion 7 (recommendation equals brute-force descent on 200 trees <= 63 nodes)",
        checked == 200,
        f"{checked} trees matched exactly",
    )


def test_criterion_08_ssd_axioms_and_ssi_degeneracy(caplog):
    rng = random.Random(1008)
    pairs = 10_000
    for _ in range(pairs):
        n = rng.randrange(1, 31)
        p = [rng.random() * 10 for _ in range(n)]
        q = [rng.random() * 10 for _ in range(n)]
        r = [rng.random() * 10 for _ in range(n)]
        d_pq = ssd(p, q)
        assert d_pq >= 0.0
        assert d_pq == ssd(q, p)
        assert ssd(p, p) == 0.0
        if p != q:
            assert d_pq > 0.0
        assert d_pq <= ssd(p, r) + ssd(r, q) + 1e-12
    # binary rewards keep every distance inside [0, 1]: the (5, 10) window
    # never opens, and the implementation must say so out loud
    for _ in range(2000):
        p = [rng.randrange(2) for _ in range(30)]
        q = [rng.randrange(2) for _ in range(30)]
        assert ssi(p, q, 5.0, 10.0) is False
    with caplog.at_level(logging.DEBUG, logger="evomcts.evo"):
        tree = SearchTree(ucb1_seed(math.sqrt(2.0)))
        run_iterations(tree, FunctionId.F1, 2, random.Random(8))
        evolve_policy(tree, FunctionId.F1, EvoConfig(generations=1, fitness_iters=2),
                      random.Random(8), semantic=True)
    logged = any("can never trigger" in r.message for r in caplog.records)
    report(
        "criterion 8 (ssd axioms on 1e4 pairs; ssi constantly false and logged)",
        logged,
        f"{pairs} axiom pairs ok; degeneracy log {'present' if logged else 'MISSING'}",
    )


def test_criterion_09_rollout_mean_matches_integral():
    rng = random.Random(1009)
    n = 100_000
    mean_reward = sum(rollout(FunctionId.F1, ROOT, rng) for _ in range(n)) / n
    p = 2.0 / math.pi
    bound = 3.0 * math.sqrt(p * (1.0 - p) / n)
    ok = abs(mean_reward - p) <= bound
    report(
        "criterion 9 (f1 rollout mean matches 2/pi within 3 sigma at 1e5 samples)",
        ok,
        f"mean={mean_reward:.5f} target={p:.5f} tolerance={bound:.5f}",
    )


def test_criterion_10_determinism_and_runtime(sweep, tmp_path_factory):
    out2 = tmp_path_factory.mktemp("sweep-again")
    # the repeat goes through the pool: the serial fixture is the reference
    cfg2 = replace(sweep.cfg, out_dir=str(out2), jobs=2)
    run_batch(cfg2)
    diffs = []
    for name in ("runs.csv", "summary.csv", "histograms.csv", "histograms_mean.csv"):
        with open(os.path.join(sweep.cfg.out_dir, name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(str(out2), name), "rb") as fh:
            b = fh.read()
        if a != b:
            diffs.append(name)
    ok = not diffs and sweep.elapsed < 600.0
    report(
        "criterion 10 (parallel repeat byte-identical; serial sweep under ~10 minutes)",
        ok,
        f"diffs={diffs or 'none'}; first sweep took {sweep.elapsed:.0f}s",
    )
