"""Differential oracles: pinned output bytes, the node registry against a
walk of the tree, stage snapshots rebuilt by a spy, expand against
children(), and the generated selection step against evaluate().

A pin that changes is a behaviour change, not a test to update in passing.
"""

import hashlib
import os
import random

import pytest

from evomcts import evo, harness, mcts
from evomcts.evo import EvoConfig, fitness_budget
from evomcts.expr import (
    CONST_POOL,
    MAX_DEPTH,
    EvalContext,
    evaluate,
    parse_text,
    random_subtree,
    subtree_mutate,
    ucb1_seed,
)
from evomcts.fop import FopConfig, FunctionId, center, children, is_terminal
from evomcts.harness import default_config, parse_agent, run_batch, run_one
from evomcts.mcts import SearchTree, argmax, iter_nodes, run_iterations
from evomcts.metrics import histogram, stage_marks, terminal_states_reached

# sha256 of the four CSVs for a small grid at full budgets, base seed 0
PINNED = {
    "runs.csv": "b298610ce57f0226015ab24716429b53033f685695cacb93700a22b36eb7d92f",
    "summary.csv": "700082618640439a269ecfecd0c6b56dfaf2ece83fc3894c44a3be7d9d4f5b0e",
    "histograms.csv": "38161bdb3f6ea39ae181256932ac85dc9560ef95c880f1be3efc32ffca8a2215",
    "histograms_mean.csv": "2bdc74c0278e02dc954166e2571192f4cb8344331cca567b042f95954e1a5370",
}


@pytest.mark.parametrize("jobs", [1, 2])
def test_small_grid_digests_are_pinned(tmp_path, jobs):
    cfg = default_config(
        functions=(FunctionId.F2, FunctionId.F5),
        agents=tuple(parse_agent(a) for a in ("uct:sqrt2", "ea:2570", "siea:2570")),
        runs=1,
        out_dir=str(tmp_path),
        jobs=jobs,
    )
    run_batch(cfg)
    digests = {}
    for name in PINNED:
        with open(os.path.join(cfg.out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == PINNED


# ---------------------------------------------------------------------------
# the node registry against a walk of the tree

def walked_histogram(tree, bins, at=None):
    """histogram() by walking the tree's links from the root."""
    counts = [0] * bins
    for node, _ in iter_nodes(tree):
        if at is None or node.born <= at:
            counts[min(int(center(node.state) * bins), bins - 1)] += 1
    return counts


def walked_terminals(tree):
    return sum(is_terminal(node.state, tree.cfg) for node, _ in iter_nodes(tree))


def grown_trees():
    """(tree, iterations) pairs: f1..f5 at c = sqrt2, and f5 at c = 0.5, where
    the search reaches terminal intervals, for branching 2 and 3."""
    rng = random.Random(11)
    grown = []
    for fid in FunctionId:
        tree = SearchTree(ucb1_seed(CONST_POOL[2]))
        run_iterations(tree, fid, 1000, rng)
        grown.append((tree, 1000))
    for k in (2, 3):
        tree = SearchTree(ucb1_seed(0.5), FopConfig(branching=k))
        run_iterations(tree, FunctionId.F5, 1000, rng)
        grown.append((tree, 1000))
    return grown


def test_node_registry_matches_a_walk_of_the_tree():
    terminals = 0
    for tree, total in grown_trees():
        walked = [node for node, _ in iter_nodes(tree)]
        assert sorted(map(id, tree.nodes)) == sorted(map(id, walked))
        for m in stage_marks(total):
            assert histogram(tree, 100, m) == walked_histogram(tree, 100, m)
        assert histogram(tree, 7) == walked_histogram(tree, 7)
        assert terminal_states_reached(tree) == walked_terminals(tree)
        terminals += terminal_states_reached(tree)
    assert terminals > 0


def test_expand_builds_the_child_children_would():
    for tree, _ in grown_trees():
        k = tree.cfg.branching
        for node, _ in iter_nodes(tree):
            if is_terminal(node.state, tree.cfg):
                assert node.children == [] and node.untried_actions == []
                continue
            want = [(c.a.hex(), c.b.hex()) for c in children(node.state, tree.cfg)]
            used = [want.index((kid.state.a.hex(), kid.state.b.hex())) for kid in node.children]
            assert len(set(used)) == len(used)
            assert sorted(used + node.untried_actions) == list(range(k))


# ---------------------------------------------------------------------------
# stage snapshots against a spy

def spy_on_stages(monkeypatch, marks, bins):
    """Run every batch of iterations one at a time, snapshotting the whole
    tree by a walk whenever the iteration count reaches a mark."""
    snapshots = []

    def one_at_a_time(tree, fid, n, rng):
        rewards = []
        for _ in range(n):
            rewards += mcts.run_iterations(tree, fid, 1, rng)
            done = tree.iterations_done
            snapshots.extend(walked_histogram(tree, bins) for m in marks if m == done)
        return rewards

    monkeypatch.setattr(harness, "run_iterations", one_at_a_time)
    monkeypatch.setattr(evo, "run_iterations", one_at_a_time)
    return snapshots


@pytest.mark.parametrize("agent", ["uct:sqrt2", "siea:30"])
def test_stage_snapshots_match_a_per_iteration_spy(monkeypatch, tmp_path, agent):
    # 4 generations of 2 offspring at 10 iterations: 90 fitness iterations,
    # so with siea:30 the first two marks (40, 80) fall inside evolution
    cfg = default_config(
        functions=(FunctionId.F5,),
        agents=(parse_agent(agent),),
        runs=1,
        uct_iterations=300,
        out_dir=str(tmp_path),
        evo=EvoConfig(generations=4, offspring=2, fitness_iters=10),
    )
    spec = cfg.agents[0]
    total = cfg.uct_iterations if spec.kind == "uct" else fitness_budget(cfg.evo) + spec.budget
    plain = run_one(cfg, spec, FunctionId.F5, 0)

    snapshots = spy_on_stages(monkeypatch, stage_marks(total), cfg.bins)
    spied = run_one(cfg, spec, FunctionId.F5, 0)
    # one iteration at a time draws the same RNG stream
    assert spied == plain
    assert len(snapshots) == 3
    assert plain.histograms == tuple(tuple(h) for h in snapshots)


# ---------------------------------------------------------------------------
# the generated select against evaluate()

def reference_select(tree, rng):
    """select() as the argmax of evaluate() over each level's children."""
    node = tree.root
    path = [node]
    while not node.untried_actions and node.children:
        n_parent = node.visits

        def score(k):
            ctx = EvalContext(k.total_reward / k.visits, n_parent, k.visits)
            return evaluate(tree.policy, ctx)

        node = argmax(node.children, score, rng)
        path.append(node)
    return path


def partial_ties(tree, path):
    """Levels of path where more than one child, but not all, tie at the top."""
    n = 0
    for node in path[:-1]:
        scores = [
            evaluate(tree.policy, EvalContext(k.total_reward / k.visits, node.visits, k.visits))
            for k in node.children
        ]
        n += 1 < scores.count(max(scores)) < len(scores)
    return n


def outcome(select_fn, tree, seed):
    """(path or exception type, rng state afterwards) of one select call."""
    rng = random.Random(seed)
    try:
        got = select_fn(tree, rng)
    except (ArithmeticError, ValueError) as e:
        got = type(e)
    return got, rng.getstate()


def build_stats_tree(tree, node, rng, depth_left, scale=1):
    """Criterion 7's random statistics tree: two children per expanded node,
    visits drawn from 1..9999 (times scale) whatever the parent's, Q uniform
    in [0, 1)."""
    if depth_left == 0 or rng.random() < 0.35:
        return
    visits = [v * scale for v in rng.sample(range(1, 10_000), 2)]
    node.untried_actions = []
    for state, v in zip(children(node.state, tree.cfg), visits):
        kid = tree.make_node(state)
        kid.visits = v
        kid.total_reward = rng.random() * v
        node.children.append(kid)
        build_stats_tree(tree, kid, rng, depth_left - 1, scale)


def product_of_np(d):
    """A full tree of * over Np leaves, of depth d."""
    return "Np" if d == 1 else f"(* {product_of_np(d - 1)} {product_of_np(d - 1)})"


# protections that can fire, exact ties, and ints past the float range
EDGE_POLICIES = [
    "(pdiv Q (- Nc 1))",
    "(plog Q)",
    "(psqrt (- Q 1))",
    "(pdiv Np (plog Np))",
    "(- Np Np)",
    "(* Nc (pdiv 2 3))",
    product_of_np(MAX_DEPTH),
    f"(+ Q {product_of_np(MAX_DEPTH)})",
    f"(psqrt {product_of_np(MAX_DEPTH)})",
]


def differential_policies():
    rng = random.Random(2024)
    policies = [parse_text(t) for t in EDGE_POLICIES]
    policies += [random_subtree(MAX_DEPTH, rng) for _ in range(300)]
    for c in CONST_POOL:
        e = ucb1_seed(c)
        policies.append(e)
        for _ in range(30):
            e = subtree_mutate(e, rng)
            policies.append(e)
    return policies


def differential_trees():
    rng = random.Random(7)
    trees = []
    for fid in FunctionId:
        tree = SearchTree(ucb1_seed(CONST_POOL[2]))
        run_iterations(tree, fid, 250, rng)
        trees.append(tree)
    tree = SearchTree(ucb1_seed(CONST_POOL[2]), FopConfig(branching=3))
    run_iterations(tree, FunctionId.F3, 250, rng)
    trees.append(tree)
    # four children: two or three of them can tie at the top, not only all
    for fid in (FunctionId.F1, FunctionId.F4):
        tree = SearchTree(ucb1_seed(CONST_POOL[2]), FopConfig(branching=4))
        run_iterations(tree, fid, 250, rng)
        trees.append(tree)
    # the last two near the top of the count domain, where floats overflow
    for scale in [1] * 6 + [10**296] * 2:
        tree = SearchTree(ucb1_seed(CONST_POOL[2]))
        tree.root.visits = 1
        while not tree.root.children:
            build_stats_tree(tree, tree.root, rng, 6, scale)
        trees.append(tree)
    # a child without visits: both sides raise ZeroDivisionError
    tree = SearchTree(ucb1_seed(CONST_POOL[2]))
    tree.root.visits = 1
    tree.root.untried_actions = []
    for state, v in zip(children(tree.root.state, tree.cfg), (1, 0)):
        kid = tree.make_node(state)
        kid.visits = kid.total_reward = v
        tree.root.children.append(kid)
    trees.append(tree)
    return trees


def test_generated_select_matches_evaluate():
    trees = differential_trees()
    checked = raised = tied = partial = 0
    for i, policy in enumerate(differential_policies()):
        for tree in trees:
            tree.set_policy(policy)
            for seed in (i, i + 10_000):
                want = outcome(reference_select, tree, seed)
                got = outcome(mcts.select, tree, seed)
                assert got == want, (str(policy), tree.cfg, seed)
                checked += 1
                raised += isinstance(got[0], type)
                tied += got[1] != random.Random(seed).getstate()
                if tree.cfg.branching == 4 and not isinstance(got[0], type):
                    partial += partial_ties(tree, got[0])
    # the comparison saw exceptions and tie draws, not only clean argmaxes,
    # and among four children ties of two or three at the top
    assert checked > 12_000 and raised > 0 and tied > 0 and partial > 0
