"""Differential oracles: pinned output bytes, the node registry against a
walk of the tree, stage snapshots rebuilt by a spy, expand against
children(), and the generated selection step against evaluate().

A pin that changes is a behaviour change, not a test to update in passing.
"""

import hashlib
import os
import random

import pytest

from evomcts import evo, expr, harness, mcts
from evomcts.evo import EvoConfig, fitness_budget
from evomcts.expr import (
    CONST_POOL,
    COUNT_BOUND,
    MAX_DEPTH,
    EvalContext,
    Expr,
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


# sha256 of the bounds (float.hex) of every node of a k = 3 tree, in birth
# order. expand and its oracle children() share child_bounds, so this pin
# is what catches a k = 3 bound that moves.
K3_BOUNDS = "01567aca1135f15a6bcfc8d601cbd541b7e7f00bf83cf2dfe0a469be1e0731e5"


def test_k3_tree_bounds_are_pinned():
    tree = SearchTree(ucb1_seed(0.5), FopConfig(branching=3))
    run_iterations(tree, FunctionId.F5, 1000, random.Random(3))
    text = "".join(f"{n.a.hex()} {n.b.hex()}\n" for n in tree.nodes)
    assert len(tree.nodes) == 1001 and tree.terminal_nodes > 0
    assert hashlib.sha256(text.encode()).hexdigest() == K3_BOUNDS


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
        kid = tree.make_node(state.a, state.b)
        kid.visits = v
        kid.total_reward = rng.random() * v
        node.children.append(kid)
        build_stats_tree(tree, kid, rng, depth_left - 1, scale)


def bound_tree(rng, root_visits, *levels, tie=False):
    """A full binary tree: the root has root_visits, and the two nodes under
    each node of depth d have the visits levels[d]. Q is uniform in [0, 1),
    or 0.5 everywhere with tie, so that equal counts tie."""
    tree = SearchTree(ucb1_seed(CONST_POOL[2]))
    tree.root.visits = root_visits
    frontier = [tree.root]
    for visits in levels:
        below = []
        for node in frontier:
            node.untried_actions = []
            for state, v in zip(children(node.state, tree.cfg), visits):
                kid = tree.make_node(state.a, state.b)
                kid.visits = v
                kid.total_reward = v / 2 if tie else rng.random() * v
                node.children.append(kid)
                below.append(kid)
        frontier = below
    return tree


def product_of_np(d, leaf="Np"):
    """A full tree of * of depth d over Np, or over another leaf tree."""
    return leaf if d == 1 else f"(* {product_of_np(d - 1, leaf)} {product_of_np(d - 1, leaf)})"


NP_POWER = parse_text(product_of_np(MAX_DEPTH))  # Np ** 128
# a live pdiv whose quotient overflows, float Np ** 32 / Q: saturated, the
# difference of two is 0, and unsaturated it would be inf - inf
OVER_Q = Expr("pdiv", children=(parse_text(product_of_np(6, "(pdiv Np 1)")), Expr("Q")))

OVER_NC_Q = Expr("pdiv", children=(parse_text(product_of_np(6, "(pdiv Nc 1)")), Expr("Q")))

# protections that can fire, exact ties, and ints past the float range
EDGE_POLICIES = [
    parse_text("(pdiv Q (- Nc 1))"),
    parse_text("(plog Q)"),
    parse_text("(psqrt (- Q 1))"),
    parse_text("(pdiv Np (plog Np))"),
    parse_text("(- Np Np)"),
    parse_text("(* Nc (pdiv 2 3))"),
    NP_POWER,
    # these two are a level deeper than parse_text takes
    Expr("+", children=(Expr("Q"), NP_POWER)),
    Expr("psqrt", children=(NP_POWER,)),
    # float Np ** 32 overflows for counts past 2**32, below COUNT_BOUND
    parse_text(f"(- {product_of_np(6, '(pdiv Np 1)')} {product_of_np(6, '(pdiv Np 1)')})"),
    # built with Expr: a level deeper than parse_text takes
    Expr("-", children=(OVER_Q, OVER_Q)),
    # P, float Nc ** 32 / Q, overflows at a child past 2**32 but not at its
    # sibling: saturated, P - Q * P is finite there, and unsaturated it
    # would be inf - inf, which two children compare as a tie (built with
    # Expr: two levels deeper than parse_text takes)
    Expr("-", children=(OVER_NC_Q, Expr("*", children=(Expr("Q"), OVER_NC_Q)))),
    # the dividend raises OverflowError for Np > 256 even where Nc - 1 = 0
    # fires the guard (built with Expr: two levels deeper than parse_text takes)
    Expr("pdiv", children=(Expr("+", children=(Expr("Q"), NP_POWER)), parse_text("(- Nc 1)"))),
]


def differential_policies():
    rng = random.Random(2024)
    policies = list(EDGE_POLICIES)
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
    # counts on both sides of COUNT_BOUND: a child past it under a parent at
    # it, a parent past it, a level past it below one at it, and every count
    # exactly at it and just past it, where every level ties
    b = COUNT_BOUND
    trees += [
        bound_tree(rng, b, (b + 1, 3), (5, 7)),
        bound_tree(rng, b + 1, (5, 7), (2, 3)),
        bound_tree(rng, b, (b, b), (b + 1, 2)),
        bound_tree(rng, b, (b, b), (b, b), tie=True),
        bound_tree(rng, b + 1, (b + 1, b + 1), (b + 1, b + 1), tie=True),
    ]
    # every child at Nc = 1 under a parent past 256 visits: a pdiv by
    # Nc - 1 fires its guard at every child while Np ** 128 overflows
    trees.append(bound_tree(rng, 1000, (1, 1)))
    # a child without visits: both sides raise ZeroDivisionError
    tree = SearchTree(ucb1_seed(CONST_POOL[2]))
    tree.root.visits = 1
    tree.root.untried_actions = []
    for state, v in zip(children(tree.root.state, tree.cfg), (1, 0)):
        kid = tree.make_node(state.a, state.b)
        kid.visits = kid.total_reward = v
        tree.root.children.append(kid)
    trees.append(tree)
    return trees


def past_bound(levels):
    """Whether the parent or a child of some node in levels has more than
    COUNT_BOUND visits."""
    return any(max([n.visits] + [k.visits for k in n.children]) > COUNT_BOUND for n in levels)


def test_generated_select_matches_evaluate(monkeypatch):
    trees = differential_trees()
    interpreted = [0]
    real_eval = expr._eval

    def counting_eval(*args):
        interpreted[0] += 1
        return real_eval(*args)

    def generated_select(tree, rng):
        # set_policy has generated the select, so only the interpreter that
        # takes over past COUNT_BOUND calls _eval
        with monkeypatch.context() as m:
            m.setattr(expr, "_eval", counting_eval)
            return mcts.select(tree, rng)

    checked = raised = tied = partial = bound_tests = 0
    for i, policy in enumerate(differential_policies()):
        ran, tested = set(), False
        for tree in trees:
            tree.set_policy(policy)
            bound_test = COUNT_BOUND in tree._select.__code__.co_consts
            tested |= bound_test
            for seed in (i, i + 10_000):
                want = outcome(reference_select, tree, seed)
                interpreted[0] = 0
                got = outcome(generated_select, tree, seed)
                assert got == want, (str(policy), tree.cfg, seed)
                checked += 1
                raised += isinstance(got[0], type)
                tied += got[1] != random.Random(seed).getstate()
                if tree.cfg.branching == 4 and not isinstance(got[0], type):
                    partial += partial_ties(tree, got[0])
                # the interpreter runs from the first level past the bound,
                # and only with a bound test; a call that raised ran at
                # least the root's level
                if isinstance(got[0], type):
                    expected = bound_test and past_bound([tree.root])
                    assert expected <= bool(interpreted[0]) <= bound_test, str(policy)
                else:
                    expected = bound_test and past_bound(got[0][:-1])
                    assert bool(interpreted[0]) == expected, (str(policy), tree.cfg, seed)
                if interpreted[0]:
                    ran.add("interpreter")
                if not past_bound([tree.root]):
                    ran.add("generated")
        if tested:
            bound_tests += 1
            assert ran == {"generated", "interpreter"}, str(policy)
    # the comparison saw exceptions and tie draws, not only clean argmaxes,
    # among four children ties of two or three at the top, and policies
    # whose select hands over to the interpreter
    assert checked > 12_000 and raised > 0 and tied > 0 and partial > 0
    assert bound_tests > 100


def test_pdiv_dividend_raises_on_both_sides_when_the_guard_fires():
    # Q + Np ** 128 overflows at Np = 1000, and every child's Nc - 1 is 0:
    # the reference computes the dividend before it tests the divisor
    tree = bound_tree(random.Random(5), 1000, (1, 1))
    tree.set_policy(EDGE_POLICIES[-1])
    assert outcome(reference_select, tree, 0)[0] is OverflowError
    assert outcome(mcts.select, tree, 0)[0] is OverflowError


def test_interpreter_takes_over_past_the_bound(monkeypatch):
    # Nc + Q overflows only for counts past 2**53: the select has a bound test
    policy = parse_text("(plog (+ Nc Q))")
    b = COUNT_BOUND
    rng = random.Random(3)
    at = bound_tree(rng, b, (b, b), (b, b), (b, b), tie=True)
    past = bound_tree(rng, b, (b, b), (b + 1, 2), (3, 5))
    for tree in at, past:
        tree.set_policy(policy)
        assert COUNT_BOUND in tree._select.__code__.co_consts
    scored = []
    real_eval = expr._eval

    def counting_eval(e, q, np, nc):
        scored.append(nc)
        return real_eval(e, q, np, nc)

    monkeypatch.setattr(expr, "_eval", counting_eval)
    assert len(mcts.select(at, random.Random(0))) == 4
    assert scored == []
    # the second level has a child past the bound under a parent at it: the
    # interpreter scores it and the third level, and nothing of the first
    assert len(mcts.select(past, random.Random(0))) == 4
    assert set(scored) == {b + 1, 2, 3, 5}
