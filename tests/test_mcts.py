"""Search loop mechanics: select, expand, rollout, backpropagate, recommend."""

import math
import random

import pytest

from evomcts.expr import EvalContext, Expr, evaluate, parse_text, ucb1_seed
from evomcts.fop import ROOT, FopConfig, FopState, FunctionId, center, children, f_eval
from evomcts.mcts import (
    SearchTree,
    argmax,
    backpropagate,
    dump_tree,
    expand,
    iter_nodes,
    recommend_best_reward,
    recommend_most_visited,
    rollout,
    run_iterations,
    select,
)

SQRT2 = math.sqrt(2.0)
CFG = FopConfig()
TERMINAL = FopState(0.0, 2.0 ** -17)


class CountingRng:
    """random.Random facade that counts uniform draws."""

    def __init__(self, seed):
        self.inner = random.Random(seed)
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.inner.random()

    def randrange(self, n):
        return self.inner.randrange(n)


def make_tree(policy=None):
    return SearchTree(policy if policy is not None else ucb1_seed(SQRT2))


def graft_children(tree, node, stats):
    """Expand node by hand, giving child i the (visits, total_reward) in stats."""
    node.untried_actions = []
    node.children = []
    for state, (v, t) in zip(children(node.state, tree.cfg), stats):
        kid = tree.make_node(state)
        kid.visits = v
        kid.total_reward = t
        node.children.append(kid)


# ---------------------------------------------------------------------------
# selection

def test_select_on_fresh_tree_is_root_only():
    tree = make_tree()
    assert select(tree, random.Random(0)) == [tree.root]


def test_select_prefers_underexplored_child():
    # equal Q, visits (5, 1): the exploration term favors the rare child
    tree = make_tree()
    graft_children(tree, tree.root, [(5, 0), (1, 0)])
    tree.root.visits = 6
    path = select(tree, random.Random(0))
    assert path == [tree.root, tree.root.children[1]]


def test_select_breaks_exact_ties_uniformly():
    tree = make_tree()
    graft_children(tree, tree.root, [(3, 1), (3, 1)])
    tree.root.visits = 6
    n = 10_000
    first = 0
    for i in range(n):
        path = select(tree, random.Random(i))
        first += path[1] is tree.root.children[0]
    assert abs(first / n - 0.5) <= 0.02


def test_select_with_constant_policy_walks_uniformly():
    tree = make_tree(Expr("const", 1.0))
    graft_children(tree, tree.root, [(2, 1), (2, 1)])
    tree.root.visits = 4
    picks = {0: 0, 1: 0}
    for i in range(2000):
        path = select(tree, random.Random(i))
        picks[tree.root.children.index(path[1])] += 1
    assert abs(picks[0] / 2000 - 0.5) <= 0.05


def test_select_is_read_only():
    tree = make_tree()
    graft_children(tree, tree.root, [(5, 2), (1, 1)])
    tree.root.visits = 6
    before = dump_tree(tree)
    select(tree, random.Random(0))
    assert dump_tree(tree) == before


def test_kept_pdiv_scores_one_at_nc_one():
    # child 0 at Nc = 1 divides by zero and scores the guard's 1.0; child 1
    # scores 1.0 / 1.0: only an exact tie makes select draw
    policy = parse_text("(pdiv Q (- Nc 1))")
    assert evaluate(policy, EvalContext(0.0, 3, 1)) == 1.0
    tree = make_tree(policy)
    graft_children(tree, tree.root, [(1, 0), (2, 2)])
    tree.root.visits = 3
    picks = [select(tree, random.Random(i))[1] for i in range(200)]
    assert set(map(id, picks)) == set(map(id, tree.root.children))


# ---------------------------------------------------------------------------
# expansion

def test_expand_moves_one_action_to_children():
    tree = make_tree()
    root = tree.root
    assert len(root.untried_actions) == 2
    kid = expand(tree, root, random.Random(0))
    assert kid is root.children[-1]
    assert len(root.untried_actions) == 1
    assert len(root.children) == 1
    assert tree.expansions_done == 1
    assert kid.visits == 0 and kid.total_reward == 0


def test_expand_exhausts_both_actions():
    tree = make_tree()
    rng = random.Random(1)
    expand(tree, tree.root, rng)
    expand(tree, tree.root, rng)
    assert tree.root.untried_actions == []
    states = sorted((k.state.a, k.state.b) for k in tree.root.children)
    assert states == [(0.0, 0.5), (0.5, 1.0)]


def test_expand_on_terminal_returns_none():
    tree = make_tree()
    node = tree.make_node(TERMINAL)
    assert node.untried_actions == []
    assert expand(tree, node, random.Random(0)) is None
    assert tree.expansions_done == 0


# ---------------------------------------------------------------------------
# rollout

def test_rollout_from_root_spends_17_descent_draws_plus_one():
    rng = CountingRng(2)
    r = rollout(FunctionId.F1, ROOT, rng)
    assert r in (0, 1)
    assert rng.calls == 18


def test_rollout_from_terminal_is_one_reward_draw():
    rng = CountingRng(3)
    assert rollout(FunctionId.F1, TERMINAL, rng) in (0, 1)
    assert rng.calls == 1


def test_rollout_mean_near_the_f1_integral():
    # E[f1(U)] = integral of sin(pi x) = 2/pi
    rng = random.Random(4)
    n = 20_000
    mean = sum(rollout(FunctionId.F1, ROOT, rng) for _ in range(n)) / n
    assert abs(mean - 2.0 / math.pi) <= 0.011  # 3 sigma and a bit


def test_rollout_respects_branching_config():
    cfg = FopConfig(branching=4, threshold=1e-3)
    rng = CountingRng(5)
    rollout(FunctionId.F1, ROOT, rng, cfg)
    # 4-way splits reach width < 1e-3 in 5 steps
    assert rng.calls == 6


# ---------------------------------------------------------------------------
# backpropagation and the full loop

def test_backpropagate_single_node():
    tree = make_tree()
    backpropagate([tree.root], 1)
    assert tree.root.visits == 1
    assert tree.root.total_reward == 1


def test_run_iterations_first_step():
    tree = make_tree()
    rewards = run_iterations(tree, FunctionId.F1, 1, random.Random(6))
    assert len(rewards) == 1 and rewards[0] in (0, 1)
    assert tree.root.visits == 1
    assert tree.iterations_done == 1
    assert tree.expansions_done == 1
    assert len(tree.root.children) == 1


def test_visit_conservation_and_expansion_accounting():
    tree = make_tree(ucb1_seed(0.5))
    n = 400
    run_iterations(tree, FunctionId.F2, n, random.Random(7))
    nodes = [node for node, _ in iter_nodes(tree)]
    assert tree.root.visits == n == tree.iterations_done
    assert tree.expansions_done == len(nodes) - 1
    slack_total = 0
    for node in nodes:
        child_sum = sum(k.visits for k in node.children)
        assert node.visits >= child_sum
        assert 0 <= node.total_reward <= node.visits
        slack_total += node.visits - child_sum
    # every iteration ends its path at exactly one node
    assert slack_total == n


def test_rewards_are_binary_and_counted():
    tree = make_tree()
    rewards = run_iterations(tree, FunctionId.F3, 100, random.Random(8))
    assert len(rewards) == 100
    assert set(rewards) <= {0, 1}
    assert tree.root.total_reward == sum(rewards)


def test_nodes_record_their_birth_iteration():
    tree = make_tree()
    run_iterations(tree, FunctionId.F1, 25, random.Random(9))
    # no terminal is reached this shallow, so every iteration adds one node
    assert sorted(node.born for node, _ in iter_nodes(tree)) == list(range(26))
    for node, _ in iter_nodes(tree):
        assert all(kid.born > node.born for kid in node.children)


def test_identical_seeds_reproduce_the_tree():
    def one(seed):
        tree = make_tree(ucb1_seed(0.5))
        run_iterations(tree, FunctionId.F2, 300, random.Random(seed))
        mv = recommend_most_visited(tree, FunctionId.F2, random.Random(99))
        br = recommend_best_reward(tree, FunctionId.F2, random.Random(99))
        return dump_tree(tree), mv, br

    assert one(42) == one(42)
    assert one(42)[0] != one(43)[0]


# ---------------------------------------------------------------------------
# recommendation policies

def test_argmax_draws_only_on_ties():
    rng = random.Random(5)
    state = rng.getstate()
    assert argmax([3, 1, 2], lambda v: v, rng) == 3
    assert rng.getstate() == state
    picks = {argmax(["a", "b", "c"], len, random.Random(i)) for i in range(50)}
    assert picks == {"a", "b", "c"}


def test_recommend_on_childless_root():
    tree = make_tree()
    x, v = recommend_most_visited(tree, FunctionId.F1, random.Random(0))
    assert x == 0.5
    assert v == 1.0


def test_recommend_single_child():
    tree = make_tree()
    run_iterations(tree, FunctionId.F1, 1, random.Random(10))
    kid = tree.root.children[0]
    x, v = recommend_most_visited(tree, FunctionId.F1, random.Random(0))
    assert x == center(kid.state)
    assert v == f_eval(FunctionId.F1, x)


def test_recommend_skips_unvisited_children():
    tree = make_tree()
    graft_children(tree, tree.root, [(0, 0), (1, 1)])
    tree.root.visits = 1
    rng = random.Random(0)
    x_mv, _ = recommend_most_visited(tree, FunctionId.F1, rng)
    x_br, _ = recommend_best_reward(tree, FunctionId.F1, rng)
    right = center(tree.root.children[1].state)
    assert x_mv == right
    assert x_br == right


def test_recommend_all_children_unvisited_stops_at_parent():
    tree = make_tree()
    graft_children(tree, tree.root, [(0, 0), (0, 0)])
    tree.root.visits = 0
    x, _ = recommend_best_reward(tree, FunctionId.F1, random.Random(0))
    assert x == 0.5


def test_recommenders_follow_their_own_keys():
    # left child: many visits, low reward; right child: few visits, high mean
    tree = make_tree()
    graft_children(tree, tree.root, [(10, 2), (3, 3)])
    tree.root.visits = 13
    rng = random.Random(0)
    x_mv, _ = recommend_most_visited(tree, FunctionId.F1, rng)
    x_br, _ = recommend_best_reward(tree, FunctionId.F1, rng)
    assert x_mv == center(tree.root.children[0].state)
    assert x_br == center(tree.root.children[1].state)


def build_random_stats_tree(tree, node, rng, depth_left):
    """Grow a tie-free statistics tree: distinct visits and distinct means."""
    if depth_left == 0 or rng.random() < 0.3:
        return
    visits = rng.sample(range(1, 1000), 2)
    node.untried_actions = []
    for state, v in zip(children(node.state, tree.cfg), visits):
        kid = tree.make_node(state)
        kid.visits = v
        kid.total_reward = rng.random() * v  # means distinct almost surely
        node.children.append(kid)
        build_random_stats_tree(tree, kid, rng, depth_left - 1)


def oracle_descent(root, key):
    node = root
    while True:
        kids = [k for k in node.children if k.visits > 0]
        if not kids:
            return node
        node = max(kids, key=key)


def test_recommenders_match_bruteforce_oracle():
    rng = random.Random(11)
    for _ in range(50):
        tree = make_tree()
        tree.root.visits = 1
        build_random_stats_tree(tree, tree.root, rng, 5)
        want_mv = oracle_descent(tree.root, lambda k: k.visits)
        want_br = oracle_descent(tree.root, lambda k: k.total_reward / k.visits)
        got_mv = recommend_most_visited(tree, FunctionId.F1, random.Random(0))
        got_br = recommend_best_reward(tree, FunctionId.F1, random.Random(0))
        assert got_mv == (center(want_mv.state), f_eval(FunctionId.F1, center(want_mv.state)))
        assert got_br == (center(want_br.state), f_eval(FunctionId.F1, center(want_br.state)))


# ---------------------------------------------------------------------------
# bookkeeping helpers

def test_iter_nodes_is_preorder_and_complete():
    tree = make_tree()
    run_iterations(tree, FunctionId.F1, 50, random.Random(12))
    pairs = list(iter_nodes(tree))
    assert pairs[0][0] is tree.root and pairs[0][1] == 0
    assert len(pairs) == tree.expansions_done + 1
    for node, d in pairs[1:]:
        assert d >= 1


def test_dump_tree_shape():
    tree = make_tree()
    run_iterations(tree, FunctionId.F1, 10, random.Random(13))
    lines = dump_tree(tree).strip().split("\n")
    assert len(lines) == tree.expansions_done + 1
    assert lines[0] == f"0,0.0,1.0,{tree.root.visits},{tree.root.total_reward}"


def test_set_policy_swaps_behavior():
    tree = make_tree(Expr("Nc"))  # prefer the busier child
    graft_children(tree, tree.root, [(5, 0), (1, 0)])
    tree.root.visits = 6
    assert select(tree, random.Random(0))[1] is tree.root.children[0]
    tree.set_policy(ucb1_seed(SQRT2))  # now the rare child wins
    assert select(tree, random.Random(0))[1] is tree.root.children[1]
