"""Online (1, lambda) policy evolution, semantic selection, budget identities."""

import logging
import math
import random

import pytest

from evomcts.expr import MAX_DEPTH, Expr, depth, ucb1_seed
from evomcts.evo import (
    EvaluatedPolicy,
    EvoConfig,
    evolve_policy,
    fitness_budget,
    fitness_eval,
    plain_select,
    semantic_select,
    ssd,
    ssi,
)
from evomcts.fop import FunctionId
from evomcts.mcts import SearchTree, run_iterations

F1 = FunctionId.F1


def warm_tree(seed=0, fid=F1):
    """Tree with every root child expanded, as evolution requires."""
    tree = SearchTree(ucb1_seed(math.sqrt(2.0)))
    rng = random.Random(seed)
    run_iterations(tree, fid, tree.cfg.branching, rng)
    assert tree.root.untried_actions == []
    return tree, rng


def cand(fitness, semantics):
    return EvaluatedPolicy(Expr("Q"), fitness, tuple(semantics))


# ---------------------------------------------------------------------------
# configuration

def test_config_defaults_give_2430():
    assert fitness_budget(EvoConfig()) == 2430


def test_config_budget_formula():
    cfg = EvoConfig(generations=2, offspring=3, fitness_iters=10)
    assert fitness_budget(cfg) == 10 * (1 + 2 * 3)


def test_config_validation():
    with pytest.raises(ValueError):
        EvoConfig(alpha=10.0, beta=10.0)
    with pytest.raises(ValueError):
        EvoConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        EvoConfig(fallback="greedy")
    with pytest.raises(ValueError):
        EvoConfig(fitness_iters=0)
    with pytest.raises(ValueError):
        EvoConfig(generations=-1)
    with pytest.raises(ValueError):
        EvoConfig(offspring=0)


# ---------------------------------------------------------------------------
# fitness evaluation

def test_fitness_eval_shape_and_mean():
    tree, rng = warm_tree()
    before = tree.iterations_done
    out = fitness_eval(ucb1_seed(1.0), tree, F1, 30, rng)
    assert len(out.semantics) == 30
    assert set(out.semantics) <= {0, 1}
    assert out.fitness == sum(out.semantics) / 30
    assert tree.iterations_done == before + 30
    assert tree.policy == ucb1_seed(1.0)


def test_fitness_eval_rejects_zero_iters():
    tree, rng = warm_tree()
    with pytest.raises(ValueError):
        fitness_eval(ucb1_seed(1.0), tree, F1, 0, rng)


def test_fitness_eval_forwards_stage_hooks():
    tree, rng = warm_tree()
    calls = []
    fitness_eval(ucb1_seed(1.0), tree, F1, 5, rng, lambda t: calls.append(1))
    assert len(calls) == 5


def test_f1_fitness_is_high():
    # rollouts over the arch land on good values often; crude sanity bound
    tree, rng = warm_tree(seed=3)
    out = fitness_eval(ucb1_seed(math.sqrt(2.0)), tree, F1, 60, rng)
    assert out.fitness > 0.3


# ---------------------------------------------------------------------------
# distances

def test_ssd_known_values():
    assert ssd([1, 2, 3], [1, 2, 3]) == 0.0
    assert ssd([0, 0], [10, 20]) == 15.0
    assert ssd([0.0, 1.0], [1.0, 0.0]) == 1.0


def test_ssd_symmetry_and_nonnegativity():
    rng = random.Random(40)
    for _ in range(100):
        n = rng.randrange(1, 40)
        p = [rng.random() for _ in range(n)]
        q = [rng.random() for _ in range(n)]
        assert ssd(p, q) == ssd(q, p) >= 0.0


def test_ssd_errors():
    with pytest.raises(ValueError):
        ssd([1, 2], [1])
    with pytest.raises(ValueError):
        ssd([], [])


def test_ssi_window_is_strict():
    assert ssi([7.0], [0.0], 5.0, 10.0) is True
    assert ssi([5.0], [0.0], 5.0, 10.0) is False
    assert ssi([10.0], [0.0], 5.0, 10.0) is False
    assert ssi([0.3], [0.0], 5.0, 10.0) is False
    assert ssi([0.0], [0.0], 5.0, 10.0) is False


def test_ssi_never_fires_on_binary_semantics_with_default_window():
    rng = random.Random(41)
    for _ in range(500):
        p = [rng.randrange(2) for _ in range(30)]
        q = [rng.randrange(2) for _ in range(30)]
        assert ssi(p, q, 5.0, 10.0) is False


# ---------------------------------------------------------------------------
# parent selection

def test_plain_select_takes_the_best():
    offspring = [cand(0.2, [0]), cand(0.9, [1]), cand(0.5, [0]), cand(0.1, [0])]
    assert plain_select(offspring, random.Random(0)) is offspring[1]


def test_plain_select_breaks_ties_uniformly():
    offspring = [cand(0.2, [0]), cand(0.9, [1]), cand(0.9, [1]), cand(0.1, [0])]
    picks = [0, 0]
    for i in range(2000):
        got = plain_select(offspring, random.Random(i))
        assert got in (offspring[1], offspring[2])
        picks[got is offspring[2]] += 1
    assert abs(picks[0] / 2000 - 0.5) <= 0.05


def test_plain_select_single_and_empty():
    only = cand(0.4, [1])
    assert plain_select([only], random.Random(0)) is only
    with pytest.raises(ValueError):
        plain_select([], random.Random(0))


def test_semantic_select_takes_closest_to_alpha():
    parent = cand(0.5, [0.0] * 10)
    o1 = cand(1.0, [6.0] * 10)  # ssd 6, inside (5, 10)
    o2 = cand(1.0, [9.0] * 10)  # ssd 9, inside but further from alpha
    got = semantic_select([o1, o2], parent, 5.0, 10.0, random.Random(0))
    assert got is o1


def test_semantic_select_window_is_strict_at_alpha():
    parent = cand(0.5, [0.0] * 10)
    on_edge = cand(1.0, [5.0] * 10)  # ssd exactly 5: excluded
    inside = cand(1.0, [8.0] * 10)
    got = semantic_select([on_edge, inside], parent, 5.0, 10.0, random.Random(0))
    assert got is inside


def test_semantic_select_considers_all_offspring_distances():
    # the tied pair misses the window but a lower-fitness sibling is inside;
    # the distance set spans the whole brood, so that sibling wins
    parent = cand(0.5, [0.0] * 10)
    t1 = cand(1.0, [0.2] * 10)
    t2 = cand(1.0, [0.4] * 10)
    low = cand(0.3, [7.0] * 10)
    got = semantic_select([t1, t2, low], parent, 5.0, 10.0, random.Random(0))
    assert got is low


def test_semantic_select_tie_without_window_falls_back_uniform():
    parent = cand(0.5, [0.0] * 4)
    t1 = cand(1.0, [0.2] * 4)
    t2 = cand(1.0, [0.4] * 4)
    seen = set()
    for i in range(200):
        seen.add(id(semantic_select([t1, t2], parent, 5.0, 10.0, random.Random(i))))
    assert seen == {id(t1), id(t2)}


def test_semantic_select_no_tie_random_fallback_is_uniform():
    parent = cand(0.9, [1.0] * 4)
    brood = [cand(f, [f] * 4) for f in (0.1, 0.2, 0.3, 0.4)]
    counts = [0, 0, 0, 0]
    n = 4000
    for i in range(n):
        got = semantic_select(brood, parent, 5.0, 10.0, random.Random(i))
        counts[brood.index(got)] += 1
    for c in counts:
        assert abs(c / n - 0.25) <= 0.05


def test_semantic_select_no_tie_best_fallback():
    parent = cand(0.9, [1.0] * 4)
    brood = [cand(f, [f] * 4) for f in (0.1, 0.4, 0.3, 0.2)]
    for i in range(50):
        got = semantic_select(brood, parent, 5.0, 10.0, random.Random(i), fallback="best")
        assert got is brood[1]


def test_semantic_select_rejects_unknown_fallback():
    with pytest.raises(ValueError):
        semantic_select([cand(1.0, [1])], cand(0.0, [0]), 5.0, 10.0, random.Random(0), fallback="x")
    with pytest.raises(ValueError):
        semantic_select([], cand(0.0, [0]), 5.0, 10.0, random.Random(0))


def test_selection_is_comma_only():
    # the parent never survives, even when it beats every offspring
    parent = cand(1.0, [1.0] * 4)
    brood = [cand(0.0, [0.0] * 4), cand(0.1, [0.0] * 4)]
    for i in range(100):
        assert plain_select(brood, random.Random(i)) in brood
        assert semantic_select(brood, parent, 5.0, 10.0, random.Random(i)) in brood


# ---------------------------------------------------------------------------
# the evolution loop

def test_evolve_requires_expanded_root():
    tree = SearchTree(ucb1_seed(math.sqrt(2.0)))
    with pytest.raises(ValueError):
        evolve_policy(tree, F1, EvoConfig(), random.Random(0))


def test_evolve_consumes_exactly_the_default_budget():
    tree, rng = warm_tree(seed=5)
    before = tree.iterations_done
    evolve_policy(tree, F1, EvoConfig(), rng)
    assert tree.iterations_done - before == 2430


def test_evolve_zero_generations_returns_the_seed():
    tree, rng = warm_tree(seed=6)
    cfg = EvoConfig(generations=0, fitness_iters=3)
    before = tree.iterations_done
    out = evolve_policy(tree, F1, cfg, rng)
    assert out == ucb1_seed(cfg.c_init)
    assert tree.iterations_done - before == 3


def test_evolve_installs_what_it_returns():
    tree, rng = warm_tree(seed=7)
    cfg = EvoConfig(generations=3, offspring=2, fitness_iters=4)
    out = evolve_policy(tree, F1, cfg, rng)
    assert tree.policy == out
    assert depth(out) <= MAX_DEPTH


def test_evolve_counts_policy_evaluations():
    tree, rng = warm_tree(seed=8)
    cfg = EvoConfig(generations=3, offspring=2, fitness_iters=4)
    installs = []
    original = tree.set_policy
    tree.set_policy = lambda e: (installs.append(e), original(e))[1]
    before = tree.iterations_done
    evolve_policy(tree, F1, cfg, rng)
    # 1 parent + 6 offspring evaluations + the final install
    assert len(installs) == 8
    assert tree.iterations_done - before == 4 * (1 + 3 * 2)


def test_evolve_semantic_runs_and_respects_budget():
    tree, rng = warm_tree(seed=9)
    cfg = EvoConfig(generations=4, offspring=3, fitness_iters=5)
    before = tree.iterations_done
    out = evolve_policy(tree, F1, cfg, rng, semantic=True)
    assert tree.iterations_done - before == 5 * (1 + 4 * 3)
    assert depth(out) <= MAX_DEPTH


def test_evolve_is_deterministic_per_seed():
    def one(seed):
        tree, rng = warm_tree(seed=seed)
        return evolve_policy(tree, F1, EvoConfig(generations=4, fitness_iters=5), rng)

    assert one(11) == one(11)


# ---------------------------------------------------------------------------
# degeneracy reporting

def test_no_degeneracy_warning_below_one_or_plain(caplog):
    with caplog.at_level(logging.DEBUG, logger="evomcts.evo"):
        tree, rng = warm_tree(seed=14)
        evolve_policy(tree, F1, EvoConfig(generations=0, fitness_iters=2, alpha=0.2, beta=0.8), rng, semantic=True)
        tree, rng = warm_tree(seed=15)
        evolve_policy(tree, F1, EvoConfig(generations=0, fitness_iters=2), rng, semantic=False)
    assert not [r for r in caplog.records if "can never trigger" in r.message]


def test_semantic_miss_logged_at_debug(caplog):
    parent = cand(0.5, [0.0] * 4)
    t1 = cand(1.0, [1.0] * 4)
    t2 = cand(1.0, [1.0] * 4)
    with caplog.at_level(logging.DEBUG, logger="evomcts.evo"):
        semantic_select([t1, t2], parent, 5.0, 10.0, random.Random(0))
    assert any("semantic window" in r.message for r in caplog.records)
