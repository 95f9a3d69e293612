"""Run measurements, staged histograms, and cross-run aggregation."""

import math
import random
import statistics

import pytest

from evomcts.expr import ucb1_seed
from evomcts.fop import FunctionId
from evomcts.mcts import SearchTree, iter_nodes, run_iterations
from evomcts.metrics import (
    SCALAR_METRICS,
    STAGE_LABELS,
    RunRecord,
    StageTracker,
    SummaryRow,
    expansion_rate,
    histogram,
    stage_marks,
    summarize,
    terminal_states_reached,
)

F1 = FunctionId.F1


def fresh_tree():
    return SearchTree(ucb1_seed(math.sqrt(2.0)))


def rec(agent="a", function="f1", seed=0, **overrides):
    base = dict(
        agent=agent,
        function=function,
        seed=seed,
        expansion_rate=1.0,
        terminal_states=0,
        most_visited_x=0.5,
        most_visited_value=1.0,
        best_reward_x=0.5,
        best_reward_value=1.0,
        iterations=100,
        fitness_iterations=0,
        evolved_policy="",
        histograms=((1,),),
    )
    base.update(overrides)
    return RunRecord(**base)


# ---------------------------------------------------------------------------
# per-tree metrics

def test_expansion_rate_needs_iterations():
    with pytest.raises(ValueError):
        expansion_rate(fresh_tree())


def test_expansion_rate_is_one_without_terminals():
    tree = fresh_tree()
    run_iterations(tree, F1, 500, random.Random(0))
    assert expansion_rate(tree) == 1.0


def test_terminal_states_zero_on_shallow_trees():
    tree = fresh_tree()
    assert terminal_states_reached(tree) == 0
    run_iterations(tree, F1, 50, random.Random(1))
    assert terminal_states_reached(tree) == 0


def test_terminal_states_counts_terminal_nodes():
    tree = fresh_tree()
    node = tree.root
    # graft a terminal node straight under the root; depth is irrelevant here
    term = tree.make_node(0.0, 2.0 ** -17)
    term.visits = 1
    node.children.append(term)
    assert terminal_states_reached(tree) == 1


def test_histogram_root_only():
    counts = histogram(fresh_tree(), bins=100)
    assert len(counts) == 100
    assert counts[50] == 1
    assert sum(counts) == 1


def test_histogram_known_centers():
    tree = fresh_tree()
    run_iterations(tree, F1, 2, random.Random(2))
    # root plus both halves: centers 0.5, 0.25, 0.75
    counts = histogram(tree, bins=100)
    assert counts[25] == 1 and counts[50] == 1 and counts[75] == 1
    assert sum(counts) == 3
    root_only = histogram(tree, bins=100, at=0)
    assert root_only[50] == 1 and sum(root_only) == 1


def test_histogram_sums_match_node_count():
    tree = fresh_tree()
    run_iterations(tree, F1, 200, random.Random(3))
    nodes = sum(1 for _ in iter_nodes(tree))
    assert sum(histogram(tree, bins=100)) == nodes
    assert histogram(tree, bins=1) == [nodes]


def test_histogram_rightmost_bin():
    tree = fresh_tree()
    edge = tree.make_node(0.99, 1.0)  # center 0.995
    tree.root.children.append(edge)
    counts = histogram(tree, bins=100)
    assert counts[99] == 1


def test_histogram_rejects_bad_bins():
    with pytest.raises(ValueError):
        histogram(fresh_tree(), bins=0)


# ---------------------------------------------------------------------------
# stages

def test_stage_marks_values():
    assert stage_marks(10) == [3, 7, 10]
    assert stage_marks(5000) == [1667, 3333, 5000]
    assert stage_marks(7430) == [2477, 4953, 7430]
    assert stage_marks(1) == [1, 1, 1]
    assert stage_marks(2) == [1, 1, 2]


def test_stage_marks_rejects_zero():
    with pytest.raises(ValueError):
        stage_marks(0)


def test_stage_labels_align_with_fractions():
    assert STAGE_LABELS == (33, 66, 100)


def test_tracker_collects_three_snapshots():
    tree = fresh_tree()
    run_iterations(tree, F1, 30, random.Random(4))
    tracker = StageTracker(30, bins=10)
    tracker(tree)
    assert tracker.marks == [10, 20, 30]
    # no terminal is reached this shallow, so each iteration adds one node
    assert [sum(h) for h in tracker.histograms] == [11, 21, 31]
    assert tracker.histograms[2] == histogram(tree, bins=10)


def test_tracker_catches_up_on_colliding_marks():
    tree = fresh_tree()
    run_iterations(tree, F1, 1, random.Random(5))
    tracker = StageTracker(1, bins=10)
    tracker(tree)
    assert tracker.histograms == [histogram(tree, bins=10)] * 3
    assert sum(tracker.histograms[0]) == 2


# ---------------------------------------------------------------------------
# aggregation

def test_summarize_means_and_population_std():
    records = [rec(seed=i, expansion_rate=v) for i, v in enumerate([1.0, 2.0, 3.0])]
    rows = summarize(records)
    row = next(r for r in rows if r.metric == "expansion_rate")
    assert row.mean == 2.0
    assert row.std == statistics.pstdev([1.0, 2.0, 3.0])
    assert row.n == 3


def test_summarize_identical_records_have_zero_std():
    rows = summarize([rec(seed=i) for i in range(5)])
    assert all(r.std == 0.0 for r in rows)
    assert all(r.n == 5 for r in rows)


def test_summarize_row_structure():
    records = [rec(agent=a, function=f, seed=s)
               for a in ("a", "b") for f in ("f1", "f2") for s in range(2)]
    rows = summarize(records)
    assert len(rows) == 2 * 2 * len(SCALAR_METRICS)
    cells = [(r.agent, r.function) for r in rows[:: len(SCALAR_METRICS)]]
    assert cells == sorted(cells)
    assert [r.metric for r in rows[: len(SCALAR_METRICS)]] == list(SCALAR_METRICS)


def test_summarize_is_permutation_invariant():
    records = [rec(seed=i, expansion_rate=0.1 * i) for i in range(10)]
    shuffled = records[::-1]
    assert summarize(records) == summarize(shuffled)


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_scalar_metric_names():
    assert SCALAR_METRICS == (
        "expansion_rate",
        "terminal_states",
        "most_visited_x",
        "most_visited_value",
        "best_reward_x",
        "best_reward_value",
    )


def test_summary_row_is_plain_data():
    row = SummaryRow("a", "f1", "expansion_rate", 1.0, 0.0, 30)
    assert row.agent == "a" and row.n == 30
