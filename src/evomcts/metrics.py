"""Per-run measurements and cross-run summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .mcts import SearchTree

STAGE_FRACTIONS = (1.0 / 3.0, 2.0 / 3.0, 1.0)
STAGE_LABELS = (33, 66, 100)

# RunRecord fields summarize() aggregates over
SCALAR_METRICS = (
    "expansion_rate",
    "terminal_states",
    "most_visited_x",
    "most_visited_value",
    "best_reward_x",
    "best_reward_value",
)


def expansion_rate(tree: SearchTree) -> float:
    """Fraction of iterations that added a node (the rest hit terminals)."""
    if tree.iterations_done == 0:
        raise ValueError("no iterations recorded")
    return tree.expansions_done / tree.iterations_done


def terminal_states_reached(tree: SearchTree) -> int:
    """Number of tree nodes whose interval is terminal.

    Counted as nodes are born: a node counts once make_node has made it.
    """
    return tree.terminal_nodes


def histogram(tree: SearchTree, bins: int, at: Optional[int] = None) -> List[int]:
    """Node midpoints bucketed into even bins over [0, 1].

    Bin i covers [i/bins, (i+1)/bins), except the last which also takes 1.0.
    With at given, only nodes born by iteration at are counted: the tree as
    it stood after that iteration. A node counts once make_node has made
    it; the pass is over tree.nodes, not a walk of the tree.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    counts = [0] * bins
    for node in tree.nodes:
        if at is not None and node.born > at:
            continue
        i = int((node.a + node.b) / 2.0 * bins)
        if i == bins:
            i -= 1
        counts[i] += 1
    return counts


def stage_marks(total: int) -> List[int]:
    """Iteration counts at which stage snapshots fire (nearest, at least 1)."""
    if total < 1:
        raise ValueError("total iterations must be >= 1")
    return [max(1, round(f * total)) for f in STAGE_FRACTIONS]


class StageTracker:
    """Node-center histograms at each stage mark, read from a finished tree.

    Nodes are never removed and each records the iteration that expanded
    it, so one call after the run rebuilds every stage; .histograms then
    holds one count vector per stage.
    """

    def __init__(self, total: int, bins: int):
        self.marks = stage_marks(total)
        self.bins = bins
        self.histograms: List[List[int]] = []

    def __call__(self, tree: SearchTree):
        self.histograms = [histogram(tree, self.bins, m) for m in self.marks]


@dataclass(frozen=True)
class RunRecord:
    """Everything measured from a single seeded run."""

    agent: str
    function: str
    seed: int
    expansion_rate: float
    terminal_states: int
    most_visited_x: float
    most_visited_value: float
    best_reward_x: float
    best_reward_value: float
    iterations: int
    fitness_iterations: int
    evolved_policy: str  # prefix text, empty for fixed-policy agents
    histograms: Tuple[Tuple[int, ...], ...]  # one vector per stage


@dataclass(frozen=True)
class SummaryRow:
    """Mean and population standard deviation of one metric for one cell."""

    agent: str
    function: str
    metric: str
    mean: float
    std: float
    n: int


def summarize(records: Sequence[RunRecord]) -> List[SummaryRow]:
    """Aggregate per (agent, function) cell, one row per scalar metric."""
    import statistics  # here: the program's set-up need not load it

    if not records:
        raise ValueError("no records to summarize")
    groups: Dict[Tuple[str, str], List[RunRecord]] = {}
    for r in records:
        groups.setdefault((r.agent, r.function), []).append(r)
    rows = []
    for (agent, function) in sorted(groups):
        cell = groups[(agent, function)]
        for metric in SCALAR_METRICS:
            values = [float(getattr(r, metric)) for r in cell]
            rows.append(
                SummaryRow(
                    agent,
                    function,
                    metric,
                    statistics.fmean(values),
                    statistics.pstdev(values),
                    len(values),
                )
            )
    return rows
