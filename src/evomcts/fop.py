"""Interval-splitting optimization environment on [0, 1].

A state is a closed interval; its actions split it into evenly spaced
sub-intervals, and an interval narrower than the terminal threshold is a
leaf. Stopping in a state pays a Bernoulli reward with success probability
equal to the landscape value at the interval midpoint. Five fixed test
landscapes are provided, all mapping [0, 1] into [0, 1].
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

MAX_FLOAT = sys.float_info.max
_RANGE_SLACK = 1e-12  # allowed float spill outside [0, 1] before we call it a bug


class FunctionId(enum.Enum):
    """The five test landscapes, constructible from their names f1..f5."""

    F1 = "f1"
    F2 = "f2"
    F3 = "f3"
    F4 = "f4"
    F5 = "f5"


@dataclass(frozen=True, slots=True)
class FopConfig:
    """Environment shape: split arity and the terminal width threshold."""

    branching: int = 2
    threshold: float = 1e-5

    def __post_init__(self):
        if self.branching < 2:
            raise ValueError("branching must be >= 2")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")


@dataclass(frozen=True, slots=True)
class FopState:
    """One sub-interval [a, b] of the unit interval."""

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b <= 1.0):
            raise ValueError(f"need 0 <= a < b <= 1, got [{self.a}, {self.b}]")


ROOT = FopState(0.0, 1.0)


def center(s: FopState) -> float:
    return (s.a + s.b) / 2.0


def is_terminal(s: FopState, cfg: FopConfig) -> bool:
    return (s.b - s.a) < cfg.threshold


def child_bounds(a: float, b: float, i: int, k: int):
    """Bounds of the i-th of k even sub-intervals of [a, b], edges shared."""
    w = b - a
    left = a if i == 0 else a + w * i / k
    right = b if i == k - 1 else a + w * (i + 1) / k
    return left, right


def children(s: FopState, cfg: FopConfig):
    """The branching sub-intervals of s, ordered left to right.

    The search builds only the child it expands (mcts.expand); this is the
    oracle that child is checked against.
    """
    if is_terminal(s, cfg):
        raise ValueError(f"terminal state [{s.a}, {s.b}] has no children")
    k = cfg.branching
    return [FopState(*child_bounds(s.a, s.b, i, k)) for i in range(k)]


# ---------------------------------------------------------------------------
# landscapes

def _f1(x: float) -> float:
    return math.sin(math.pi * x)


def _f2(x: float) -> float:
    return 0.5 * math.sin(13.0 * x) * math.sin(27.0 * x) + 0.5


def _inv_x5(x: float) -> float:
    # 1 / x^5 with underflow and overflow pinned to the largest finite float
    p = x ** 5
    if p <= 0.0:
        return MAX_FLOAT
    r = 1.0 / p
    return r if r < math.inf else MAX_FLOAT


def _f3(x: float) -> float:
    s = 0.5 * abs(math.sin(_inv_x5(x)))
    return (0.5 + s) if x < 0.5 else (7.0 / 20.0 + s)


def _f4(x: float) -> float:
    return 0.5 * x + (-0.7 * x + 1.0) * math.sin(5.0 * math.pi * x) ** 4


def _f5(x: float) -> float:
    return 0.5 * x + (-0.7 * x + 1.0) * math.sin(5.0 * math.pi * x) ** 80


_FORMULAS = {
    FunctionId.F1: _f1,
    FunctionId.F2: _f2,
    FunctionId.F3: _f3,
    FunctionId.F4: _f4,
    FunctionId.F5: _f5,
}


def f_eval(fid: FunctionId, x: float) -> float:
    """Landscape value at x, guaranteed inside [0, 1].

    Values are clamped only when float rounding spills past an endpoint by
    less than 1e-12; anything larger raises, since it would mean the formula
    itself is wrong.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x outside [0, 1]: {x!r}")
    v = _FORMULAS[fid](x)
    if 0.0 <= v <= 1.0:
        return v
    if -_RANGE_SLACK < v < 0.0:
        return 0.0
    if 1.0 < v < 1.0 + _RANGE_SLACK:
        return 1.0
    raise ValueError(f"{fid.value}({x!r}) = {v!r} leaves [0, 1] by more than rounding")


def bernoulli(p: float, rng) -> int:
    return 1 if rng.random() < p else 0


def sample_reward(fid: FunctionId, s: FopState, rng) -> int:
    """0/1 reward for stopping in s: success with probability f(center)."""
    return bernoulli(f_eval(fid, center(s)), rng)


def global_optimum(fid: FunctionId, resolution: float = 1e-6):
    """(argmax, max) of the landscape by grid scan plus local refinement.

    Scans a uniform grid at the given resolution (1e-6 or finer), then
    refines around the best cell down to 1e-9 steps. Meant as a slow oracle
    for tests and reporting, not for anything inside the search loop.
    """
    if resolution > 1e-6:
        raise ValueError("resolution must be <= 1e-6")
    f = _FORMULAS[fid]
    n = round(1.0 / resolution)
    best_i, best_v = 0, f(0.0)
    for i in range(1, n + 1):
        v = f(i / n)
        if v > best_v:
            best_i, best_v = i, v
    lo = max(0.0, (best_i - 1) / n)
    hi = min(1.0, (best_i + 1) / n)
    m = max(1, round((hi - lo) / 1e-9))
    best_x = best_i / n  # refinement may only improve on the grid winner
    for i in range(m + 1):
        x = lo + (hi - lo) * i / m
        v = f(x)
        if v > best_v:
            best_x, best_v = x, v
    return best_x, f_eval(fid, best_x)
