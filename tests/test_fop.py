"""Interval environment: landscapes, partitioning, terminals, rewards."""

import math
import random

import numpy as np
import pytest

from evomcts.fop import (
    MAX_FLOAT,
    ROOT,
    FopConfig,
    FopState,
    FunctionId,
    bernoulli,
    center,
    child_bounds,
    children,
    f_eval,
    global_optimum,
    is_terminal,
)
from evomcts.mcts import rollout

CFG = FopConfig()


def np_landscape(fid, x):
    """Vectorized transcription of the five formulas, kept separate from the
    package implementation so the two can cross-check each other."""
    if fid is FunctionId.F1:
        return np.sin(np.pi * x)
    if fid is FunctionId.F2:
        return 0.5 * np.sin(13.0 * x) * np.sin(27.0 * x) + 0.5
    if fid is FunctionId.F3:
        with np.errstate(divide="ignore", over="ignore"):
            r = 1.0 / np.power(x, 5)
        r = np.where(np.isfinite(r), r, MAX_FLOAT)
        return np.where(x < 0.5, 0.5, 7.0 / 20.0) + 0.5 * np.abs(np.sin(r))
    if fid is FunctionId.F4:
        return 0.5 * x + (-0.7 * x + 1.0) * np.sin(5.0 * np.pi * x) ** 4
    return 0.5 * x + (-0.7 * x + 1.0) * np.sin(5.0 * np.pi * x) ** 80


# ---------------------------------------------------------------------------
# landscape values

def test_known_values():
    assert f_eval(FunctionId.F1, 0.5) == 1.0
    assert f_eval(FunctionId.F1, 0.0) == 0.0
    assert f_eval(FunctionId.F2, 0.0) == 0.5
    assert abs(f_eval(FunctionId.F4, 0.1) - 0.98) < 1e-12
    assert abs(f_eval(FunctionId.F5, 0.1) - 0.98) < 1e-12


def test_f3_branch_offsets():
    # away from 0 the raw 1/x^5 path is exact, so the offsets are visible
    for x in [0.2, 0.3, 0.45, 0.4999]:
        want = 0.5 + 0.5 * abs(math.sin(1.0 / x ** 5))
        assert abs(f_eval(FunctionId.F3, x) - want) < 1e-12
    for x in [0.5, 0.51, 0.7, 1.0]:
        want = 7.0 / 20.0 + 0.5 * abs(math.sin(1.0 / x ** 5))
        assert abs(f_eval(FunctionId.F3, x) - want) < 1e-12


def test_f3_jump_at_half_is_015():
    # matched |sin| arguments either side of the split differ by the offsets
    assert (0.5 + 0.5 * 0.25) - (7.0 / 20.0 + 0.5 * 0.25) == pytest.approx(0.15)


def test_f3_is_defined_at_zero():
    v = f_eval(FunctionId.F3, 0.0)
    assert 0.5 <= v <= 1.0
    assert math.isfinite(v)


def test_f3_survives_the_underflow_band():
    # x^5 underflows to subnormals/zero near 1e-65; values must stay legal
    for x in [1e-70, 1e-65, 1e-64, 1e-10, 1e-3]:
        v = f_eval(FunctionId.F3, x)
        assert 0.0 <= v <= 1.0


@pytest.mark.parametrize("fid", list(FunctionId))
def test_matches_independent_transcription(fid):
    lo = 0.0
    if fid is FunctionId.F3:
        # below x=0.1 a one-ulp gap between x**5 and np.power(x, 5) is
        # amplified by d/dr sin(r) at r = 1/x^5 > 1e5 into visible noise,
        # so the cross-check only makes sense on the tame part
        lo = 0.1
    xs = np.linspace(lo, 1.0, 10_001)
    want = np_landscape(fid, xs)
    got = np.array([f_eval(fid, float(x)) for x in xs])
    # clamping can only move a value by < 1e-12, so the gap stays tiny
    assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize("fid", list(FunctionId))
def test_range_on_million_point_grid(fid):
    n = 1_000_000
    for i in range(n + 1):
        v = f_eval(fid, i / n)
        assert 0.0 <= v <= 1.0


@pytest.mark.parametrize("x", [-0.1, 1.0000001, 2.0, -1e-9, float("nan")])
def test_domain_violations_raise(x):
    with pytest.raises(ValueError):
        f_eval(FunctionId.F1, x)


def test_function_id_parsing():
    assert FunctionId("f1") is FunctionId.F1
    assert FunctionId("f5") is FunctionId.F5
    assert len(FunctionId) == 5
    with pytest.raises(ValueError):
        FunctionId("f6")


# ---------------------------------------------------------------------------
# states and partitioning

def test_state_validation():
    FopState(0.0, 1.0)
    FopState(0.5, 0.500001)
    for a, b in [(0.5, 0.5), (0.6, 0.5), (-0.1, 0.5), (0.5, 1.1)]:
        with pytest.raises(ValueError):
            FopState(a, b)


def test_center_values():
    assert center(ROOT) == 0.5
    assert center(FopState(0.5, 0.75)) == 0.625


def test_root_children():
    kids = children(ROOT, CFG)
    assert kids == [FopState(0.0, 0.5), FopState(0.5, 1.0)]
    assert children(FopState(0.5, 1.0), CFG) == [FopState(0.5, 0.75), FopState(0.75, 1.0)]


def test_children_share_edges_and_cover_parent():
    rng = random.Random(31)
    s = ROOT
    for _ in range(17):
        kids = children(s, CFG)
        assert kids[0].a == s.a
        assert kids[-1].b == s.b
        assert kids[0].b == kids[1].a
        s = kids[rng.randrange(2)]


def test_widths_halve_exactly_at_every_depth():
    rng = random.Random(32)
    for d in range(17):
        w = 2.0 ** -d
        k = rng.randrange(2 ** d)
        s = FopState(k * w, (k + 1) * w)
        for kid in children(s, CFG):
            assert kid.b - kid.a == w / 2.0


def test_terminal_threshold_boundaries():
    assert not is_terminal(ROOT, CFG)
    assert is_terminal(FopState(0.0, 2.0 ** -17), CFG)
    assert not is_terminal(FopState(0.0, 2.0 ** -16), CFG)


def test_descents_terminate_at_depth_17():
    rng = random.Random(33)
    for _ in range(100):
        s, d = ROOT, 0
        while not is_terminal(s, CFG):
            s = children(s, CFG)[rng.randrange(2)]
            d += 1
        assert d == 17
        assert s.b - s.a == 2.0 ** -17


def test_children_of_terminal_raise():
    with pytest.raises(ValueError):
        children(FopState(0.0, 2.0 ** -17), CFG)


def test_child_bounds_general_arity():
    assert child_bounds(0.0, 1.0, 0, 4) == (0.0, 0.25)
    assert child_bounds(0.0, 1.0, 3, 4) == (0.75, 1.0)
    mid = child_bounds(0.0, 1.0, 1, 3)
    assert mid[0] == pytest.approx(1.0 / 3.0)
    assert mid[1] == pytest.approx(2.0 / 3.0)


def test_config_validation():
    with pytest.raises(ValueError):
        FopConfig(branching=1)
    with pytest.raises(ValueError):
        FopConfig(threshold=0.0)
    with pytest.raises(ValueError):
        FopConfig(threshold=1.0)


def test_threshold_keeps_binary_bounds_exact():
    # below 2**-50 a binary descent's bounds would run out of float
    # precision; at 2**-50 they are multiples of 2**-51, which floats hold
    with pytest.raises(ValueError):
        FopConfig(threshold=2.0 ** -51)
    assert FopConfig(threshold=2.0 ** -50).threshold == 2.0 ** -50


# ---------------------------------------------------------------------------
# rewards

def test_bernoulli_endpoints():
    rng = random.Random(34)
    assert all(bernoulli(1.0, rng) == 1 for _ in range(200))
    assert all(bernoulli(0.0, rng) == 0 for _ in range(200))


# A rollout from a state that is already terminal descends no level and
# draws only the reward: the reward rule of the search itself.

def test_sample_reward_matches_center_probability():
    # center sits where sin(27x) = 0, so f2 there is 0.5 up to float dust
    c = math.pi / 27.0
    s = FopState(c - 0.01, c + 0.01)
    cfg = FopConfig(threshold=0.05)
    assert is_terminal(s, cfg)
    assert abs(f_eval(FunctionId.F2, center(s)) - 0.5) < 1e-9
    rng = random.Random(35)
    n = 100_000
    mean = sum(rollout(FunctionId.F2, s, rng, cfg) for _ in range(n)) / n
    assert 0.494 <= mean <= 0.506


def test_reward_is_binary():
    s = FopState(0.4, 0.6)  # centered on 0.5, as the root is
    cfg = FopConfig(threshold=0.5)
    assert is_terminal(s, cfg)
    rng = random.Random(36)
    for _ in range(100):
        assert rollout(FunctionId.F3, s, rng, cfg) in (0, 1)


# ---------------------------------------------------------------------------
# the optimum oracle

def test_optimum_f1_is_exact():
    x, v = global_optimum(FunctionId.F1)
    assert x == 0.5
    assert v == 1.0


def test_optimum_regions():
    x2, v2 = global_optimum(FunctionId.F2)
    assert 0.5 < x2 < 1.0
    assert v2 > 0.97
    x3, v3 = global_optimum(FunctionId.F3)
    assert v3 > 0.999
    x4, v4 = global_optimum(FunctionId.F4)
    assert 0.05 < x4 < 0.2
    assert abs(v4 - 0.98) < 0.005
    x5, v5 = global_optimum(FunctionId.F5)
    assert 0.05 < x5 < 0.2
    assert abs(v5 - 0.98) < 0.005


@pytest.mark.parametrize("fid", list(FunctionId))
def test_optimum_agrees_with_numpy_argmax(fid):
    xs = np.linspace(0.0, 1.0, 2_000_001)
    ys = np_landscape(fid, xs)
    i = int(np.argmax(ys))
    x, v = global_optimum(fid)
    assert v >= float(ys[i]) - 1e-9
    if fid is not FunctionId.F3:  # f3 oscillates too fast for argmax locality
        assert abs(x - float(xs[i])) < 1e-5


def test_optimum_rejects_coarse_resolution():
    with pytest.raises(ValueError):
        global_optimum(FunctionId.F1, resolution=1e-3)
