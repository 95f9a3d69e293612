"""Differential oracles: pinned output bytes and stage snapshots rebuilt by a spy.

A pin that changes is a behaviour change, not a test to update in passing.
"""

import hashlib
import os

import pytest

from evomcts import evo, harness, mcts
from evomcts.evo import EvoConfig, fitness_budget
from evomcts.fop import FunctionId
from evomcts.harness import default_config, parse_agent, run_batch, run_one
from evomcts.metrics import histogram, stage_marks

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


def spy_on_stages(monkeypatch, marks, bins):
    """Run every batch of iterations one at a time, snapshotting the whole
    tree whenever the iteration count reaches a mark."""
    snapshots = []

    def one_at_a_time(tree, fid, n, rng):
        rewards = []
        for _ in range(n):
            rewards += mcts.run_iterations(tree, fid, 1, rng)
            snapshots.extend(histogram(tree, bins) for m in marks if m == tree.iterations_done)
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
