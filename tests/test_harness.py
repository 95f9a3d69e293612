"""Batch runner: agent grid, seeding, CSV outputs, CLI behavior."""

import csv
import logging
import math
import os
import pickle

import pytest

from evomcts.evo import EvoConfig, evolve_policy
from evomcts.expr import parse_text, ucb1_seed
from evomcts.fop import FunctionId
from evomcts.harness import (
    DEFAULT_AGENTS,
    DEFAULT_FUNCTIONS,
    MAX_BINS,
    AgentSpec,
    ConfigError,
    RunFailure,
    cli_parse,
    default_config,
    derive_seed,
    main,
    parse_agent,
    run_batch,
    run_one,
    worker_count,
)

F1 = FunctionId.F1

OUT_FILES = ("runs.csv", "summary.csv", "histograms.csv", "histograms_mean.csv", "config.echo")


def tiny_config(tmp_path, **overrides):
    base = dict(
        agents=(parse_agent("uct:1"),),
        functions=(F1,),
        runs=2,
        uct_iterations=120,
        out_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return default_config(**base)


# ---------------------------------------------------------------------------
# agent specs

def test_parse_uct_agents():
    spec = parse_agent("uct:sqrt2")
    assert spec == AgentSpec("uct", "uct:sqrt2", policy=ucb1_seed(math.sqrt(2.0)))
    assert parse_agent("uct:0.5").policy == ucb1_seed(0.5)
    assert parse_agent("uct:3").policy == ucb1_seed(3.0)


def test_parse_ea_agents():
    assert parse_agent("ea:2570") == AgentSpec("ea", "ea:2570", budget=2570)
    assert parse_agent("siea:5000") == AgentSpec("siea", "siea:5000", budget=5000)


@pytest.mark.parametrize(
    "token",
    ["uct:0.7", "uct:1.0", "uct:", "ea:x", "ea:0", "ea:-5", "foo:1", "uct", "siea:"],
)
def test_parse_agent_rejections(token):
    with pytest.raises(ConfigError):
        parse_agent(token)


def test_default_grid_shape():
    cfg = default_config()
    assert len(cfg.agents) == 9
    assert [a.label for a in cfg.agents] == list(DEFAULT_AGENTS)
    assert [f.value for f in cfg.functions] == list(DEFAULT_FUNCTIONS)
    assert cfg.runs == 30
    assert cfg.uct_iterations == 5000


# ---------------------------------------------------------------------------
# seeding

def test_derive_seed_frozen_values():
    assert derive_seed(0, "uct:1", "f1", 0) == 4884742813154268578
    assert derive_seed(0, "uct:sqrt2", "f1", 0) == 7875033459326051834
    assert derive_seed(7, "ea:2570", "f3", 29) == 10693212271569933904


def test_derive_seed_separates_coordinates():
    seeds = {
        derive_seed(b, a, f, r)
        for b in (0, 1)
        for a in ("uct:1", "uct:2")
        for f in ("f1", "f2")
        for r in (0, 1)
    }
    assert len(seeds) == 16


# ---------------------------------------------------------------------------
# single runs

def test_run_one_is_deterministic(tmp_path):
    cfg = tiny_config(tmp_path)
    a = run_one(cfg, cfg.agents[0], F1, 0)
    b = run_one(cfg, cfg.agents[0], F1, 0)
    assert a == b
    assert a != run_one(cfg, cfg.agents[0], F1, 1)


def test_run_one_uct_record_shape(tmp_path):
    cfg = tiny_config(tmp_path)
    r = run_one(cfg, cfg.agents[0], F1, 0)
    assert r.agent == "uct:1" and r.function == "f1" and r.seed == 0
    assert r.iterations == 120
    assert r.fitness_iterations == 0
    assert r.evolved_policy == ""
    assert len(r.histograms) == 3
    assert 0.0 <= r.expansion_rate <= 1.0
    assert r.most_visited_value > 0.9  # the arch is easy even at 120 iterations


def test_run_one_ea_accounting(tmp_path):
    evo = EvoConfig(generations=2, offspring=4, fitness_iters=5)
    cfg = tiny_config(tmp_path, agents=(parse_agent("ea:100"),), evo=evo)
    r = run_one(cfg, cfg.agents[0], F1, 0)
    assert r.fitness_iterations == 5 * (1 + 2 * 4) == 45
    assert r.iterations == 45 + 100
    assert parse_text(r.evolved_policy) is not None
    assert len(r.histograms) == 3


def test_run_one_siea_accounting(tmp_path):
    evo = EvoConfig(generations=2, offspring=2, fitness_iters=4)
    cfg = tiny_config(tmp_path, agents=(parse_agent("siea:50"),), evo=evo)
    r = run_one(cfg, cfg.agents[0], F1, 3)
    assert r.fitness_iterations == 4 * (1 + 4) == 20
    assert r.iterations == 20 + 50
    assert r.evolved_policy != ""


# ---------------------------------------------------------------------------
# batches

def test_run_batch_grid_and_files(tmp_path):
    cfg = tiny_config(tmp_path, agents=(parse_agent("uct:1"), parse_agent("uct:3")), runs=3)
    records, summary = run_batch(cfg)
    assert len(records) == 2 * 1 * 3
    assert len(summary) == 2 * 6
    for name in OUT_FILES:
        assert os.path.exists(os.path.join(cfg.out_dir, name))
    with open(os.path.join(cfg.out_dir, "runs.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["agent", "function", "seed"]
    assert len(rows) == 1 + 6
    # all numeric columns parse back
    for row in rows[1:]:
        [float(v) for v in row[2:11]]
    assert [r.seed for r in records[:3]] == [0, 1, 2]


def test_run_batch_seed_isolation(tmp_path):
    solo = tiny_config(tmp_path / "a", runs=2)
    pair = tiny_config(
        tmp_path / "b", agents=(parse_agent("uct:1"), parse_agent("uct:3")), runs=2
    )
    solo_records, _ = run_batch(solo)
    pair_records, _ = run_batch(pair)
    assert solo_records == [r for r in pair_records if r.agent == "uct:1"]


def test_run_batch_reruns_byte_identical(tmp_path):
    cfg_a = tiny_config(tmp_path / "a", runs=3)
    cfg_b = tiny_config(tmp_path / "b", runs=3)
    run_batch(cfg_a)
    run_batch(cfg_b)
    for name in ("runs.csv", "summary.csv", "histograms.csv", "histograms_mean.csv"):
        with open(os.path.join(cfg_a.out_dir, name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(cfg_b.out_dir, name), "rb") as fh:
            b = fh.read()
        assert a == b, name


def test_parallel_matches_serial(tmp_path):
    serial = tiny_config(tmp_path / "s", agents=(parse_agent("uct:1"), parse_agent("uct:2")),
                         runs=2, uct_iterations=100)
    parallel = tiny_config(tmp_path / "p", agents=(parse_agent("uct:1"), parse_agent("uct:2")),
                           runs=2, uct_iterations=100, jobs=2)
    run_batch(serial)
    run_batch(parallel)
    for name in ("runs.csv", "summary.csv", "histograms.csv", "histograms_mean.csv"):
        with open(os.path.join(serial.out_dir, name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(parallel.out_dir, name), "rb") as fh:
            b = fh.read()
        assert a == b, name


@pytest.mark.parametrize(
    "overrides",
    [
        dict(runs=0),
        dict(bins=0),
        dict(bins=MAX_BINS + 1),
        dict(bins=10**9),
        dict(jobs=0),
        dict(uct_iterations=0),
        dict(functions=()),
        dict(agents=()),
        dict(agents=(parse_agent("ea:1"),)),
    ],
)
def test_default_config_rejections(overrides):
    with pytest.raises(ConfigError):
        default_config(**overrides)


def test_bins_bound_admits_max_bins():
    # builds the config only: a run at this many bins is not needed
    assert default_config(bins=MAX_BINS).bins == MAX_BINS


def test_default_config_window_reaches_evolve_policy(tmp_path, monkeypatch):
    import evomcts.harness as hmod

    seen = []

    def spy(tree, fid, cfg, rng, **kwargs):
        seen.append((cfg.alpha, cfg.beta))
        return evolve_policy(tree, fid, cfg, rng, **kwargs)

    monkeypatch.setattr(hmod, "evolve_policy", spy)
    evo = EvoConfig(generations=1, offspring=2, fitness_iters=2, alpha=0.2, beta=0.8)
    cfg = tiny_config(tmp_path, agents=(parse_agent("siea:50"),), evo=evo)
    run_one(cfg, cfg.agents[0], F1, 0)
    assert seen == [(0.2, 0.8)]


def test_worker_count_clamps(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert worker_count(1, 45) == 1
    assert worker_count(2, 45) == 2
    assert worker_count(8, 1) == 1
    assert worker_count(8, 45) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(8, 45) == 1


def test_degeneracy_warning_once_per_parallel_batch(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    evo = EvoConfig(generations=1, offspring=2, fitness_iters=2)
    cfg = tiny_config(tmp_path, agents=(parse_agent("siea:50"),), runs=2, jobs=2, evo=evo)
    with caplog.at_level(logging.DEBUG, logger="evomcts"):
        run_batch(cfg)
    warned = [r for r in caplog.records
              if "can never trigger" in r.message and r.levelno == logging.WARNING]
    assert len(warned) == 1


def test_run_batch_validates_before_running(tmp_path):
    with pytest.raises(ConfigError):
        run_batch(tiny_config(tmp_path, runs=0))
    with pytest.raises(ConfigError):
        run_batch(tiny_config(tmp_path, agents=()))
    # ea budget smaller than the warm-up is impossible to execute
    with pytest.raises(ConfigError):
        run_batch(tiny_config(tmp_path, agents=(parse_agent("ea:1"),)))


def test_histograms_csv_shape(tmp_path):
    cfg = tiny_config(tmp_path, runs=2, bins=10)
    run_batch(cfg)
    with open(os.path.join(cfg.out_dir, "histograms.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["agent", "function", "seed", "stage", "bin_index", "bin_left", "count"]
    assert len(rows) == 1 + 2 * 3 * 10
    stages = {row[3] for row in rows[1:]}
    assert stages == {"33", "66", "100"}


def test_config_echo_contents(tmp_path):
    cfg = tiny_config(tmp_path, runs=2)
    run_batch(cfg)
    with open(os.path.join(cfg.out_dir, "config.echo")) as fh:
        text = fh.read()
    for key in ("agents = uct:1", "base_seed = 0", "runs = 2", "evo_generations = 20",
                "functions = f1", "threshold = 1e-05"):
        assert key in text
    keys = [line.split(" = ")[0] for line in text.strip().split("\n")]
    assert keys == sorted(keys)


def test_dump_trees_writes_per_run_files(tmp_path):
    cfg = tiny_config(tmp_path, runs=1, dump_trees=True)
    run_batch(cfg)
    path = os.path.join(cfg.out_dir, "trees", "uct_1_f1_0.txt")
    assert os.path.exists(path)
    with open(path) as fh:
        first = fh.readline().strip()
    assert first.startswith("0,0.0,1.0,")


def test_run_failure_carries_run_identity():
    err = RunFailure("uct:1", "f1", 4, "ValueError: boom")
    assert "uct:1" in str(err) and "f1" in str(err) and "4" in str(err)


def test_run_failure_pickle_round_trip():
    err = RunFailure("uct:1", "f1", 0, "x")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is RunFailure and str(back) == str(err)
    assert (back.agent, back.function, back.run_index, back.cause) == ("uct:1", "f1", 0, "x")
    saved = pickle.loads(pickle.dumps(RunFailure("uct:1", "f1", 0, "x", 3)))
    assert saved.finished == 3 and "3 runs finished" in str(saved)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_batch_keeps_finished_runs(tmp_path, monkeypatch, jobs):
    import evomcts.harness as hmod

    real_run_one = hmod.run_one

    def third_run_fails(cfg, agent, fid, run_index):
        if run_index == 2:
            raise ValueError("boom")
        return real_run_one(cfg, agent, fid, run_index)

    def config(out, runs):
        return default_config(functions=(FunctionId.F1,), agents=(parse_agent("uct:1"),),
                              runs=runs, uct_iterations=50, jobs=jobs, out_dir=str(out))

    clean = config(tmp_path / "clean", 2)
    run_batch(clean)
    # forked workers inherit the patched run_one
    monkeypatch.setattr(hmod, "run_one", third_run_fails)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    failed = config(tmp_path / "failed", 4)
    with pytest.raises(RunFailure, match="the 2 runs finished before it") as info:
        run_batch(failed)
    assert (info.value.run_index, info.value.finished) == (2, 2)
    # the partial runs.csv is the one a clean batch of the two runs writes
    with open(os.path.join(clean.out_dir, "runs.csv"), "rb") as fh:
        want = fh.read()
    with open(os.path.join(failed.out_dir, "runs.csv"), "rb") as fh:
        assert fh.read() == want
    assert os.listdir(failed.out_dir) == ["runs.csv"]


# ---------------------------------------------------------------------------
# CLI

def test_cli_defaults_match_the_full_grid():
    cfg = cli_parse([])
    assert cfg == default_config()
    assert len(cfg.agents) == 9
    assert len(cfg.functions) == 5
    assert cfg.runs == 30 and cfg.base_seed == 0 and cfg.bins == 100
    assert cfg.out_dir == "results" and cfg.jobs == 1


def test_cli_single_cell():
    cfg = cli_parse(["--agents", "uct:sqrt2", "--functions", "f1", "--runs", "5"])
    assert [a.label for a in cfg.agents] == ["uct:sqrt2"]
    assert [f.value for f in cfg.functions] == ["f1"]
    assert cfg.runs == 5


def test_cli_policy_expr_alone_runs_only_that_agent():
    cfg = cli_parse(["--policy-expr", "(+ Q Nc)", "--functions", "f2"])
    assert [a.label for a in cfg.agents] == ["expr"]
    assert cfg.agents[0].policy == parse_text("(+ Q Nc)")


def test_cli_policy_expr_appends_to_explicit_agents():
    cfg = cli_parse(["--agents", "uct:1", "--policy-expr", "Q"])
    assert [a.label for a in cfg.agents] == ["uct:1", "expr"]


def test_cli_policy_expr_with_empty_agents_runs_only_that_agent():
    cfg = cli_parse(["--agents", "", "--policy-expr", "Q"])
    assert [a.label for a in cfg.agents] == ["expr"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--runs", "0"],
        ["--agents", "uct:0.7"],
        ["--functions", "f6"],
        ["--functions", ""],
        ["--bins", "0"],
        ["--bins", "1000000000"],
        ["--jobs", "0"],
        ["--alpha", "11", "--beta", "10"],
        ["--policy-expr", "(+ Q"],
        ["--no-such-flag"],
        ["--runs", "ten"],
        # an empty agent list is no agent at all, not the default grid
        ["--agents", ""],
        ["--agents", ","],
    ],
)
def test_cli_rejections(argv):
    with pytest.raises(ConfigError):
        cli_parse(argv)


def test_main_success_exit_zero(tmp_path, capsys):
    code = main(["--agents", "uct:1", "--functions", "f1", "--runs", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert "wrote 1 runs" in capsys.readouterr().out


def test_main_config_error_exit_one(tmp_path, capsys):
    assert main(["--runs", "0", "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("d", [250, 1200])
def test_main_refuses_policy_expr_deeper_than_evolution_grows(tmp_path, capsys, d):
    deep = "(psqrt " * (d - 1) + "Q" + ")" * (d - 1)
    out = tmp_path / "out"
    assert main(["--policy-expr", deep, "--functions", "f1", "--runs", "1",
                 "--out", str(out)]) == 1
    assert "bad --policy-expr" in capsys.readouterr().err
    assert not out.exists()


def test_main_alpha_beta_reach_the_echo(tmp_path):
    out = tmp_path / "out"
    assert main(["--agents", "uct:1", "--functions", "f1", "--runs", "1",
                 "--alpha", "0.2", "--beta", "0.8", "--out", str(out)]) == 0
    lines = (out / "config.echo").read_text().splitlines()
    assert "evo_alpha = 0.2" in lines and "evo_beta = 0.8" in lines
    assert not [line for line in lines if line.startswith(("alpha", "beta", "evo_mu"))]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_main_run_failure_exit_two(tmp_path, capsys, monkeypatch, jobs):
    import evomcts.harness as hmod

    def boom(cfg, agent, fid, run_index):
        raise ValueError("boom")

    # forked workers inherit the patched run_one; two runs so a pool starts
    monkeypatch.setattr(hmod, "run_one", boom)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code = main(["--agents", "uct:1", "--functions", "f1", "--runs", "2",
                 "--jobs", jobs, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "uct:1" in err and "boom" in err and "the 0 runs finished before it" in err
