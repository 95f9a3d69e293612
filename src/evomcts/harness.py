"""Experiment harness: agent grid, seeded runs, CSV outputs, CLI.

A batch is the cross product of agents, landscapes and run indices. Every
run draws its own RNG stream from a stable hash of (base seed, agent,
function, run index), so records never depend on execution order and the
output files are byte-identical across repeats, serial or parallel.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .evo import EvoConfig, evolve_policy, fitness_budget, log_unreachable_window
from .expr import Expr, parse_text, to_text, ucb1_seed
from .fop import FopConfig, FunctionId
from .harness_io import write_config_echo, write_csvs, write_runs
from .metrics import (
    RunRecord,
    StageTracker,
    expansion_rate,
    summarize,
    terminal_states_reached,
)
from .mcts import (
    SearchTree,
    dump_tree,
    recommend_best_reward,
    recommend_most_visited,
    run_iterations,
)

log = logging.getLogger(__name__)

UCT_C_TOKENS = {
    "0.5": 0.5,
    "1": 1.0,
    "sqrt2": 2.0 ** 0.5,
    "2": 2.0,
    "3": 3.0,
}

DEFAULT_AGENTS = (
    "uct:0.5",
    "uct:1",
    "uct:sqrt2",
    "uct:2",
    "uct:3",
    "ea:2570",
    "ea:5000",
    "siea:2570",
    "siea:5000",
)

DEFAULT_FUNCTIONS = ("f1", "f2", "f3", "f4", "f5")


class ConfigError(ValueError):
    """Bad flags or agent specs; maps to exit code 1."""


class RunFailure(RuntimeError):
    """A single run raised; maps to exit code 2.

    finished, once run_batch has saved them, counts the runs written to a
    partial runs.csv.
    """

    def __init__(self, agent: str, function: str, run_index: int, cause: str,
                 finished: Optional[int] = None):
        msg = f"run failed: agent={agent} function={function} run={run_index}: {cause}"
        if finished is not None:
            msg += f"; the {finished} runs finished before it are in runs.csv"
        super().__init__(msg)
        self.agent = agent
        self.function = function
        self.run_index = run_index
        self.cause = cause
        self.finished = finished

    def __reduce__(self):  # the default re-calls __init__ with the message alone
        return type(self), (self.agent, self.function, self.run_index, self.cause, self.finished)


@dataclass(frozen=True)
class AgentSpec:
    """One column of the comparison grid.

    kind "uct" runs the UCB1 rule with its constant, and "expr" a
    user-supplied expression, as the fixed policy for the whole run; "ea"
    and "siea" evolve the policy online and then search for another budget
    iterations.
    """

    kind: str
    label: str
    budget: Optional[int] = None
    policy: Optional[Expr] = None


def parse_agent(token: str) -> AgentSpec:
    kind, sep, arg = token.partition(":")
    if kind == "uct":
        if arg not in UCT_C_TOKENS:
            raise ConfigError(
                f"bad agent {token!r}: uct constant must be one of "
                + ", ".join(sorted(UCT_C_TOKENS))
            )
        return AgentSpec("uct", f"uct:{arg}", policy=ucb1_seed(UCT_C_TOKENS[arg]))
    if kind in ("ea", "siea"):
        try:
            budget = int(arg)
        except ValueError:
            raise ConfigError(f"bad agent {token!r}: need an iteration count") from None
        if budget < 1:
            raise ConfigError(f"bad agent {token!r}: budget must be >= 1")
        return AgentSpec(kind, f"{kind}:{budget}", budget=budget)
    raise ConfigError(f"unknown agent kind in {token!r} (want uct:C, ea:N or siea:N)")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved batch description; everything a run needs to replay.

    Building one validates it, so the CLI and API callers share one check.
    """

    functions: Tuple[FunctionId, ...]
    agents: Tuple[AgentSpec, ...]
    runs: int = 30
    base_seed: int = 0
    bins: int = 100
    out_dir: str = "results"
    jobs: int = 1
    dump_trees: bool = False
    uct_iterations: int = 5000
    fop: FopConfig = FopConfig()
    evo: EvoConfig = EvoConfig()

    def __post_init__(self):
        if not self.functions or not self.agents:
            raise ConfigError("need at least one agent and one function")
        for name in ("runs", "bins", "jobs", "uct_iterations"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        warm = self.fop.branching
        for agent in self.agents:
            if agent.kind in ("ea", "siea") and agent.budget < warm:
                raise ConfigError(
                    f"agent {agent.label}: budget must cover the {warm} warm-up iterations"
                )


def default_config(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(
        functions=tuple(FunctionId(f) for f in DEFAULT_FUNCTIONS),
        agents=tuple(parse_agent(a) for a in DEFAULT_AGENTS),
    )
    return replace(cfg, **overrides) if overrides else cfg


def derive_seed(base_seed: int, agent: str, function: str, run_index: int) -> int:
    """Stable per-run seed; independent of batch composition and ordering."""
    key = f"{base_seed}|{agent}|{function}|{run_index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def run_one(cfg: ExperimentConfig, agent: AgentSpec, fid: FunctionId, run_index: int) -> RunRecord:
    """Execute one seeded run and measure it."""
    rng = random.Random(derive_seed(cfg.base_seed, agent.label, fid.value, run_index))
    evolved_text = ""
    fitness_iters = 0

    if agent.kind in ("uct", "expr"):
        total = cfg.uct_iterations
        tree = SearchTree(agent.policy, cfg.fop)
        run_iterations(tree, fid, total, rng)
    else:
        fitness_iters = fitness_budget(cfg.evo)
        total = fitness_iters + agent.budget
        warm = cfg.fop.branching
        tree = SearchTree(ucb1_seed(cfg.evo.c_init), cfg.fop)
        # expand every root child first so selection statistics exist
        run_iterations(tree, fid, warm, rng)
        evolved = evolve_policy(tree, fid, cfg.evo, rng, semantic=(agent.kind == "siea"))
        run_iterations(tree, fid, agent.budget - warm, rng)
        evolved_text = to_text(evolved)

    if tree.iterations_done != total:
        raise RuntimeError(
            f"budget accounting broke: {tree.iterations_done} != {total}"
        )
    tracker = StageTracker(total, cfg.bins)
    tracker(tree)
    mv_x, mv_value = recommend_most_visited(tree, fid, rng)
    br_x, br_value = recommend_best_reward(tree, fid, rng)

    if cfg.dump_trees:
        path = os.path.join(cfg.out_dir, "trees", f"{agent.label.replace(':', '_')}_{fid.value}_{run_index}.txt")
        with open(path, "w") as fh:
            fh.write(dump_tree(tree))

    return RunRecord(
        agent=agent.label,
        function=fid.value,
        seed=run_index,
        expansion_rate=expansion_rate(tree),
        terminal_states=terminal_states_reached(tree),
        most_visited_x=mv_x,
        most_visited_value=mv_value,
        best_reward_x=br_x,
        best_reward_value=br_value,
        iterations=tree.iterations_done,
        fitness_iterations=fitness_iters,
        evolved_policy=evolved_text,
        histograms=tuple(tuple(h) for h in tracker.histograms),
    )


def _run_task(args) -> RunRecord:
    cfg, agent, fid, run_index = args
    try:
        return run_one(cfg, agent, fid, run_index)
    except Exception as e:  # noqa: BLE001  (reported with run identity, exit 2)
        raise RunFailure(agent.label, fid.value, run_index, f"{type(e).__name__}: {e}") from e


def worker_count(jobs: int, tasks: int) -> int:
    """Worker processes for a batch: no more than asked, tasks or cores."""
    return min(jobs, tasks, os.cpu_count() or 1)


def run_batch(cfg: ExperimentConfig) -> Tuple[List[RunRecord], list]:
    """Run the whole grid, write the output files, return records and summary."""
    if any(a.kind == "siea" for a in cfg.agents):
        log_unreachable_window(cfg.evo, logging.WARNING)
    os.makedirs(cfg.out_dir, exist_ok=True)
    if cfg.dump_trees:
        os.makedirs(os.path.join(cfg.out_dir, "trees"), exist_ok=True)

    tasks = [
        (cfg, agent, fid, r)
        for agent in cfg.agents
        for fid in cfg.functions
        for r in range(cfg.runs)
    ]
    records: List[RunRecord] = []
    workers = worker_count(cfg.jobs, len(tasks))
    step = max(1, len(tasks) // 20)
    failure = None
    # Executor.map submits every task up front and cancels the pending ones
    # when a result raises
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        results = pool.map(_run_task, tasks) if pool else map(_run_task, tasks)
        try:
            for i, record in enumerate(results, 1):
                records.append(record)
                if i % step == 0 or i == len(tasks):
                    log.info("%d/%d runs done", i, len(tasks))
        except RunFailure as e:
            failure = e

    records.sort(key=lambda r: (r.agent, r.function, r.seed))
    if failure is not None:
        # keep the finished work; a summary of part of the grid would mislead
        write_runs(cfg.out_dir, records)
        raise RunFailure(failure.agent, failure.function, failure.run_index, failure.cause,
                         len(records)) from failure
    summary = summarize(records)
    write_csvs(cfg.out_dir, records, summary)
    write_config_echo(cfg)
    return records, summary


# ---------------------------------------------------------------------------
# CLI

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; we reserve that for run failures
        raise ConfigError(message)


def cli_parse(argv: Sequence[str]) -> ExperimentConfig:
    """The ExperimentConfig of a command line; an unset flag keeps default_config()'s value."""
    base = default_config()
    p = _Parser(
        prog="evomcts",
        description="Compare tree-search agents on the five interval-splitting landscapes.",
    )
    p.add_argument("--functions", default=",".join(DEFAULT_FUNCTIONS),
                   help="comma list of landscapes, e.g. f1,f3 (default: all five)")
    p.add_argument("--agents", default=None,
                   help="comma list of agents, e.g. uct:sqrt2,ea:2570 (default: the full grid)")
    p.add_argument("--runs", type=int, default=base.runs,
                   help="repetitions per cell (default %(default)s)")
    p.add_argument("--seed", type=int, default=base.base_seed, help="base seed (default %(default)s)")
    p.add_argument("--bins", type=int, default=base.bins, help="histogram bins (default %(default)s)")
    p.add_argument("--alpha", type=float, default=base.evo.alpha,
                   help="semantic window lower bound (default %(default)s)")
    p.add_argument("--beta", type=float, default=base.evo.beta,
                   help="semantic window upper bound (default %(default)s)")
    p.add_argument("--out", default=base.out_dir, metavar="DIR",
                   help="output directory (default %(default)s)")
    p.add_argument("--jobs", type=int, default=base.jobs, metavar="N",
                   help="parallel worker processes (default %(default)s)")
    p.add_argument("--dump-trees", action="store_true", help="write a per-run tree dump")
    p.add_argument("--policy-expr", default=None, metavar="EXPR",
                   help="run a fixed selection policy given in prefix text")
    ns = p.parse_args(argv)

    try:
        functions = tuple(FunctionId(tok) for tok in _split(ns.functions))
    except ValueError as e:
        raise ConfigError(f"bad --functions: {e}") from None
    # an empty --agents is an empty list, which the config rejects below
    agents = base.agents
    if ns.agents is not None:
        agents = tuple(parse_agent(tok) for tok in _split(ns.agents))
    if ns.policy_expr is not None:
        try:
            policy = parse_text(ns.policy_expr)
        except ValueError as e:
            raise ConfigError(f"bad --policy-expr: {e}") from None
        custom = AgentSpec("expr", "expr", policy=policy)
        agents = (custom,) if ns.agents is None else agents + (custom,)
    try:
        evo = replace(base.evo, alpha=ns.alpha, beta=ns.beta)
    except ValueError as e:
        raise ConfigError(f"bad --alpha/--beta: {e}") from None
    return replace(
        base,
        functions=functions,
        agents=agents,
        runs=ns.runs,
        base_seed=ns.seed,
        bins=ns.bins,
        out_dir=ns.out,
        jobs=ns.jobs,
        dump_trees=ns.dump_trees,
        evo=evo,
    )


def _split(tokens: str) -> List[str]:
    return [t for t in (s.strip() for s in tokens.split(",")) if t]


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        cfg = cli_parse(sys.argv[1:] if argv is None else argv)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        records, _ = run_batch(cfg)
    except RunFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"wrote {len(records)} runs to {cfg.out_dir}")
    return 0
