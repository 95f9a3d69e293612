"""Online (1, lambda) evolution of selection policies over a live search tree.

Each candidate policy is scored by installing it on the shared tree and
running a fixed number of search iterations; its fitness is the mean of the
rewards those iterations sampled (the reward vector doubles as the
candidate's semantics). Selection is comma style: the parent never
survives, a new one is picked from the offspring every generation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from .expr import Expr, subtree_mutate, ucb1_seed
from .fop import FunctionId
from .mcts import SearchTree, argmax, run_iterations

log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class EvoConfig:
    """Knobs for the online evolution phase.

    One parent per generation; the fitness budget is fitness_iters * (1 +
    generations * offspring) tree iterations, the extra 1 paying for the
    initial parent.
    """

    offspring: int = 4
    generations: int = 20
    fitness_iters: int = 30
    alpha: float = 5.0
    beta: float = 10.0
    c_init: float = math.sqrt(2.0)
    fallback: str = "random"  # pick when no fitness tie: "random" or "best"

    def __post_init__(self):
        if self.offspring < 1 or self.generations < 0 or self.fitness_iters < 1:
            raise ValueError("offspring >= 1, generations >= 0, fitness_iters >= 1")
        if not 0.0 <= self.alpha < self.beta:
            raise ValueError("need 0 <= alpha < beta")
        if self.fallback not in ("random", "best"):
            raise ValueError(f"unknown fallback {self.fallback!r}")


def fitness_budget(cfg: EvoConfig) -> int:
    """Total tree iterations one evolve_policy call consumes."""
    return cfg.fitness_iters * (1 + cfg.generations * cfg.offspring)


@dataclass(frozen=True, slots=True)
class EvaluatedPolicy:
    """A candidate with its reward vector and the mean of that vector."""

    expr: Expr
    fitness: float
    semantics: Tuple[int, ...]


def fitness_eval(
    expr: Expr,
    tree: SearchTree,
    fid: FunctionId,
    iters: int,
    rng,
    stage_hooks=None,
) -> EvaluatedPolicy:
    """Score expr by running iters search iterations with it installed.

    The iterations mutate the shared tree for good; that is the point of
    evaluating candidates online.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    tree.set_policy(expr)
    rewards = tuple(run_iterations(tree, fid, iters, rng, stage_hooks))
    return EvaluatedPolicy(expr, sum(rewards) / len(rewards), rewards)


def ssd(p: Sequence[float], q: Sequence[float]) -> float:
    """Mean absolute elementwise gap between two equal-length vectors."""
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    if not len(p):
        raise ValueError("empty vectors")
    return sum(abs(a - b) for a, b in zip(p, q)) / len(p)


def ssi(p: Sequence[float], q: Sequence[float], alpha: float, beta: float) -> bool:
    """True when the distance lies strictly inside the (alpha, beta) window."""
    return alpha < ssd(p, q) < beta


def plain_select(offspring: Sequence[EvaluatedPolicy], rng) -> EvaluatedPolicy:
    """Best offspring by fitness, exact ties broken uniformly at random."""
    if not offspring:
        raise ValueError("no offspring to select from")
    return argmax(offspring, lambda o: o.fitness, rng)


def semantic_select(
    offspring: Sequence[EvaluatedPolicy],
    parent: EvaluatedPolicy,
    alpha: float,
    beta: float,
    rng,
    fallback: str = "random",
) -> EvaluatedPolicy:
    """Semantics-aware replacement choice among the offspring.

    Only a fitness tie at the top triggers the semantic step: among all
    offspring whose distance to the parent falls strictly inside (alpha,
    beta), take the one closest to alpha. With no tie, or nothing inside the
    window, fall back to a uniformly random offspring (fallback="random",
    the literal rule) or to the best one (fallback="best").
    """
    if not offspring:
        raise ValueError("no offspring to select from")
    if fallback not in ("random", "best"):
        raise ValueError(f"unknown fallback {fallback!r}")
    best = max(o.fitness for o in offspring)
    tied = [o for o in offspring if o.fitness == best]
    if len(tied) > 1:
        dists = [ssd(o.semantics, parent.semantics) for o in offspring]
        inside = [(o, d) for o, d in zip(offspring, dists) if alpha < d < beta]
        if inside:
            return argmax(inside, lambda od: -abs(od[1] - alpha), rng)[0]
        if alpha >= 1.0 and all(d <= 1.0 for d in dists):
            # with 0/1 rewards every distance is at most 1, so the window
            # cannot trigger; see log_unreachable_window
            log.debug(
                "semantic window (%g, %g) missed: distances max out at 1", alpha, beta
            )
    if fallback == "best":
        return plain_select(offspring, rng)
    return offspring[rng.randrange(len(offspring))]


def log_unreachable_window(cfg: EvoConfig, level: int) -> None:
    """Report at level when the (alpha, beta) window can never open."""
    if cfg.alpha >= 1.0:
        log.log(
            level,
            "semantic similarity window (%g, %g) can never trigger: rewards are "
            "0/1 so semantic distances stay within [0, 1]; tie handling always "
            "falls back to %s choice",
            cfg.alpha,
            cfg.beta,
            cfg.fallback,
        )


def evolve_policy(
    tree: SearchTree,
    fid: FunctionId,
    cfg: EvoConfig,
    rng,
    semantic: bool = False,
    stage_hooks=None,
) -> Expr:
    """Evolve a selection policy on the live tree and install the result.

    Starts from the UCB1 rule with c_init, runs cfg.generations rounds of
    subtree mutation with comma selection, and leaves the last chosen
    policy installed on the tree. Returns that policy.
    """
    if tree.root.untried_actions:
        raise ValueError("expand all root children before evolving")
    if semantic:
        # run_batch gives the batch's one WARNING; here it repeats per run
        log_unreachable_window(cfg, logging.DEBUG)
    parent = fitness_eval(
        ucb1_seed(cfg.c_init), tree, fid, cfg.fitness_iters, rng, stage_hooks
    )
    for _ in range(cfg.generations):
        brood = [
            fitness_eval(
                subtree_mutate(parent.expr, rng),
                tree,
                fid,
                cfg.fitness_iters,
                rng,
                stage_hooks,
            )
            for _ in range(cfg.offspring)
        ]
        if semantic:
            parent = semantic_select(brood, parent, cfg.alpha, cfg.beta, rng, cfg.fallback)
        else:
            parent = plain_select(brood, rng)
    tree.set_policy(parent.expr)
    return parent.expr
