"""Per-layer spans for the benchmark's traced runs, taken from outside the program.

A layer is timed by replacing, for the length of a traced batch, the name
its calling module looks up (``evomcts.mcts.select`` as seen by
``run_iterations``, ``evomcts.metrics.histogram`` as seen by
``StageTracker``) with a wrapper that records a span. Nothing in the
package is edited, and every name is restored afterwards.

Spans at run level and coarser are kept whole, in memory, and written out
when the benchmark ends. Spans inside an iteration (policy calls, select,
expand, rollout, f_eval, ...) run millions of times per batch, so each is
folded into per-layer totals as it closes: self time, total time, calls
and the number of child spans it held. Self time is a span's duration
minus the durations of its child spans, less the wrapper cost measured by
calibrate().
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

# coarse layers whose spans are kept whole
KEPT = {
    "harness.run",
    "evo.evolve",
    "mcts.run_iterations",
    "evo.fitness_iterations",
    "mcts.recommend",
    "metrics.terminal_scan",
    "metrics.snapshot",
    "harness_io.write",
}


class Tracer:
    """Span recorder; wrap() turns a callable into one that records spans."""

    def __init__(self):
        # name -> [self ns, total ns, calls, child spans held]
        self.layers = {}
        self.counts = Counter()  # exact work counts taken at the same boundaries
        self.spans = []  # (name, start ns, end ns, index of the enclosing kept span or -1)
        self._stack = []  # [child ns, child spans] for each open span
        self._open_kept = []

    def layer(self, name):
        return self.layers.get(name, [0, 0, 0, 0])

    def wrap(self, name, fn):
        """fn timed as a span of layer name; wraps of one name share its totals."""
        stack = self._stack
        clock = time.perf_counter_ns
        acc = self.layers.setdefault(name, [0, 0, 0, 0])

        def timed(*args, **kwargs):
            frame = [0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                acc[0] += dt - frame[0]
                acc[1] += dt
                acc[2] += 1
                acc[3] += frame[1]
                if stack:
                    up = stack[-1]
                    up[0] += dt
                    up[1] += 1

        if name not in KEPT:
            return timed
        spans, open_kept = self.spans, self._open_kept

        def kept(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = open_kept[-1] if open_kept else -1
            open_kept.append(i)
            start = clock()
            try:
                return timed(*args, **kwargs)
            finally:
                spans[i] = (name, start, clock(), parent)
                open_kept.pop()

        return kept

    def durations_ms(self, name):
        return [(end - start) / 1e6 for n, start, end, _ in self.spans if n == name]


def calibrate(n=100_000, repeats=7):
    """Wrapper cost in ns: (inside, outside) the span's own clock readings.

    A span's recorded duration carries the inside part; its parent's self
    time carries the outside part once per child span. Each loop keeps its
    fastest repeat, which steal and other tenants can only slow down.
    """
    def noop():
        return None

    clock = time.perf_counter_ns
    loop = range(n)
    empty = raw = wrapped = recorded = float("inf")
    for _ in range(repeats):
        t = Tracer()
        traced = t.wrap("noop", noop)
        t._stack.append([0, 0])
        t0 = clock()
        for _ in loop:
            pass
        empty = min(empty, clock() - t0)
        t0 = clock()
        for _ in loop:
            noop()
        raw = min(raw, clock() - t0)
        t0 = clock()
        for _ in loop:
            traced()
        wrapped = min(wrapped, clock() - t0)
        recorded = min(recorded, t.layer("noop")[0])
    inside = max(0.0, (recorded - (raw - empty)) / n)
    return inside, max(0.0, (wrapped - raw) / n - inside)


@contextmanager
def patched(pairs):
    """Set (module, attribute, value) triples, restoring the originals on exit."""
    saved = [(m, a, getattr(m, a)) for m, a, _ in pairs]
    try:
        for m, a, v in pairs:
            setattr(m, a, v)
        yield
    finally:
        for m, a, v in reversed(saved):
            setattr(m, a, v)


def run_spans(tracer):
    """Patches that time each seeded run and nothing inside it."""
    from evomcts import harness

    return [(harness, "run_one", tracer.wrap("harness.run", harness.run_one))]


def layer_spans(tracer):
    """Patches that time every layer boundary named in the benchmark README."""
    from evomcts import evo, harness, mcts, metrics

    wrap, counts = tracer.wrap, tracer.counts
    compile_timed = wrap("expr.compile", mcts.compile_expr)

    def compile_expr(e):
        return wrap("expr.policy", compile_timed(e))

    select_timed = wrap("mcts.select", mcts.select)

    def select(tree, rng):
        path = select_timed(tree, rng)
        counts["mcts.select_depth"] += len(path) - 1
        return path

    rollout_timed = wrap("mcts.rollout", mcts.rollout)

    def rollout(fid, state, rng, cfg):
        # with binary splitting every level halves the width exactly
        if cfg.branching != 2:
            raise ValueError("rollout levels are counted for binary splitting only")
        width, levels = state.b - state.a, 0
        while width >= cfg.threshold:
            width /= 2
            levels += 1
        counts["mcts.rollout_levels"] += levels
        return rollout_timed(fid, state, rng, cfg)

    def tie_counting(select_fn):
        def choose(offspring, *args, **kwargs):
            best = max(o.fitness for o in offspring)
            counts["evo.generations"] += 1
            if sum(o.fitness == best for o in offspring) > 1:
                counts["evo.tied_generations"] += 1
            return select_fn(offspring, *args, **kwargs)
        return choose

    class StageTracker(metrics.StageTracker):
        __call__ = wrap("metrics.hook", metrics.StageTracker.__call__)

    return run_spans(tracer) + [
        (mcts, "compile_expr", compile_expr),
        (mcts, "select", select),
        (mcts, "expand", wrap("mcts.expand", mcts.expand)),
        (mcts, "rollout", rollout),
        (mcts, "backpropagate", wrap("mcts.backprop", mcts.backpropagate)),
        (mcts, "children", wrap("fop.children", mcts.children)),
        (mcts, "f_eval", wrap("fop.f_eval", mcts.f_eval)),
        (metrics, "histogram", wrap("metrics.snapshot", metrics.histogram)),
        (harness, "StageTracker", StageTracker),
        (harness, "terminal_states_reached",
         wrap("metrics.terminal_scan", harness.terminal_states_reached)),
        (harness, "recommend_most_visited",
         wrap("mcts.recommend", harness.recommend_most_visited)),
        (harness, "recommend_best_reward",
         wrap("mcts.recommend", harness.recommend_best_reward)),
        (harness, "run_iterations", wrap("mcts.run_iterations", harness.run_iterations)),
        (harness, "evolve_policy", wrap("evo.evolve", harness.evolve_policy)),
        (evo, "run_iterations", wrap("evo.fitness_iterations", evo.run_iterations)),
        (evo, "subtree_mutate", wrap("evo.mutate", evo.subtree_mutate)),
        (evo, "plain_select", tie_counting(evo.plain_select)),
        (evo, "semantic_select", tie_counting(evo.semantic_select)),
        (harness, "write_csvs", wrap("harness_io.write", harness.write_csvs)),
        (harness, "write_config_echo", wrap("harness_io.write", harness.write_config_echo)),
    ]
