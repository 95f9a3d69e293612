"""The benchmark's traced runs patch package names; they must not move outputs."""

import os
import sys

from evomcts.evo import EvoConfig
from evomcts.fop import FunctionId
from evomcts.harness import default_config, parse_agent, run_batch

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import tracing  # noqa: E402

CSVS = ("runs.csv", "summary.csv", "histograms.csv", "histograms_mean.csv")


def test_layer_spans_leave_outputs_unchanged(tmp_path):
    def batch(out):
        run_batch(default_config(
            agents=(parse_agent("uct:sqrt2"), parse_agent("siea:30")),
            functions=(FunctionId.F2,),
            runs=1,
            uct_iterations=60,
            evo=EvoConfig(generations=2, offspring=2, fitness_iters=5),
            out_dir=str(tmp_path / out),
        ))
        return {name: (tmp_path / out / name).read_bytes() for name in CSVS}

    plain = batch("plain")
    tracer = tracing.Tracer()
    with tracing.patched(tracing.layer_spans(tracer)):
        traced = batch("traced")
    assert traced == plain
    # every patched layer ran, the semantic selection among them
    assert tracer.counts["evo.generations"] == 2
    assert tracer.layer("mcts.select")[2] > 0
