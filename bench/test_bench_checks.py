"""Tests of the benchmark's own output checks: doctored records must fail."""

import copy
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402


def test_independent_landscapes_at_known_points():
    assert checks.f1(0.5) == 1.0
    assert checks.f2(0.0) == 0.5
    assert checks.f4(0.1) == pytest.approx(0.98, abs=1e-12)


def test_fitness_budget_is_the_papers():
    assert checks.FITNESS_ITERATIONS == 2430
    assert checks.expected_iterations("uct:sqrt2") == 5000
    assert checks.expected_iterations("siea:2570") == 5000
    assert checks.expected_iterations("ea:5000") == 7430


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    from evomcts.harness import cli_parse, run_batch

    out = str(tmp_path_factory.mktemp("bench-checks"))
    run_batch(cli_parse(["--agents", "uct:sqrt2", "--functions", "f1", "--runs", "1",
                         "--out", out]))
    records = checks.load_records(out)
    assert len(records) == 1
    return records[0]


def problems(rec):
    return checks.check_batch([rec], ["uct:sqrt2"], ["f1"], 1)


def test_real_record_passes(record):
    assert problems(record) == []


def doctor_iterations(rec):
    rec["iterations"] += 1


def doctor_histogram(rec):
    rec["histograms"][-1][0] += 1


def doctor_value(rec):
    rec["most_visited_value"] = checks.f1(rec["most_visited_x"]) - 1e-9


def doctor_x(rec):
    rec["best_reward_x"] += 2.0 ** -20


@pytest.mark.parametrize("doctor", [doctor_iterations, doctor_histogram, doctor_value, doctor_x])
def test_doctored_record_is_rejected(record, doctor):
    rec = copy.deepcopy(record)
    doctor(rec)
    assert problems(rec)


def test_missing_run_is_rejected(record):
    assert checks.check_batch([record], ["uct:sqrt2"], ["f1"], 2)
