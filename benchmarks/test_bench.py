"""Self-tests of the benchmark: seeded inputs, oracles, spans and counters.

Run from the root of a checkout with ``python3 -m pytest benchmarks``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, run.SRC)

# a few cheap tasks of every oracle kind but selfcheck
SAMPLE_POINTS = {
    "long-words": ("eval-sym-1e3", "eval-graph-1e3"),
    "coords": ("fox-16", "coords-w3-g2"),
    "graphs": ("distinct-v4", "matrix-w5", "reduce-v4"),
    "small-mixed": ("small-eval-undefined", "small-pair", "small-basis",
                    "small-matrix", "small-reduce", "diagram-20"),
}


def sample_tasks(seed=7, per_point=2):
    tasks = []
    for workload, points in SAMPLE_POINTS.items():
        for point in points:
            tasks += [t for t in gen.workload(workload, seed) if t.point == point][:per_point]
    return tasks


def run_outcomes(tasks, tracer=None):
    cli = run.import_program()
    outcomes, latencies, references = [], [], []
    if tracer is not None:
        tracer.install()
    try:
        run.run_pass(cli, tasks, outcomes, latencies, references, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outcomes


def answers(outcomes):
    return [(index, code, oracles.envelope(out)[1], err)
            for index, code, out, err in outcomes]


def test_inputs_depend_only_on_workload_and_seed():
    for workload in gen.WORKLOADS:
        first = [t.argv for t in gen.workload(workload, 11)]
        assert first == [t.argv for t in gen.workload(workload, 11)]
        assert first != [t.argv for t in gen.workload(workload, 12)]


def test_size_points_have_their_sizes():
    for task in gen.workload("long-words", 3):
        letters = len(gen.word_letters(task.data["factors"]))
        size = {"1e3": 1_000, "1e4": 10_000, "1e5": 100_000}[task.point[-3:]]
        assert 0.9 * size <= letters <= 1.1 * size, (task.point, letters)
    for task in gen.workload("coords", 3):
        letters = len(gen.word_letters(task.data["factors"]))
        expected = {"fox-16": 16, "fox-64": 64, "fox-256": 256, "coords-w3-g2": 32,
                    "coords-w3-g3": 32, "coords-w4-g2": 48, "coords-w4-g3": 48,
                    "coords-w5-g2": 64, "coords-w5-g3": 76}[task.point]
        assert letters == expected


def test_every_sampled_answer_passes_its_oracle():
    tasks = sample_tasks()
    failed, problems = oracles.verify(oracles.Oracle(), tasks, run_outcomes(tasks))
    assert failed == 0, problems


class CorruptedOracle(oracles.Oracle):
    """Expects a wrong value wherever the oracle computes one."""

    def _defined(self, code, data, value):
        wrong = value + 1 if isinstance(value, int) else value + [[1, "[a,b]"]]
        return super()._defined(code, data, wrong)

    def _same_pairings(self, got, expected):
        return super()._same_pairings(got, [expected[0] + 1] + expected[1:])

    def check(self, task, code, data):
        # kinds whose expectation is a size or a message
        if task.kind == "eval-undefined":
            task = dataclasses.replace(task, data={**task.data, "extra": task.data["extra"] + 1})
        elif task.kind == "matrix":
            # one more generator: the Witt dimension grows
            task = dataclasses.replace(task, data={"counts": {**task.data["counts"], "d": 1}})
        elif task.kind == "basis":
            task = dataclasses.replace(task, data={**task.data, "weight": task.data["weight"] + 1})
        return super().check(task, code, data)


def test_a_corrupted_expected_value_counts_as_a_failure():
    tasks = sample_tasks(per_point=1)
    outcomes = run_outcomes(tasks)
    assert oracles.verify(oracles.Oracle(), tasks, outcomes)[0] == 0
    failed, _ = oracles.verify(CorruptedOracle(), tasks, outcomes)
    assert failed == len(tasks)


def test_a_wrong_answer_counts_as_a_failure():
    tasks = sample_tasks(per_point=1)
    outcomes = run_outcomes(tasks)
    oracle = oracles.Oracle()
    for index, code, out, err in outcomes:
        data = json.loads(out)
        value = data["value"]
        if isinstance(value, int):
            data["value"] = value + 1
        elif tasks[index].kind in ("reduce", "distinct"):
            data["value"] = [[f"{2 * oracles.Fraction(c)}", t] for c, t in value]
        elif isinstance(value, list):
            data["value"] = value[1:] if value else [[1, "[a,b]"]]
        else:
            code = 1 - code
        bad = (index, code, json.dumps(data), err)
        assert oracles.verify(oracle, tasks, [bad])[0] == 1, tasks[index].point


def test_tracing_changes_no_answer_and_leaves_no_wrapper():
    tasks = sample_tasks()
    untraced = answers(run_outcomes(tasks))
    traced = answers(run_outcomes(tasks, spans.Tracer()))
    assert traced == untraced
    for name, module in list(sys.modules.items()):
        if name.startswith("letterlink"):
            assert not any(hasattr(v, "__wrapped__") for v in vars(module).values()), name
    assert not any(hasattr(fn, "__wrapped__")
                   for _, fn in sys.modules["letterlink.selfcheck"].CHECKS)


def test_counters_repeat_exactly():
    tasks = sample_tasks()
    counts = []
    for warm in (False, True, False):
        if warm:
            run_outcomes(tasks)         # an untraced pass first
        tracer = spans.Tracer()
        run_outcomes(tasks, tracer)
        counts.append(dict(tracer.counters))
    assert counts[0] == counts[1] == counts[2]
    busy = [name for name, value in counts[0].items() if value]
    assert len(busy) == len(spans.COUNTER_NAMES), counts[0]


def test_self_times_add_up_to_the_traced_calls():
    tasks = sample_tasks(per_point=1)
    tracer = spans.Tracer()
    run_outcomes(tasks, tracer)
    top = sum(tracer.end[i] - tracer.start[i]
              for i in range(len(tracer.start)) if tracer.parent[i] < 0)
    assert sum(tracer.self_times().values()) == pytest.approx(top, rel=1e-9)
    assert tracer.counters["cli.calls"] == len(tasks)
    recorded = {tracer.names[f] for f in set(tracer.function)}
    # calls through another module's binding have spans of their own
    assert {"linking.prefix_potential", "linalg.solve_unique",
            "words.free_reduce"} <= recorded


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "small-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
