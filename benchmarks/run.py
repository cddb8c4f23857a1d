#!/usr/bin/env python3
"""End-to-end benchmark of the letterlink CLI, with a traced per-layer mode.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload coords --seed 1 --seconds 25 --trace 0

One closed-loop client in one process and one thread calls
``letterlink.cli.main(argv + ["--json"])`` in-process, captures its output,
and sends the next call when the previous one returns.  The inputs come
from ``gen.py`` and depend only on the workload and the seed.  A run:

1. sets up five times (fresh import of the package from ``src/``, input
   generation, one warm-up call per command on its smallest input) and
   reports the median as ``setup_s``;
2. with ``--trace 0``, repeats whole passes over the workload's tasks until
   ``--seconds`` have passed, timing each call, and then checks every
   answer with ``oracles.py``;
3. with ``--trace 1``, runs an untraced pass, a pass with span wrappers
   installed (``spans.py``) and another untraced pass, checks all three,
   and reports per-layer self time, work counters and the tracing overhead.

Times are scaled to a nominal machine speed; see ``NOMINAL_REFERENCE_S``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the sample counts and per-size-point latencies,
and the same record is written under ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import gen  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 5

# On a shared machine the speed a process gets can drift by tens of percent
# within minutes; the time of a call relative to a fixed reference routine
# run next to it drifts much less (on a shared 2-CPU virtual machine, over
# five seeds per workload, the quartile spread of the raw figures was 12-47%
# of the median, of the scaled ones 2-10%).  Every reported time is
# therefore scaled to a nominal speed: a time t measured while the reference
# routine takes r seconds is reported as t * NOMINAL_REFERENCE_S / r.  The
# raw figures stay in the record.
REFERENCE_ITEMS = 300
REFERENCE_SPAN = 8         # references on each side of a call that judge it
NOMINAL_REFERENCE_S = 0.00025


def import_program():
    """Import ``letterlink.cli`` afresh from this checkout's ``src/``."""
    for name in [n for n in sys.modules
                 if n == "letterlink" or n.startswith("letterlink.")]:
        del sys.modules[name]
    cli = importlib.import_module("letterlink.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"letterlink was imported from {cli.__file__}, not {SRC}")
    return cli


def invoke(cli, argv):
    """One CLI call: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects arguments this way
            code = exc.code
        seconds = perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def reference_seconds() -> float:
    """Time of a fixed pure-Python routine that never touches the package
    (tuples, sorting, dict updates, string joins): a yardstick for the speed
    the machine gives this process now."""
    start = perf_counter()
    items = [(str(i % 17), i, i * 7 % 11) for i in range(REFERENCE_ITEMS)]
    items.sort()
    table: dict = {}
    for name, i, j in items:
        table[name, j] = table.get((name, j), 0) + i
    ",".join(name for name, _ in table)
    return perf_counter() - start


def speed_factor(references) -> float:
    """Scale that turns times measured now into times at nominal speed."""
    return NOMINAL_REFERENCE_S / statistics.median(references)


def scaled(latencies, references):
    """Each latency at nominal speed, judged by the reference loops run
    around it: ``references[i]`` ran just before call i, and one more
    reference follows the last call."""
    return [t * speed_factor(references[max(0, i - REFERENCE_SPAN):
                                        i + REFERENCE_SPAN + 2])
            for i, t in enumerate(latencies)]


def set_up(workload: str, seed: int):
    """Import, generate the inputs and warm up each command once on its
    smallest input.  ``selfcheck`` is not warmed up: it runs the other
    commands' code, and one call takes seconds."""
    references = [reference_seconds() for _ in range(11)]
    start = perf_counter()
    cli = import_program()
    tasks = gen.workload(workload, seed)
    warm_up = {}
    by_size = sorted(tasks, key=lambda t: (len(" ".join(t.argv)), " ".join(t.argv)))
    for task in by_size:
        if task.command != "selfcheck":
            warm_up.setdefault(task.command, task)
    for task in warm_up.values():
        invoke(cli, task.argv)
    seconds = perf_counter() - start
    references += [reference_seconds() for _ in range(11)]
    return cli, tasks, seconds, seconds * speed_factor(references)


def run_pass(cli, tasks, outcomes, latencies, references, tracer=None):
    """Call every task once, each call preceded by the reference loop."""
    for index, task in enumerate(tasks):
        references.append(reference_seconds())
        if tracer is not None:
            tracer.current = index
        seconds, code, out, err = invoke(cli, task.argv)
        latencies.append(seconds)
        outcomes.append((index, code, out, err))


def p90(values):
    return statistics.quantiles(values, n=10)[8]


def git_commit():
    """The checked-out commit, read from ``.git`` without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, 1 client, in-process, 1 thread",
    }


def point_latencies(tasks, outcomes, latencies):
    """Median and, with at least 100 samples, p90 per named size point."""
    by_point: dict[str, list[float]] = {}
    for (index, *_), seconds in zip(outcomes, latencies):
        by_point.setdefault(tasks[index].point, []).append(seconds)
    out = {}
    for point, values in sorted(by_point.items()):
        entry = {"samples": len(values),
                 "p50_ms": statistics.median(values) * 1000}
        if len(values) >= 100:
            entry["p90_ms"] = p90(values) * 1000
        out[point] = entry
    return out


def measure(cli, tasks, seconds):
    outcomes, raw, references = [], [], []
    start = perf_counter()
    passes = 0
    while passes == 0 or perf_counter() - start < seconds:
        run_pass(cli, tasks, outcomes, raw, references)
        passes += 1
    elapsed = perf_counter() - start
    references.append(reference_seconds())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(tasks)
    latencies = scaled(raw, references)
    # Throughput of a pass at each task's median latency: a stall of the
    # machine during one pass then moves it little.
    per_task = [statistics.median(latencies[i::n]) for i in range(n)]
    metrics = {
        "ops_per_s": (n / sum(per_task), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_p90_ms": (p90(latencies) * 1000, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    record = {"passes": passes, "elapsed_s": elapsed,
              "speed_factor": speed_factor(references),
              "raw": {"ops_per_s": len(raw) / elapsed,
                      "latency_p50_ms": statistics.median(raw) * 1000,
                      "latency_p90_ms": p90(raw) * 1000},
              "samples": {"latency_p50_ms": len(latencies),
                          "latency_p90_ms": len(latencies)},
              "points": point_latencies(tasks, outcomes, latencies)}
    return outcomes, metrics, record


def trace(cli, tasks, spans_path):
    """An untraced pass, a traced pass and an untraced pass again; the
    overhead is judged against the mean of the two untraced passes."""
    outcomes = []

    def timed_pass(tracer=None):
        latencies, references = [], []
        run_pass(cli, tasks, outcomes, latencies, references, tracer)
        references.append(reference_seconds())
        return sum(scaled(latencies, references)), speed_factor(references)

    before, _ = timed_pass()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_seconds, traced_factor = timed_pass(tracer)
    finally:
        tracer.uninstall()
    after, _ = timed_pass()
    untraced = [before, after]
    self_s = tracer.self_times()
    total = sum(self_s.values())
    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer] * traced_factor, "s")
        metrics[f"{layer}.self_share"] = (self_s[layer] / total, "ratio")
    for name in spans.COUNTER_NAMES:
        metrics[name] = (tracer.counters[name], "count")
    canonicalized = tracer.canonicalized_in_enumeration()
    metrics["eil.kept_ratio"] = (
        tracer.counters["eil.trees_kept"] / canonicalized if canonicalized else 0.0,
        "ratio")
    metrics["trace.overhead_ratio"] = (traced_seconds / statistics.mean(untraced), "ratio")
    metrics["trace.spans"] = (len(tracer.start), "count")
    tracer.write(spans_path)
    record = {"untraced_passes_s": untraced, "traced_pass_s": traced_seconds,
              "spans_file": os.path.relpath(spans_path, ROOT),
              "top_functions": tracer.function_self_times(12)}
    return outcomes, metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "letterlink", "cli.py")):
        print(f"error: no letterlink sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        cli, tasks, raw_seconds, seconds = set_up(args.workload, args.seed)
        setups.append(seconds)
        raw_setups.append(raw_seconds)
    oracle = oracles.Oracle()

    os.makedirs(OUT, exist_ok=True)
    # one file per workload and mode, overwritten by the next run
    stem = os.path.join(OUT, f"{args.workload}-trace{args.trace}")
    if args.trace:
        outcomes, metrics, record = trace(cli, tasks, stem + ".spans.tsv")
    else:
        outcomes, metrics, record = measure(cli, tasks, args.seconds)
    failed, problems = oracles.verify(oracle, tasks, outcomes)
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["ok_ratio"] = (1 - failed / len(outcomes), "ratio")

    record = {"environment": environment(args), "setup_s": setups,
              "raw_setup_s": raw_setups,
              "tasks_per_pass": len(tasks), **record,
              "failures": problems[:20]}
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)
    for problem in problems[:10]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
