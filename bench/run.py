#!/usr/bin/env python3
"""decolab benchmark: closed-loop CLI scenarios, end to end or traced by layer.

    python3 bench/run.py --workload sg-sweep --seed 1 --seconds 35 --trace 0

One caller drives `decolab.cli.parse_config` -> `run` -> `emit` in a closed
loop: each request starts when the previous one has been emitted and its
output checked.  Inputs are generated from --seed alone (see workloads.py).
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run, each traced round
paired with an untraced run of the same inputs.  Run it from anywhere; it
imports decolab from ../src relative to this file and writes only under
../.bench_out.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

from tracer import LAYERS, Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh interpreters started to time set-up, spread evenly over the measured
# window between rounds, so that they see the machine's fast and slow stretches
# in the same proportion as the rounds do; the median is reported.
SETUP_SAMPLES = 30
# The tail percentile is the highest one with at least this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "run_s.tail": "s",
    "emit_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

# Per-layer metric -> (span name, field, unit), read from the traced spans.
# Values are per round (see README.md).
NAMED_LAYER_METRICS = {
    "cli.run.s": ("cli.run", "s", "s"),
    "cli.parse_config.s": ("cli.parse_config", "s", "s"),
    "cli.emit.s": ("cli.emit", "s", "s"),
    "cli.emit.bytes": ("cli.emit", "bytes", "computed_B"),
    "hilbert.OperatorMatrix.calls": ("hilbert.OperatorMatrix", "calls", "count"),
    "hilbert.OperatorMatrix.self_s": ("hilbert.OperatorMatrix", "self_s", "s"),
    "hilbert.OperatorMatrix.bytes": ("hilbert.OperatorMatrix", "bytes", "computed_B"),
    "hilbert.StateVector.calls": ("hilbert.StateVector", "calls", "count"),
    "wavepacket.check_a1.s": ("wavepacket.check_a1", "s", "s"),
    "scenarios.bell.bell_evaluate.self_s": ("scenarios.bell.bell_evaluate", "self_s", "s"),
    "supersystem.branch_evolve.calls": ("supersystem.branch_evolve", "calls", "count"),
    "supersystem.branch_evolve.self_s": ("supersystem.branch_evolve", "self_s", "s"),
    "collapse.order_parameter_trace.s": ("collapse.order_parameter_trace", "s", "s"),
    "collapse.sample_collapse.calls": ("collapse.sample_collapse", "calls", "count"),
    "collapse.sample_collapse.s": ("collapse.sample_collapse", "s", "s"),
    "collapse.classicize.s": ("collapse.classicize", "s", "s"),
    "collapse.outcomes_to_jsonl.s": ("collapse.outcomes_to_jsonl", "s", "s"),
    "collapse.outcomes_to_jsonl.bytes": ("collapse.outcomes_to_jsonl", "bytes", "computed_B"),
}

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import decolab.cli
decolab.cli.parse_config(sys.argv[1:])
print(time.perf_counter() - t0)
"""


def cap_blas_threads() -> int:
    """Set every BLAS thread count to the cores this process may use; must precede numpy."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cores)
    return cores


def tail(values: list) -> tuple:
    """(value, percentile, samples): the highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples for that, the maximum is reported.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


class Round:
    """Timings, checks and summary bytes of one round of requests."""

    def __init__(self):
        self.run_s = 0.0
        self.emit_s = 0.0
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.summaries: list = []

    @property
    def ok(self) -> bool:
        return not self.problems

    def compare(self, reference: "Round", what: str) -> None:
        """Fail each request whose summary.json bytes differ from the reference round's."""
        differing = sum(a != b for a, b in zip(self.summaries, reference.summaries))
        differing += abs(len(self.summaries) - len(reference.summaries))
        if differing:
            self.problems.append(f"summary.json differs {what} ({differing} requests)")
            self.failed = min(self.failed + differing, self.attempted)


def execute_round(cli, workload, requests, errors) -> Round:
    """Parse, run, emit and check each request of a round, in order."""
    result = Round()
    for j, request in enumerate(requests):
        out_dir = OUT / workload.name / f"request{j}"
        result.attempted += 1
        try:
            # emit_s is timed into an empty directory: overwriting the last
            # round's files adds block-freeing time that varies from run to run.
            if out_dir.exists():
                shutil.rmtree(out_dir)
            config = cli.parse_config([*request.argv, "--out", str(out_dir)])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                scenario = cli.run(config)
                t1 = time.perf_counter()
            t2 = time.perf_counter()
            cli.emit(scenario, config)
            t3 = time.perf_counter()
            result.run_s += t1 - t0
            result.emit_s += t3 - t2
            result.items += request.items
            problems = [f"warning {w.category.__name__}: {w.message}" for w in caught
                        if issubclass(w.category, errors.TMaxBeforeCritical)]
            problems += workload.check(request.expect, out_dir)
            result.summaries.append((out_dir / "summary.json").read_bytes())
        except Exception as exc:  # a raise in the program or in reading its output fails the request
            problems = [f"{request.argv[0]} raised {type(exc).__name__}: {exc}"]
        result.problems += problems
        result.failed += bool(problems)
    return result


def measure_setup(argv: list) -> float:
    """Seconds for `import decolab.cli` plus a first parse_config, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def per_layer_metrics(totals: dict, rounds: int, overhead_s: float) -> dict:
    metrics = {}
    for layer in LAYERS:
        entry = totals["layers"].get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = {"value": entry["calls"] / rounds, "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": entry["self_s"] / rounds, "unit": "s"}
    for metric, (name, field, unit) in NAMED_LAYER_METRICS.items():
        value = totals["names"].get(name, {}).get(field, 0)
        metrics[metric] = {"value": value / rounds, "unit": unit}
    metrics["tracing_overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics


def add_totals(into: dict, summary: dict) -> None:
    for group in ("names", "layers"):
        for key, entry in summary[group].items():
            target = into[group].setdefault(key, dict.fromkeys(entry, 0))
            for field, value in entry.items():
                target[field] += value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "decolab" / "cli.py").is_file():
        print(f"error: no decolab sources under {SRC}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    # Imported here so that the BLAS cap above is in place before numpy loads.
    import numpy

    from decolab import cli, errors
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; use one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "cores": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
    }, sort_keys=True))

    first = workload.make_round(args.seed, 0)
    setup_argv = [*first[0].argv, "--out", str(OUT)]
    setup_samples = []

    # Warm-up: round 0 untimed; its summaries are the reference for the repeat check.
    warm = execute_round(cli, workload, first, errors)
    rounds, traced_rounds, overheads, inputs = [], [], [], []
    totals = {"names": {}, "layers": {}}
    tracer = Tracer()
    start = time.perf_counter()
    deadline = start + args.seconds
    index = 0
    while True:
        while not args.trace and len(setup_samples) < SETUP_SAMPLES and (
            time.perf_counter() >= start + len(setup_samples) * args.seconds / SETUP_SAMPLES
        ):
            setup_samples.append(measure_setup(setup_argv))
        requests = workload.make_round(args.seed, index)
        inputs += [list(r.argv) for r in requests]
        plain = execute_round(cli, workload, requests, errors)
        if index == 0:
            plain.compare(warm, "between two runs of the same inputs")
        rounds.append(plain)
        if args.trace:
            with tracer:
                traced = execute_round(cli, workload, requests, errors)
            add_totals(totals, summarize(tracer.spans))
            tracer.spans.clear()
            traced.compare(plain, "between traced and untraced runs")
            traced_rounds.append(traced)
            if traced.ok and plain.ok:
                overheads.append((traced.run_s + traced.emit_s) - (plain.run_s + plain.emit_s))
        index += 1
        if time.perf_counter() >= deadline:
            break
    while not args.trace and len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(measure_setup(setup_argv))

    executed = [warm, *rounds, *traced_rounds]
    attempted = sum(r.attempted for r in executed)
    problems = [p for r in executed for p in r.problems]
    failed = sum(r.failed for r in executed)
    good = [r for r in rounds if r.ok]
    print(json.dumps({"inputs": inputs}))
    for problem in problems[:20]:
        print(f"FAILED CHECK: {problem}")
    if not good or (args.trace and not overheads):
        print("error: no round completed cleanly", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer_metrics(totals, len(traced_rounds), statistics.median(overheads))
    else:
        run_times = [r.run_s for r in good]
        tail_s, tail_pct, samples = tail(run_times)
        print(f"run_s.tail is p{tail_pct:.1f} of {samples} rounds")
        values = {
            "setup_s": statistics.median(setup_samples),
            "run_s": statistics.median(run_times),
            "run_s.tail": tail_s,
            "emit_s": statistics.median(r.emit_s for r in good),
            "items_per_s": statistics.median(r.items / (r.run_s + r.emit_s) for r in good),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
