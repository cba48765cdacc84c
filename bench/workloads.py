"""Seeded inputs and output checks for the benchmark workloads.

A workload turns (seed, round index) into a round: a short list of
requests, each one `decoherence-lab` argv plus the facts its output is
checked against.  Inputs come only from the seed, through `random.Random`
seeded with a string (hashed with SHA-512, so stable across runs and
platforms).  The checks read the files `cli.emit` wrote and hold however the
program's seed stream changes: they test laws (crossing time, Born weights,
the Bell bound, record/tally agreement), never pinned bytes.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from decolab.constants import MASS_SILVER, MU_B

# Sampled frequencies may sit this many binomial standard deviations from
# their Born weight before a run counts as failed.
BORN_SIGMAS = 5.0
# A numeric crossing may sit this many trace steps from the analytic tau_c.
CROSSING_STEPS = 2.0
# Dichotomic branch means saturate the Bell bound exactly, so lhs may exceed
# rhs by rounding; the program allows the same slack.
BELL_SLACK = 1e-12

SG_DELTA_Z = 1.0e-9  # m
SG_N_STEPS = 4000
SG_N_TRIALS = 2000
CLASSICIZE_N_TRIALS = 20000


@dataclass(frozen=True)
class Request:
    """One closed-loop call: the argv for `cli.parse_config` and what to check."""

    argv: tuple
    items: int  # gradient points, Bell configs or trials this request completes
    expect: dict


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _program_seed(rng: random.Random) -> str:
    return str(rng.randrange(2**32))


def _weights(amplitudes) -> list:
    norm = sum(abs(a) ** 2 for a in amplitudes)
    return [abs(a) ** 2 / norm for a in amplitudes]


def sg_round(seed: int, round_index: int) -> list:
    """One gradient point, log-uniform in [1e2, 1e4] T/m, read out at 3 tau_c."""
    rng = _rng("sg-sweep", seed, round_index)
    beta = 10.0 ** rng.uniform(2.0, 4.0)
    tau = math.sqrt(SG_DELTA_Z * MASS_SILVER / (MU_B * beta))
    t_max = 3.0 * tau
    # Unequal weights: |c_-|^2 in [0.15, 0.45] or [0.55, 0.85].
    w_minus = rng.uniform(0.15, 0.45)
    if rng.random() < 0.5:
        w_minus = 1.0 - w_minus
    c_minus = complex(math.sqrt(w_minus))
    c_plus = math.sqrt(1.0 - w_minus) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    argv = (
        "sterngerlach",
        "--beta-z", repr(beta),
        "--mass", repr(MASS_SILVER),
        "--mu-b", repr(MU_B),
        "--delta-z", repr(SG_DELTA_Z),
        "--c-minus", repr(c_minus),
        "--c-plus", repr(c_plus),
        "--t-max", repr(t_max),
        "--n-steps", str(SG_N_STEPS),
        "--n-trials", str(SG_N_TRIALS),
        "--seed", _program_seed(rng),
    )
    weights = _weights((c_minus, c_plus))
    expect = {
        "tau_c": tau,
        "step": t_max / SG_N_STEPS,
        "n_trials": SG_N_TRIALS,
        "weights": {"minus": weights[0], "plus": weights[1]},
        "trace_rows": SG_N_STEPS + 1,
    }
    return [Request(argv, 1, expect)]


def bell_round(seed: int, round_index: int) -> list:
    """A 2-branch then a 3-branch audited configuration, as in criterion 6."""
    rng = _rng("bell-audit", seed, round_index)
    requests = []
    for n_branches in (2, 3):
        argv = (
            "bell",
            "--mode", "audited",
            "--n-configs", "1",
            "--n-branches", str(n_branches),
            "--seed", _program_seed(rng),
        )
        requests.append(Request(argv, 1, {"n_configs": 1}))
    return requests


def classicize_round(seed: int, round_index: int) -> list:
    """3 to 6 unequal complex amplitudes, every trial written to JSONL."""
    rng = _rng("classicize-jsonl", seed, round_index)
    dim = rng.randint(3, 6)
    amplitudes = [
        math.sqrt(rng.uniform(0.2, 1.0)) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        for _ in range(dim)
    ]
    argv = (
        "classicize",
        "--amplitudes", ",".join(repr(a) for a in amplitudes),
        "--eps", repr(rng.uniform(0.5, 3.0)),
        "--n-trials", str(CLASSICIZE_N_TRIALS),
        "--seed", _program_seed(rng),
    )
    expect = {"n_trials": CLASSICIZE_N_TRIALS, "weights": _weights(amplitudes)}
    return [Request(argv, CLASSICIZE_N_TRIALS, expect)]


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when the output holds.


def _summary(out_dir: Path) -> dict:
    return json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))["summary"]


def _csv_rows(path: Path) -> list:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def born_problems(counts: list, weights: list, n_trials: int) -> list:
    """Counts sum to n_trials and each frequency is within BORN_SIGMAS of its weight."""
    problems = []
    if sum(counts) != n_trials:
        problems.append(f"counts {counts} sum to {sum(counts)}, expected {n_trials}")
    for i, (count, weight) in enumerate(zip(counts, weights)):
        sigma = math.sqrt(weight * (1.0 - weight) / n_trials)
        if abs(count / n_trials - weight) > BORN_SIGMAS * sigma:
            problems.append(
                f"branch {i}: frequency {count / n_trials} is more than "
                f"{BORN_SIGMAS} sigma from weight {weight}"
            )
    return problems


def check_sg(expect: dict, out_dir: Path) -> list:
    summary = _summary(out_dir)
    if not summary["collapsed"] or summary["counts"] is None:
        return ["summary reports collapsed: false"]
    problems = []
    tau = summary["tau_c_numeric"]
    if tau is None or abs(tau - expect["tau_c"]) > CROSSING_STEPS * expect["step"]:
        problems.append(f"numeric crossing {tau} is not within {CROSSING_STEPS} steps of {expect['tau_c']}")
    if summary["n_trials"] != expect["n_trials"]:
        problems.append(f"n_trials {summary['n_trials']} != {expect['n_trials']}")
    labels = ("minus", "plus")
    problems += born_problems(
        [summary["counts"][k] for k in labels], [expect["weights"][k] for k in labels], expect["n_trials"]
    )
    rows = _csv_rows(out_dir / "sterngerlach_order_parameter.csv")
    if len(rows) != expect["trace_rows"]:
        problems.append(f"trace has {len(rows)} rows, expected {expect['trace_rows']}")
    return problems


def check_bell(expect: dict, out_dir: Path) -> list:
    summary = _summary(out_dir)
    problems = []
    if summary["all_satisfied"] is not True:
        problems.append("all_satisfied is not true")
    rows = _csv_rows(out_dir / "bell_bounds.csv")
    if len(rows) != expect["n_configs"]:
        problems.append(f"{len(rows)} bound rows, expected {expect['n_configs']}")
    for row in rows:
        if not float(row["lhs"]) <= float(row["rhs"]) + BELL_SLACK:
            problems.append(f"config {row['config_index']}: lhs {row['lhs']} > rhs {row['rhs']}")
    return problems


def check_classicize(expect: dict, out_dir: Path) -> list:
    summary = _summary(out_dir)
    n_trials, weights = expect["n_trials"], expect["weights"]
    problems = []
    if summary["n_trials"] != n_trials:
        problems.append(f"n_trials {summary['n_trials']} != {n_trials}")
    counts = summary["counts"]
    problems += born_problems(counts, weights, n_trials)
    histogram = [int(row["count"]) for row in _csv_rows(out_dir / "classicize_histogram.csv")]
    if histogram != counts:
        problems.append(f"histogram counts {histogram} != summary counts {counts}")
    lines = (out_dir / "classicize_outcomes.jsonl").read_text(encoding="utf-8").splitlines()
    if len(lines) != n_trials:
        problems.append(f"{len(lines)} JSONL records, expected {n_trials}")
    tally = [0] * len(weights)
    for number, line in enumerate(lines, 1):
        record = json.loads(line)
        posterior, index = record["posterior"], record["branch_index"]
        if (
            len(posterior) != len(weights)
            or not 0 <= index < len(weights)
            or posterior[index] != 1.0
            or sum(1 for p in posterior if p != 0.0) != 1
        ):
            problems.append(f"JSONL record {number}: posterior {posterior} is not one-hot at {index}")
            break
        tally[index] += 1
    if tally != counts:
        problems.append(f"JSONL tallies {tally} != summary counts {counts}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object  # (seed, round_index) -> list[Request]
    check: object  # (expect, out_dir) -> list[str]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sg-sweep", sg_round, check_sg),
        Workload("bell-audit", bell_round, check_bell),
        Workload("classicize-jsonl", classicize_round, check_classicize),
    )
}
