"""Command-line harness: `decoherence-lab <scenario> [--key value]...`.

Scenarios: sterngerlach, bell, bose, classicize, wavepacket-check.  Values
resolve flags > config file > defaults (the seed falls back to the
DECOLAB_SEED environment variable before its built-in 42).  Config files are
flat `key = value` lines with '#' comments, keyed like the flags (underscores
are accepted and treated as hyphens).  Every run writes summary.json (stable
key order, no timestamps, no NaN or infinity, byte-reproducible under a fixed
seed) plus one <scenario>_<trace>.csv per trace when csv output is selected.
A trace is a header plus one array per column, printed through one row
template per file; a column whose cells are all byte-equal is formatted once
and written into the template as literal text.

Exit codes: 0 success, 1 scenario error (out of memory included), 2
configuration error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .collapse import (
    decoherence_phase_spread,
    outcomes_to_jsonl,
    sample_collapse,
    split_seed,
    trace_table,
)
from .constants import CONSTANTS_VERSION, MASS_RB87, MASS_SILVER, MU_B, PAPER_ROUND
from .errors import (
    ConfigError,
    DecolabError,
    InvalidParameter,
    MissingRequired,
    NonPositiveInput,
    TypeMismatch,
    UnknownKey,
)
from .hilbert import make_state
from .scenarios import (
    BoseConfig,
    SGConfig,
    audited_configuration,
    bell_evaluate,
    bose_critical_temperature,
    chsh_optimal_observables,
    sg_run,
    singlet_state,
)
from .wavepacket import (
    GaussianPacket,
    Grid1D,
    check_a1,
    discretize_gaussian,
    grid_state_columns,
    momentum_mean_and_dev,
    position_operator,
)

DEFAULT_SEED = 42
SEED_ENV_VAR = "DECOLAB_SEED"
# Characters of a JSONL blob handed to the file per write.
JSONL_SLICE = 1 << 16
# printf code of a CSV cell by its column's dtype kind; anything else is %s.
CELL_CODES = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d"}

# Per-scenario parameter schemas: key -> (type tag, default).
SCHEMAS: dict[str, dict[str, tuple[str, object]]] = {
    "sterngerlach": {
        "beta-z": ("float", 1.0e3),
        "mass": ("float", MASS_SILVER),
        "mu-b": ("float", MU_B),
        "delta-z": ("float", 1.0e-9),
        "sigma0": ("float", 1.0e-9),
        "c-minus": ("complex", complex(1.0 / math.sqrt(2.0))),
        "c-plus": ("complex", complex(1.0 / math.sqrt(2.0))),
        "t-max": ("float", 3.0e-7),
        "n-steps": ("int", 1000),
        "n-trials": ("int", 2000),
    },
    "bell": {
        "mode": ("str", "singlet"),  # singlet | audited
        "sign": ("int", 1),
        "n-configs": ("int", 20),
        "n-branches": ("int", 2),
    },
    "bose": {
        "mass": ("float", MASS_RB87),
        "spacing": ("float", 2.0e-7),
        "temps": ("floats", (1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5)),
    },
    "classicize": {
        "amplitudes": ("complexes", (complex(math.sqrt(0.8)), complex(math.sqrt(0.2)))),
        "eps": ("float", math.pi),
        "n-trials": ("int", 10000),
    },
    "wavepacket-check": {
        "x0": ("float", 1.0e-6),
        "p0": ("float", 0.0),
        "sigma": ("float", 2.0e-8),
        "mass": ("float", MASS_SILVER),
        "grid-min": ("float", -2.0e-6),
        "grid-max": ("float", 4.0e-6),
        "grid-points": ("int", 2048),
    },
}

# Keys every scenario accepts (in files as well as flags).
COMMON_KEYS = ("seed", "out", "formats", "paper-constants")


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    params: dict
    seed: int = DEFAULT_SEED
    output_dir: Path = Path("runs")
    formats: frozenset = frozenset({"json", "csv"})
    paper_constants: bool = False


@dataclass
class ScenarioResult:
    scenario: str
    summary: dict
    traces: dict = field(default_factory=dict)  # name -> (header, columns)
    provenance: dict = field(default_factory=dict)
    jsonl: dict = field(default_factory=dict)  # name -> text blob


def _finite(value):
    if not cmath.isfinite(value):
        raise ValueError("nan and inf are not accepted")
    return value


def _convert(key: str, tag: str, raw):
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    try:
        if tag == "float":
            return _finite(float(text))
        if tag == "int":
            # exact for integers of any size; forms like 1e3 go through float
            value = int(text) if text.lstrip("+-").isdigit() else float(text)
            if value != int(value):
                raise ValueError
            return int(value)
        if tag == "complex":
            return _finite(complex(text.replace(" ", "")))
        if tag == "floats":
            parts = [p for p in text.split(",") if p.strip()]
            return tuple(_finite(float(p)) for p in parts)
        if tag == "complexes":
            parts = [p for p in text.split(",") if p.strip()]
            return tuple(_finite(complex(p.replace(" ", ""))) for p in parts)
        if tag == "bool":
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError
        return text
    except (ValueError, OverflowError) as exc:  # int(inf) overflows
        raise TypeMismatch(key, tag, raw) from exc


def _read_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise TypeMismatch(f"{path}:{line_number}", "key = value", line)
        key, value = stripped.split("=", 1)
        # files may spell keys with underscores; flags use hyphens
        values[key.strip().replace("_", "-")] = value.strip()
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoherence-lab",
        description="Order-parameter traces, collapse statistics and packet checks",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for scenario, schema in SCHEMAS.items():
        p = sub.add_parser(scenario)
        for key in schema:
            p.add_argument(f"--{key}", dest=key, default=None)
        p.add_argument("--seed", default=None)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--formats", default=None)
        p.add_argument("--paper-constants", dest="paper-constants", action="store_true", default=False)
    return parser


def parse_config(argv: list[str], file: str | Path | None = None) -> RunConfig:
    """Resolve a RunConfig from argv, an optional config file, and defaults."""
    namespace = vars(_build_parser().parse_args(argv))
    scenario = namespace.pop("scenario")
    schema = SCHEMAS[scenario]
    config_path = namespace.pop("config", None) or (str(file) if file is not None else None)
    file_values: dict[str, str] = {}
    if config_path is not None:
        file_values = _read_config_file(Path(config_path))
        for key in file_values:
            if key not in schema and key not in COMMON_KEYS:
                raise UnknownKey(key)

    def resolve(key: str, tag: str, default):
        if namespace.get(key) is not None:
            return _convert(key, tag, namespace[key])
        if key in file_values:
            return _convert(key, tag, file_values[key])
        return default

    params = {key: resolve(key, tag, default) for key, (tag, default) in schema.items()}
    for key, value in params.items():
        if isinstance(value, tuple) and not value:
            raise MissingRequired(key)
    seed = namespace.get("seed")
    if seed is None:
        seed = file_values.get("seed")
    if seed is None:
        seed = os.environ.get(SEED_ENV_VAR)
    seed = DEFAULT_SEED if seed is None else _convert("seed", "int", seed)
    out = namespace.get("out") or file_values.get("out") or "runs"
    formats_raw = namespace.get("formats") or file_values.get("formats") or "json,csv"
    formats = frozenset(p.strip() for p in str(formats_raw).split(",") if p.strip())
    if not formats <= {"json", "csv"}:
        raise TypeMismatch("formats", "subset of json,csv", str(formats_raw))
    paper = bool(namespace.get("paper-constants")) or bool(
        _convert("paper-constants", "bool", file_values.get("paper-constants", "false"))
    )
    return RunConfig(
        scenario=scenario,
        params=params,
        seed=int(seed),
        output_dir=Path(out),
        formats=formats,
        paper_constants=paper,
    )


# ---------------------------------------------------------------------------
# Scenario dispatch.


def _run_sterngerlach(config: RunConfig) -> ScenarioResult:
    p = dict(config.params)
    if config.paper_constants:
        # Round literature values unless explicitly overridden.
        if p["mass"] == MASS_SILVER:
            p["mass"] = PAPER_ROUND["mass"]
        if p["mu-b"] == MU_B:
            p["mu-b"] = PAPER_ROUND["mu_b"]
    sg = SGConfig(
        beta_z=p["beta-z"],
        mass=p["mass"],
        mu_b=p["mu-b"],
        delta_z=p["delta-z"],
        c_minus=p["c-minus"],
        c_plus=p["c-plus"],
        sigma0=p["sigma0"],
        t_max=p["t-max"],
        n_steps=p["n-steps"],
    )
    result = sg_run(sg, n_trials=p["n-trials"], seed=config.seed)
    summary = {
        "tau_c_analytic": result.tau_c_analytic,
        "tau_c_numeric": result.tau_c_numeric,
        "weights": result.weights,
        "counts": result.counts,
        "frequencies": result.frequencies,
        "n_trials": result.n_trials,
        "constants": {"mu_b": sg.mu_b, "mass": sg.mass, "beta_z": sg.beta_z, "delta_z": sg.delta_z},
        "collapsed": result.counts is not None,
    }
    return ScenarioResult(
        scenario=config.scenario,
        summary=summary,
        traces={"order_parameter": trace_table(result.trace)},
    )


def _run_bell(config: RunConfig) -> ScenarioResult:
    mode = config.params["mode"]
    sign = config.params["sign"]
    if mode == "singlet":
        report = bell_evaluate(
            singlet_state(), chsh_optimal_observables(), sign=sign, enforce_approx=False
        )
        summary = {
            "mode": mode,
            "lhs": report.lhs,
            "rhs": report.rhs,
            "satisfied": report.satisfied,
            "chsh_value": report.chsh_value,
        }
        return ScenarioResult(scenario=config.scenario, summary=summary)
    if mode != "audited":
        raise DecolabError(f"unknown bell mode {mode!r}; use singlet or audited")
    n_configs, n_branches = config.params["n-configs"], config.params["n-branches"]
    if n_configs < 1:
        raise NonPositiveInput(f"n_configs must be at least 1, got {n_configs}")
    seeds = (split_seed(config.seed, i) for i in range(n_configs))
    audited = (audited_configuration(s, n_branches=n_branches) for s in seeds)
    reports = [bell_evaluate(state, obs, sign=sign, enforce_approx=True) for state, obs in audited]
    header = ["config_index", "lhs", "rhs", "satisfied", "chsh_value"]
    columns = [np.arange(n_configs)]
    columns += [np.array([getattr(r, name) for r in reports]) for name in header[1:]]
    summary = {
        "mode": mode,
        "n_configs": n_configs,
        "all_satisfied": all(r.satisfied and r.approx_conditions_met for r in reports),
    }
    return ScenarioResult(
        scenario=config.scenario, summary=summary, traces={"bounds": (header, columns)}
    )


def _run_bose(config: RunConfig) -> ScenarioResult:
    bose = BoseConfig(
        mass=config.params["mass"],
        spacing=config.params["spacing"],
        temperatures=config.params["temps"],
    )
    result = bose_critical_temperature(bose)
    header = ["temperature", "wavelength", "phase"]
    columns = [np.array(bose.temperatures), np.array(result.wavelengths), np.array(result.phases)]
    summary = {
        "t_c": result.t_c,
        "mass": bose.mass,
        "spacing": bose.spacing,
        "n_condensed": sum(1 for p in result.phases if p == "condensed"),
    }
    return ScenarioResult(
        scenario=config.scenario, summary=summary, traces={"classification": (header, columns)}
    )


def _run_classicize(config: RunConfig) -> ScenarioResult:
    psi = make_state(np.array(config.params["amplitudes"], dtype=complex))
    eps = config.params["eps"]
    n_trials = config.params["n-trials"]
    drawn = sample_collapse(psi, n_trials, config.seed)
    counts = np.bincount(drawn, minlength=psi.dim)
    weights = np.abs(psi.amplitudes) ** 2
    header = ["branch", "weight", "count", "frequency"]
    columns = [np.arange(psi.dim), weights, counts, counts / n_trials]
    summary = {
        "weights": weights.tolist(),
        "counts": counts.tolist(),
        "n_trials": n_trials,
        "eps": eps,
        "phase_spread": decoherence_phase_spread(psi, eps),
    }
    return ScenarioResult(
        scenario=config.scenario,
        summary=summary,
        traces={"histogram": (header, columns)},
        jsonl={"outcomes": outcomes_to_jsonl(drawn, weights)},
    )


def _run_wavepacket_check(config: RunConfig) -> ScenarioResult:
    p = config.params
    grid = Grid1D(p["grid-min"], p["grid-max"], p["grid-points"])
    packet = GaussianPacket(p["x0"], p["p0"], p["sigma"], p["mass"])
    psi = discretize_gaussian(grid, packet)
    report = check_a1(psi, position_operator(grid))
    p_mean, p_dev = momentum_mean_and_dev(grid, psi)
    summary = {
        "x_mean": report.mean,
        "x_deviation": report.deviation,
        "ratio": report.ratio,
        "passes_a1": report.passes_a1,
        "p_mean": p_mean,
        "p_deviation": p_dev,
        "uncertainty_product": report.deviation * p_dev,
    }
    return ScenarioResult(
        scenario=config.scenario,
        summary=summary,
        traces={"state": (["x", "re_psi", "im_psi", "abs2_psi"], grid_state_columns(grid, psi))},
    )


_RUNNERS = {
    "sterngerlach": _run_sterngerlach,
    "bell": _run_bell,
    "bose": _run_bose,
    "classicize": _run_classicize,
    "wavepacket-check": _run_wavepacket_check,
}


def _jsonable_params(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        if isinstance(value, complex):
            out[key] = [value.real, value.imag]
        elif isinstance(value, tuple):
            out[key] = [
                [v.real, v.imag] if isinstance(v, complex) else v for v in value
            ]
        else:
            out[key] = value
    return out


def run(config: RunConfig) -> ScenarioResult:
    """Execute the scenario; fully deterministic for a fixed config and seed."""
    result = _RUNNERS[config.scenario](config)
    result.provenance = {
        "constants_version": CONSTANTS_VERSION,
        "package_version": __version__,
        "scenario": config.scenario,
        "seed": config.seed,
        "paper_constants": config.paper_constants,
        "params": _jsonable_params(config.params),
        "formats": sorted(config.formats),
    }
    return result


def emit(result: ScenarioResult, config: RunConfig) -> list[Path]:
    """Write summary.json (always) and CSV/JSONL traces into the output dir."""
    payload = {
        "scenario": result.scenario,
        "summary": result.summary,
        "provenance": result.provenance,
    }
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:  # NaN and Infinity are not JSON
        raise InvalidParameter(f"summary holds a non-finite value: {exc}") from exc
    out_dir = config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    summary_path = out_dir / "summary.json"
    summary_path.write_text(text + "\n", encoding="utf-8")
    written.append(summary_path)
    if "csv" in config.formats:
        for name, (header, columns) in result.traces.items():
            path = out_dir / f"{result.scenario}_{name}.csv"
            codes, varying = [], []
            for c in columns:
                code = CELL_CODES.get(c.dtype.kind, "%s")
                # A column whose cells are all byte-equal is formatted once
                # and becomes literal text of the row template.  Bytes, not
                # ==, so 0.0 and -0.0 (or two NaN payloads) are never merged.
                if c.size and c.tobytes() == c[:1].tobytes() * c.size:
                    code = (code % (c.item(0),)).replace("%", "%%")
                else:
                    varying.append(c)
                codes.append(code)
            row = ",".join(codes) + "\n"
            n_rows = min((c.size for c in columns), default=0)
            cells = zip(*(c.tolist() for c in varying)) if varying else repeat((), n_rows)
            with path.open("w", encoding="utf-8") as f:
                f.write(",".join(header) + "\n")
                # One % per row, streamed through the file buffer: joining the
                # rows first, or one % over every cell, holds more memory at peak.
                f.writelines(map(row.__mod__, cells))
            written.append(path)
    if "json" in config.formats:
        for name, blob in result.jsonl.items():
            path = out_dir / f"{result.scenario}_{name}.jsonl"
            # Slices keep the encoder from allocating a second full-size copy
            # of a multi-megabyte blob, whose fresh pages cost more to fault
            # in than the write itself.
            with path.open("w", encoding="utf-8") as f:
                for start in range(0, len(blob), JSONL_SLICE):
                    f.write(blob[start : start + JSONL_SLICE])
            written.append(path)
    return written


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_config(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse already printed its diagnostic
        return int(exc.code or 0)
    try:
        result = run(config)
        written = emit(result, config)
    except (DecolabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
