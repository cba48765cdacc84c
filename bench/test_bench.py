"""Tests of the benchmark itself: tracer, output checks, input generator.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from decolab import cli  # noqa: E402
from tracer import CONSTRUCTORS, LAYERS, Tracer, summarize  # noqa: E402


def _decolab_namespace() -> dict:
    """(module, attribute) -> object for every loaded decolab module and traced class."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "decolab" or name.startswith("decolab.")):
            for attribute, value in vars(module).items():
                snapshot[(name, attribute)] = value
    for layer, classes in CONSTRUCTORS.items():
        module = sys.modules[LAYERS[layer]]
        for class_name in classes:
            snapshot[(class_name, "__post_init__")] = vars(getattr(module, class_name))["__post_init__"]
    return snapshot


def test_tracer_patches_reexports_and_restores_every_name():
    import decolab.scenarios as scenarios
    from decolab.hilbert import OperatorMatrix

    before = _decolab_namespace()
    original_run, original_bell, original_post_init = cli.run, scenarios.bell_evaluate, OperatorMatrix.__post_init__
    with Tracer() as tracer:
        patched = {(getattr(owner, "__name__", owner), attribute) for owner, attribute, _ in tracer.patched_names()}
        assert ("decolab.cli", "run") in patched
        assert ("decolab.cli", "sample_collapse") in patched  # from-import in cli
        assert ("decolab.scenarios", "bell_evaluate") in patched  # package re-export
        assert ("decolab.scenarios.sterngerlach", "branch_evolve") in patched
        assert cli.run is not original_run
        assert scenarios.bell_evaluate is not original_bell
        assert OperatorMatrix.__post_init__ is not original_post_init
    after = _decolab_namespace()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_self_times_sum_to_inclusive_total():
    config = cli.parse_config(
        ["sterngerlach", "--n-steps", "200", "--n-trials", "50", "--t-max", "6e-7", "--formats", "json"]
    )
    with Tracer() as tracer:
        cli.run(config)
    totals = summarize(tracer.spans)
    assert totals["names"]["cli.run"]["calls"] == 1
    assert totals["names"]["supersystem.branch_evolve"]["calls"] == 2 * 201
    self_total = sum(entry["self_s"] for entry in totals["names"].values())
    layer_total = sum(entry["self_s"] for entry in totals["layers"].values())
    assert self_total == pytest.approx(totals["root_s"], rel=1e-9)
    assert layer_total == pytest.approx(totals["root_s"], rel=1e-9)
    assert totals["root_s"] == pytest.approx(totals["names"]["cli.run"]["s"], rel=1e-12)


def test_summarize_derives_self_time_from_parents():
    # [name, layer, parent, start, end, bytes]; "b" nests inside another "b".
    spans = [
        ["a", "x", -1, 0.0, 10.0, 0],
        ["b", "y", 0, 1.0, 4.0, 0],
        ["b", "y", 1, 2.0, 3.0, 7],
        ["c", "x", 0, 5.0, 6.0, 0],
    ]
    totals = summarize(spans)
    assert totals["names"]["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0, "bytes": 0}
    assert totals["names"]["b"] == {"calls": 2, "s": 3.0, "self_s": 3.0, "bytes": 7}
    assert totals["layers"] == {"x": {"calls": 2, "self_s": 7.0}, "y": {"calls": 2, "self_s": 3.0}}
    assert totals["root_s"] == 10.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    make_round = workloads.WORKLOADS[name].make_round
    for seed in (0, 1, 2**40 + 3):
        for index in (0, 7):
            assert make_round(seed, index) == make_round(seed, index)
    assert make_round(1, 0) != make_round(2, 0)
    assert make_round(1, 0) != make_round(1, 1)


def _emit(request, out_dir: Path) -> Path:
    config = cli.parse_config([*request.argv, "--out", str(out_dir)])
    cli.emit(cli.run(config), config)
    return out_dir


def _edit_summary(out_dir: Path, edit) -> None:
    path = out_dir / "summary.json"
    payload = json.loads(path.read_text())
    edit(payload["summary"])
    path.write_text(json.dumps(payload))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real output of round 0 of each workload, seed 5: (request, directory)."""
    made = {}
    for name, workload in workloads.WORKLOADS.items():
        request = workload.make_round(5, 0)[0]
        made[name] = (request, _emit(request, tmp_path_factory.mktemp(name)))
    return made


def _copy(outputs, name, tmp_path):
    request, source = outputs[name]
    return request, Path(shutil.copytree(source, tmp_path / "copy"))


def test_checks_accept_real_output(outputs):
    for name, (request, out_dir) in outputs.items():
        assert workloads.WORKLOADS[name].check(request.expect, out_dir) == []


def test_sg_check_rejects_counts_off_by_one(outputs, tmp_path):
    request, out_dir = _copy(outputs, "sg-sweep", tmp_path)
    _edit_summary(out_dir, lambda s: s["counts"].update(minus=s["counts"]["minus"] + 1))
    assert workloads.check_sg(request.expect, out_dir)


def test_sg_check_rejects_no_collapse(outputs, tmp_path):
    request, out_dir = _copy(outputs, "sg-sweep", tmp_path)
    _edit_summary(out_dir, lambda s: s.update(collapsed=False, counts=None))
    assert workloads.check_sg(request.expect, out_dir) == ["summary reports collapsed: false"]


def test_sg_check_rejects_late_crossing(outputs, tmp_path):
    request, out_dir = _copy(outputs, "sg-sweep", tmp_path)
    _edit_summary(out_dir, lambda s: s.update(tau_c_numeric=request.expect["tau_c"] + 3 * request.expect["step"]))
    assert workloads.check_sg(request.expect, out_dir)


def test_bell_check_rejects_unsatisfied(outputs, tmp_path):
    request, out_dir = _copy(outputs, "bell-audit", tmp_path)
    _edit_summary(out_dir, lambda s: s.update(all_satisfied=False))
    assert workloads.check_bell(request.expect, out_dir) == ["all_satisfied is not true"]


def test_bell_check_rejects_lhs_above_rhs(outputs, tmp_path):
    request, out_dir = _copy(outputs, "bell-audit", tmp_path)
    path = out_dir / "bell_bounds.csv"
    header, row = path.read_text().splitlines()
    index, lhs, rhs, satisfied, chsh = row.split(",")
    path.write_text(f"{header}\n{index},{float(rhs) + 1e-6!r},{rhs},{satisfied},{chsh}\n")
    assert workloads.check_bell(request.expect, out_dir)


def test_classicize_check_rejects_missing_jsonl_line(outputs, tmp_path):
    request, out_dir = _copy(outputs, "classicize-jsonl", tmp_path)
    path = out_dir / "classicize_outcomes.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    problems = workloads.check_classicize(request.expect, out_dir)
    assert any("JSONL records" in p for p in problems)
    assert any("JSONL tallies" in p for p in problems)


def test_classicize_check_rejects_counts_off_by_one(outputs, tmp_path):
    request, out_dir = _copy(outputs, "classicize-jsonl", tmp_path)
    _edit_summary(out_dir, lambda s: s["counts"].__setitem__(0, s["counts"][0] + 1))
    assert workloads.check_classicize(request.expect, out_dir)


def test_classicize_check_rejects_posterior_not_one_hot(outputs, tmp_path):
    request, out_dir = _copy(outputs, "classicize-jsonl", tmp_path)
    path = out_dir / "classicize_outcomes.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    record["posterior"] = [0.5] * len(record["posterior"])
    path.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
    assert workloads.check_classicize(request.expect, out_dir)


def test_born_check_flags_a_frequency_far_from_its_weight():
    assert workloads.born_problems([500, 500], [0.5, 0.5], 1000) == []
    assert workloads.born_problems([600, 400], [0.5, 0.5], 1000)


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END_UNITS
    emitted = bench_run.per_layer_metrics({"names": {}, "layers": {}}, 1, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v["unit"] for k, v in emitted.items()}


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert bench_run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 100)
    assert bench_run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sg-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_a_request_that_raises_counts_as_failed(monkeypatch, tmp_path):
    from decolab import errors

    monkeypatch.setattr(bench_run, "OUT", tmp_path)
    good, bad = workloads.WORKLOADS["bell-audit"].make_round(3, 0)
    bad = workloads.Request(("bell", "--mode", "no-such-mode"), 1, bad.expect)
    result = bench_run.execute_round(cli, workloads.WORKLOADS["bell-audit"], [good, bad], errors)
    assert (result.attempted, result.failed, result.items) == (2, 1, 1)
    assert "raised DecolabError" in result.problems[0]
    assert not result.ok
