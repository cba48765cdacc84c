"""End-to-end harness tests: parsing precedence, determinism, emission."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from decolab.cli import SCHEMAS, RunConfig, ScenarioResult, emit, main, parse_config, run
from decolab.constants import HBAR
from decolab.errors import ConfigError, TMaxBeforeCritical


def do_run(tmp_path, argv, name="out"):
    out = tmp_path / name
    config = parse_config(argv + ["--out", str(out)])
    result = run(config)
    emit(result, config)
    return out, json.loads((out / "summary.json").read_text())


# ----------------------------------------------------------------- parsing


def test_defaults_and_seed_flag():
    config = parse_config(["sterngerlach", "--seed", "7"])
    assert config.scenario == "sterngerlach"
    assert config.seed == 7
    assert config.params["beta-z"] == 1e3
    assert config.formats == frozenset({"json", "csv"})


def test_bose_temps_flag_parses_list():
    config = parse_config(
        ["bose", "--mass", "1.443e-25", "--spacing", "2e-7", "--temps", "1e-7,1e-6,1e-5"]
    )
    assert config.params["temps"] == (1e-7, 1e-6, 1e-5)
    assert config.params["mass"] == 1.443e-25


def test_flag_beats_file_beats_default(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta_z = 2e3\nsigma0 = 3e-9  # comment survives\n")
    config = parse_config(
        ["sterngerlach", "--config", str(cfg), "--beta-z", "1e3"]
    )
    assert config.params["beta-z"] == 1e3  # flag wins
    assert config.params["sigma0"] == 3e-9  # file beats default
    assert config.params["delta-z"] == 1e-9  # default survives


def test_seed_precedence_env_lowest(tmp_path, monkeypatch):
    monkeypatch.setenv("DECOLAB_SEED", "99")
    assert parse_config(["bose"]).seed == 99
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 55\n")
    assert parse_config(["bose", "--config", str(cfg)]).seed == 55
    assert parse_config(["bose", "--config", str(cfg), "--seed", "11"]).seed == 11
    monkeypatch.delenv("DECOLAB_SEED")
    assert parse_config(["bose"]).seed == 42


@pytest.mark.parametrize(
    "text, expected",
    [("9007199254740993", 2**53 + 1), ("18446744073709551615", 2**64 - 1), ("1e3", 1000)],
)
def test_seed_is_exact_above_two_to_the_53(monkeypatch, text, expected):
    # integers parse exactly at any size; only exponent forms go through float
    assert parse_config(["classicize", "--seed", text]).seed == expected
    monkeypatch.setenv("DECOLAB_SEED", text)
    assert parse_config(["classicize"]).seed == expected


def test_unknown_file_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta_q = 1e3\n")
    with pytest.raises(ConfigError, match="unknown configuration key") as err:
        parse_config(["sterngerlach", "--config", str(cfg)])
    assert "beta-q" in str(err.value)


def test_type_mismatches_rejected(tmp_path):
    with pytest.raises(ConfigError, match="expected float, got 'not-a-number'"):
        parse_config(["sterngerlach", "--beta-z", "not-a-number"])
    with pytest.raises(ConfigError, match="expected int, got '2.5'"):
        parse_config(["sterngerlach", "--n-steps", "2.5"])
    with pytest.raises(ConfigError, match="expected subset of json,csv, got 'json,yaml'"):
        parse_config(["bose", "--formats", "json,yaml"])
    broken = tmp_path / "broken.cfg"
    broken.write_text("this line has no equals sign\n")
    with pytest.raises(ConfigError, match="expected key = value, got 'this line has no equals sign'"):
        parse_config(["bose", "--config", str(broken)])


def test_complex_amplitudes_parse():
    config = parse_config(["classicize", "--amplitudes", "0.6+0j,0.8j"])
    assert config.params["amplitudes"] == (0.6 + 0j, 0.8j)


# ------------------------------------------------------------- determinism


def test_repeated_run_summary_bytes_identical(tmp_path):
    argv = ["classicize", "--n-trials", "300", "--seed", "5"]
    out1, _ = do_run(tmp_path, argv, "first")
    out2, _ = do_run(tmp_path, argv, "second")
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert (out1 / "classicize_outcomes.jsonl").read_bytes() == (
        out2 / "classicize_outcomes.jsonl"
    ).read_bytes()
    assert (out1 / "classicize_histogram.csv").read_bytes() == (
        out2 / "classicize_histogram.csv"
    ).read_bytes()


def test_different_seed_changes_outcomes(tmp_path):
    _, s1 = do_run(tmp_path, ["classicize", "--n-trials", "300", "--seed", "5"], "a")
    _, s2 = do_run(tmp_path, ["classicize", "--n-trials", "300", "--seed", "6"], "b")
    assert s1["summary"]["counts"] != s2["summary"]["counts"]


# ---------------------------------------------------------------- emission


def test_sterngerlach_emits_order_parameter_csv(tmp_path):
    out, summary = do_run(
        tmp_path,
        ["sterngerlach", "--paper-constants", "--n-trials", "50", "--n-steps", "200"],
    )
    csv_path = out / "sterngerlach_order_parameter.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,gap,critical"
    assert len(lines) == 202  # header + n_steps + 1 samples
    assert math.isclose(summary["summary"]["tau_c_analytic"], 1e-7, rel_tol=1e-12)


def test_csv_cells_round_trip_doubles(tmp_path):
    out, summary = do_run(tmp_path, ["bose", "--temps", "1e-7,1e-6"])
    lines = (out / "bose_classification.csv").read_text().splitlines()
    assert lines[0] == "temperature,wavelength,phase"
    for line in lines[1:]:
        t_text, lam_text, _ = line.split(",")
        assert float(t_text) in (1e-7, 1e-6)
        # 17 significant digits reproduce the binary double exactly
        from decolab.scenarios.bose import thermal_de_broglie

        assert float(lam_text) == thermal_de_broglie(1.443e-25, float(t_text))


def test_formats_json_only_suppresses_csv(tmp_path):
    out, _ = do_run(tmp_path, ["bose", "--formats", "json"])
    assert (out / "summary.json").exists()
    assert not list(out.glob("*.csv"))


def test_reemit_overwrites(tmp_path):
    argv = ["bose", "--temps", "1e-6"]
    out, _ = do_run(tmp_path, argv, "same")
    first = (out / "summary.json").read_bytes()
    out, _ = do_run(tmp_path, argv, "same")
    assert (out / "summary.json").read_bytes() == first
    assert len(list(out.glob("summary*.json"))) == 1


def test_provenance_echoes_parameters(tmp_path):
    _, summary = do_run(tmp_path, ["bose", "--temps", "1e-6", "--seed", "3"])
    prov = summary["provenance"]
    assert prov["seed"] == 3
    assert prov["params"]["temps"] == [1e-6]
    assert prov["constants_version"]
    assert prov["scenario"] == "bose"


# -------------------------------------------------------------- scenarios


def test_bell_singlet_summary_headline(tmp_path):
    _, summary = do_run(tmp_path, ["bell", "--mode", "singlet"])
    assert math.isclose(summary["summary"]["chsh_value"], 2.828427, rel_tol=1e-6)
    assert summary["summary"]["satisfied"] is False


def test_bell_audited_summary(tmp_path):
    _, summary = do_run(tmp_path, ["bell", "--mode", "audited", "--n-configs", "5"])
    assert summary["summary"]["all_satisfied"] is True


def test_wavepacket_check_uncertainty_floor(tmp_path):
    _, summary = do_run(tmp_path, ["wavepacket-check"])
    product = summary["summary"]["uncertainty_product"]
    assert math.isclose(product, 1.0545718e-34 / 2.0, rel_tol=1e-9)
    assert summary["summary"]["passes_a1"] is True


def test_classicize_summary_reports_phase_spread(tmp_path):
    _, summary = do_run(tmp_path, ["classicize", "--n-trials", "100"])
    assert math.isclose(
        summary["summary"]["phase_spread"], math.pi * 0.6, rel_tol=1e-9
    )


# Amplitudes whose squares overflow, or round as subnormals, normalize like 1,1.
@pytest.mark.parametrize("scale", ["1e200", "1e160", "1e-160", "1e-200"])
def test_classicize_equal_amplitudes_at_extreme_scales(tmp_path, capsys, scale):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["classicize", "--amplitudes", f"{scale},{scale}", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    weights = json.loads((out / "summary.json").read_text())["summary"]["weights"]
    assert weights == pytest.approx([0.5, 0.5], rel=1e-15, abs=0.0)


# The one pinned run whose readout time precedes the critical time; it warns.
PRE_TAU_ARGV = ["sterngerlach", "--t-max", "5e-8", "--n-steps", "100", "--seed", "3"]

# Output bytes pinned by SHA-256, so a storage or evaluation-order change in the
# operators cannot move a single digit of what these scenarios write.
PINNED_OUTPUTS = [
    (
        ["bell", "--mode", "audited", "--n-configs", "4", "--n-branches", "2", "--seed", "11"],
        {
            "summary.json": "dd11a2029951e0822632ec64b0ee3b08093720e8b4c0f9d8e81ae4cb903b18db",
            "bell_bounds.csv": "9147a94e3bcf1f5bd115b33e92ff6042878cc005f78124ee8f7675817bc75a1b",
        },
    ),
    (
        ["bell", "--mode", "audited", "--n-configs", "4", "--n-branches", "3", "--seed", "11"],
        {
            "summary.json": "cfdcb9a398500a35f3a0ced3b4e4a5e50ae6a020e00191e3ed4b7d6096be6d04",
            "bell_bounds.csv": "80a06a343334b502149039a76729b83eaeb86aa54979481adfe0fa5ecda75679",
        },
    ),
    (
        ["wavepacket-check"],
        {
            "summary.json": "544352e7ee86d22a5d4fe5b78091caf75748ec44852fb92b37d92bb35a34b7fc",
            "wavepacket-check_state.csv": "e4856b166d66baf11814eab5b42879662a2c423d1d38505a66528f43d6c38622",
        },
    ),
    (
        ["sterngerlach", "--c-minus", "0.6", "--c-plus", "0.8j", "--n-steps", "400",
         "--n-trials", "500", "--seed", "3"],
        {
            "summary.json": "8a80586477d7c2c10df73fe0ac1f37280e1e6268d961a69813fda9f96fb58998",
            "sterngerlach_order_parameter.csv": "94b46adcd2e72db960cba54534460bd6bec8cbab65cee73cb32fc1993925b3bc",
        },
    ),
    (
        PRE_TAU_ARGV,
        {
            "summary.json": "c9a23252114e9cff4b18ed8f30a7d7941a11517aaa950cddc25a9f9800297fcc",
            "sterngerlach_order_parameter.csv": "6d5a7355d4126300b3f0a14d279948407d77617ac1629890ef89c96ed993e28a",
        },
    ),
    (
        ["classicize", "--n-trials", "300", "--seed", "5"],
        {
            "summary.json": "b2a98795321dbc20577b04feba611daad0d8581e53a737d4ac5a40e2bfba8c37",
            "classicize_histogram.csv": "335133583e2d1f6f2a24f8dc77ead93a985e49bbfd60ff0200a754d4a7ac14a1",
            "classicize_outcomes.jsonl": "013517c970385d61b6a356d56369874fc7395e7fd4aef83355d710903d265ca1",
        },
    ),
    (
        # 4096 points is where a squared magnitude computed any way but
        # Python's float ** 2 first moves a last digit of abs2_psi.
        ["wavepacket-check", "--grid-points", "4096"],
        {
            "summary.json": "e5d027afa154986eac74b8f08912c0c7d23deebf6e41a36774b393c65cbd8462",
            "wavepacket-check_state.csv": "f141f825e4b3a114e1956e585b6802ce05f6cc8dc02a4dd3ef55c55c8ece6590",
        },
    ),
    (
        # The only trace with a string column (phase).
        ["bose"],
        {
            "summary.json": "8451ee0ef0910c1b783c40e95f49ab6b3d36e3c8ffa68708052c2159758780a4",
            "bose_classification.csv": "54578c15efd028d70d33f6d134d1e41d181a85eae265f8cfa42904ca06e51868",
        },
    ),
    (
        # A JSONL file many write slices long, with trial numbers past 10^4.
        ["classicize", "--amplitudes", "0.9,0.5j,0.4,0.3,0.2", "--n-trials", "20000",
         "--seed", "7"],
        {
            "summary.json": "aadbac6f9c29435d4aad94b2da6c6debc805a5e6b05a37468a2f11fca7e947ba",
            "classicize_histogram.csv": "6b69963cf51ba15e95d45a5ee27b0b8664dc80759bccefcd9864465b65cc7c46",
            "classicize_outcomes.jsonl": "a5780e08a8afa10811c85945f01309c61091b56664015d525cd3333d912ef124",
        },
    ),
]


@pytest.mark.parametrize(
    "argv,digests",
    PINNED_OUTPUTS,
    ids=[
        "bell-2", "bell-3", "wavepacket", "sg-collapse", "sg-pre-tau", "classicize",
        "wavepacket-4096", "bose", "classicize-20000",
    ],
)
def test_output_bytes_pinned(tmp_path, argv, digests):
    pre_tau = argv == PRE_TAU_ARGV
    with pytest.warns(TMaxBeforeCritical) if pre_tau else contextlib.nullcontext():
        out, _ = do_run(tmp_path, argv)
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert written == digests


def _format_cell(value) -> str:
    """Cell formatting of the per-cell emitter that the row template replaced."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


TINY = 2.2250738585072014e-308  # smallest normal double
FLOAT_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, TINY, -TINY, 1.7976931348623157e308]),
    st.floats(min_value=-TINY, max_value=TINY),  # subnormals and both zeros
    st.floats(min_value=1e299, max_value=1e301),
    st.floats(min_value=-1e301, max_value=-1e299),
    st.floats(min_value=1e-301, max_value=1e-299),
    st.floats(min_value=-1e-299, max_value=-1e-301),
)
CELLS = {
    np.float64: FLOAT_CELLS,
    np.int64: st.integers(min_value=-(2**63), max_value=2**63 - 1),
    np.bool_: st.booleans(),
    # NumPy strings drop trailing NULs, which no trace holds
    np.str_: st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"), max_size=6),
}


@st.composite
def trace_columns(draw):
    n_rows = draw(st.integers(min_value=0, max_value=12))
    dtypes = draw(st.lists(st.sampled_from(list(CELLS)), min_size=1, max_size=7))
    columns = []
    for d in dtypes:
        if draw(st.booleans()):  # one cell repeated: a constant column
            cells = [draw(CELLS[d])] * n_rows
        else:
            cells = draw(st.lists(CELLS[d], min_size=n_rows, max_size=n_rows))
        columns.append(np.array(cells, dtype=d))
    return columns


def assert_emit_matches_per_cell_formatting(columns):
    header = [f"c{i}" for i in range(len(columns))]
    rows = zip(*(column.tolist() for column in columns))
    lines = [",".join(header)] + [",".join(_format_cell(v) for v in row) for row in rows]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        config = RunConfig(scenario="prop", params={}, output_dir=out, formats=frozenset({"csv"}))
        emit(ScenarioResult("prop", {}, traces={"t": (header, columns)}), config)
        assert (out / "prop_t.csv").read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


@seed(16)
@settings(max_examples=200, deadline=None)
@given(columns=trace_columns())
def test_emit_matches_per_cell_formatting(columns):
    assert_emit_matches_per_cell_formatting(columns)


@pytest.mark.parametrize(
    "columns",
    [
        [np.arange(3), np.array([0.0, -0.0, 0.0])],
        [np.arange(3), np.full(3, np.nan)],
        [np.arange(3), np.array(["5%", "5%", "5%"])],
        [np.full(3, 0.1), np.array(["%d%%s", "%d%%s", "%d%%s"]), np.ones(3, dtype=bool)],
        [np.array([], dtype=float), np.array([], dtype=np.str_)],
    ],
    ids=["signed-zeros", "nan", "str-percent", "all-constant", "no-rows"],
)
def test_emit_folds_constant_columns_exactly(columns):
    assert_emit_matches_per_cell_formatting(columns)


# -------------------------------------------------------------- exit codes


def test_main_success_exit_zero(tmp_path, capsys):
    code = main(["bose", "--temps", "1e-6", "--out", str(tmp_path / "ok")])
    assert code == 0
    assert "wrote" in capsys.readouterr().out


def test_main_usage_error_exit_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense_key = 1\n")
    code = main(["sterngerlach", "--config", str(cfg)])
    assert code == 2
    assert "nonsense-key" in capsys.readouterr().err
    assert main(["bose", "--mass", "abc"]) == 2
    capsys.readouterr()


def test_main_argparse_unknown_flag_exit_two(capsys):
    assert main(["bose", "--no-such-flag", "1"]) == 2
    capsys.readouterr()


def test_main_scenario_error_exit_one(tmp_path, capsys):
    code = main(["bose", "--temps=-1e-6", "--out", str(tmp_path / "bad")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_main_bad_mode_exit_one(tmp_path, capsys):
    code = main(["bell", "--mode", "sideways", "--out", str(tmp_path / "bad")])
    assert code == 1
    capsys.readouterr()


# Every real or complex flag of every scenario, each value written as
# --key=value so argparse does not read -inf as an option.
NON_FINITE_ARGVS = [
    [scenario, f"--{key}={value}"]
    for scenario, schema in SCHEMAS.items()
    for key, (tag, _) in schema.items()
    if tag in ("float", "complex", "floats", "complexes")
    for value in ("nan", "inf", "-inf")
]
# Integer flags, the seed, overflowing literals and one bad element of a list.
NON_FINITE_ARGVS += [
    ["classicize", "--n-trials", "inf"],
    ["classicize", "--seed", "inf"],
    ["classicize", "--seed=-inf"],
    ["classicize", "--amplitudes", "1,infj"],
    ["sterngerlach", "--beta-z", "1e400"],
    ["sterngerlach", "--c-minus", "nan+0j"],
    ["sterngerlach", "--n-steps", "nan"],
    ["bose", "--temps", "1e-6,-inf"],
    ["bose", "--temps", ","],
    ["classicize", "--amplitudes", ""],
]


@pytest.mark.parametrize("argv", NON_FINITE_ARGVS)
def test_main_non_finite_flag_exit_two(tmp_path, capsys, argv):
    out = tmp_path / "bad"
    assert main(argv + ["--out", str(out)]) == 2
    key = argv[1].lstrip("-").split("=")[0]
    assert f"(key: {key})" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["classicize", "sterngerlach"])
@pytest.mark.parametrize("n_trials", ["0", "-3"])
def test_main_fewer_than_one_trial_exit_one(tmp_path, capsys, scenario, n_trials):
    out = tmp_path / "bad"
    assert main([scenario, "--n-trials", n_trials, "--out", str(out)]) == 1
    assert "n_trials" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


# Bad values that only a scenario's own constructor or runner can judge,
# including counts the run would not otherwise use.
@pytest.mark.parametrize(
    "argv",
    [
        ["sterngerlach", "--beta-z", "-1"],
        ["sterngerlach", "--mass", "0"],
        ["sterngerlach", "--n-steps", "1"],
        ["sterngerlach", "--c-minus", "0.9"],
        ["sterngerlach", "--t-max", "5e-8", "--n-trials", "-3"],
        ["wavepacket-check", "--sigma", "-1"],
        ["wavepacket-check", "--mass", "-1"],
        ["wavepacket-check", "--grid-points", "8"],
        ["bell", "--sign", "2"],
        ["bell", "--mode", "audited", "--n-branches", "4"],
        ["bell", "--mode", "audited", "--n-configs", "-2"],
        ["bell", "--mode", "audited", "--n-configs", "0"],
        ["sterngerlach", "--t-max", "5e-324", "--n-steps", "2"],
        ["bose", "--spacing", "1e300"],
        ["bose", "--mass", "1e-300"],
        ["bose", "--mass", "1e-30", "--temps", "1e-300"],
        ["sterngerlach", "--mu-b", "1e300", "--beta-z", "1e300"],
        ["sterngerlach", "--t-max", "1e200"],
        ["sterngerlach", "--beta-z", "1e300"],
        # sigma = dx / 100, unresolved: sampled, it is an eigenstate with an
        # infinite A1 ratio
        ["wavepacket-check", "--grid-min=-1e-6", "--grid-max=1e-6", "--grid-points", "2001",
         "--x0", "5e-7", "--sigma", "1e-11"],
        ["sterngerlach", "--delta-z", "4e-9"],
        ["sterngerlach", "--sigma0", "4e-9"],
        # sigma = 0.3 dx, unresolved: sampled, dx dp falls below hbar / 2
        ["wavepacket-check", "--grid-min=-1e-6", "--grid-max=1e-6", "--grid-points", "2001",
         "--x0", "5e-7", "--sigma", "3e-10"],
        # p0 above the Nyquist momentum pi hbar / dx: sampled, p_mean aliases
        ["wavepacket-check", "--p0", "2e-25"],
        # the envelope's 4 sigma^2 underflows to 0
        ["wavepacket-check", "--sigma", "1e-300"],
        ["bell", "--mode", "no-such-mode"],
    ],
    ids=[
        "sg-beta-z", "sg-mass", "sg-n-steps", "sg-c-minus", "sg-pre-tau-n-trials",
        "wp-sigma", "wp-mass", "wp-grid-points",
        "bell-sign", "bell-n-branches", "bell-n-configs-negative", "bell-n-configs-zero",
        "sg-t-max-subnormal",
        "bose-spacing-overflow", "bose-mass-t-c-overflow", "bose-wavelength-overflow",
        "sg-force-overflow", "sg-position-overflow", "sg-potential-overflow",
        "wp-infinite-ratio",
        "sg-delta-z-mismatch", "sg-sigma0-mismatch",
        "wp-under-resolved", "wp-aliased-momentum", "wp-sigma-underflow",
        "bell-mode",
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_main_invalid_parameter_exit_one(tmp_path, capsys, argv):
    out = tmp_path / "bad"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not (out / "summary.json").exists()


def test_main_out_of_memory_exit_one(tmp_path, capsys, monkeypatch):
    # an allocation NumPy refuses (a huge --n-steps) raises MemoryError;
    # stand it in for the real allocation rather than attempt one
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr("decolab.cli.sg_run", refuse)
    out = tmp_path / "oom"
    assert main(["sterngerlach", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate")
    assert "Traceback" not in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("k", [-25, -10, 0, 10, 25])
def test_wavepacket_check_verdict_is_scale_free(k):
    # every length x 10^k: x0 / sigma stays 50, dx dp stays hbar / 2
    scale = 10.0**k
    lengths = {"x0": 1.0e-6, "sigma": 2.0e-8, "grid-min": -2.0e-6, "grid-max": 4.0e-6}
    argv = ["wavepacket-check"]
    for key, value in lengths.items():
        argv.append(f"--{key}={value * scale!r}")
    config = parse_config(argv)
    summary = run(config).summary
    assert math.isclose(summary["ratio"], 50.0, rel_tol=6e-13)
    assert math.isclose(summary["uncertainty_product"] / (0.5 * HBAR), 1.0, rel_tol=6e-13)
    assert summary["passes_a1"] is True  # as at k = 0
