"""Phase spread, order-parameter traces, and collapse sampling.

Binomial confidence intervals (fixed seed schedule, hence deterministic) are
the oracle for the sampler.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from decolab.collapse import (
    PHASE_WEIGHT_FLOOR,
    OrderParameterTrace,
    classicize,
    decoherence_phase_spread,
    order_parameter_trace,
    outcomes_to_jsonl,
    sample_collapse,
    split_seed,
    trace_table,
)
from decolab.errors import InvalidParameter
from decolab.hilbert import make_state
from decolab.wavepacket import GaussianPacket

SAMPLING_TRIALS = 100_000
CI_SIGMAS = 3.0


def binomial_ci(w: float, n: int) -> float:
    return CI_SIGMAS * math.sqrt(w * (1.0 - w) / n)


# -------------------------------------------------------------- phase spread


def test_phase_spread_examples():
    assert decoherence_phase_spread(make_state([1.0, 1.0]), 3.0) == 0.0
    assert decoherence_phase_spread(make_state([1.0, 0.0]), 3.0) == 0.0
    psi = make_state([math.sqrt(0.8), math.sqrt(0.2)])
    spread = decoherence_phase_spread(psi, math.pi)
    assert math.isclose(spread, math.pi * 0.6, rel_tol=1e-12)


def test_phase_spread_ignores_negligible_branches():
    tiny = 1e-7  # weight 1e-14, below the live-branch floor
    amps = np.array([1.0, tiny], dtype=complex)
    psi = make_state(amps)
    assert tiny**2 < PHASE_WEIGHT_FLOOR
    assert decoherence_phase_spread(psi, math.pi) == 0.0


@seed(12)
@settings(max_examples=50, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=6),
    key=st.integers(min_value=0, max_value=2**31 - 1),
    eps=st.floats(min_value=0.1, max_value=8.0),
)
def test_phase_spread_zero_iff_equal_weights(dim, key, eps):
    rng = np.random.default_rng(key)
    equal = make_state(np.exp(1j * rng.uniform(0, 2 * math.pi, size=dim)))
    assert decoherence_phase_spread(equal, eps) < 1e-12
    lopsided = make_state(np.linspace(1.0, 2.0, dim).astype(complex))
    assert decoherence_phase_spread(lopsided, eps) > 1e-3 * eps


# ----------------------------------------------------------------- sampling


def test_sample_collapse_is_deterministic_per_seed():
    psi = make_state([math.sqrt(0.8), math.sqrt(0.2)])
    a = sample_collapse(psi, 1000, 1234)
    b = sample_collapse(psi, 1000, 1234)
    assert np.array_equal(a, b)
    assert a.shape == (1000,) and np.issubdtype(a.dtype, np.integer)
    assert set(a.tolist()) == {0, 1}


def test_sample_collapse_certainty_and_zero_weight():
    sure = make_state([1.0, 0.0])
    assert np.all(sample_collapse(sure, 64, 9) == 0)
    hole = make_state([math.sqrt(0.5), 0.0, math.sqrt(0.5)])
    drawn = set(sample_collapse(hole, 512, 5).tolist())
    assert 1 not in drawn
    assert drawn == {0, 2}


def test_sampling_frequency_within_binomial_ci():
    psi = make_state([math.sqrt(0.8), math.sqrt(0.2)])
    drawn = sample_collapse(psi, SAMPLING_TRIALS, 20240800)
    freq = np.count_nonzero(drawn == 0) / SAMPLING_TRIALS
    assert abs(freq - 0.8) <= binomial_ci(0.8, SAMPLING_TRIALS)


def test_sampling_frequency_even_split():
    psi = make_state([1.0, 1.0])
    n = 20_000
    hits = np.count_nonzero(sample_collapse(psi, n, 77) == 0)
    assert abs(hits / n - 0.5) <= binomial_ci(0.5, n)


@seed(15)
@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=6),
    key=st.integers(min_value=0, max_value=2**31 - 1),
    base=st.integers(min_value=0, max_value=2**64 - 1),
    k=st.integers(min_value=1, max_value=50),
    extra=st.integers(min_value=0, max_value=200),
)
def test_sample_collapse_draws_are_a_prefix_of_longer_draws(dim, key, base, k, extra):
    rng = np.random.default_rng(key)
    psi = make_state(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    short = sample_collapse(psi, k, base)
    long = sample_collapse(psi, k + extra, base)
    assert np.array_equal(short, long[:k])


def test_split_seed_schedule_is_collision_free():
    base = 424242
    seeds = [split_seed(base, i) for i in range(1000)]
    assert len(set(seeds)) == 1000
    assert split_seed(base, 0) == base
    assert all(0 <= s < 2**64 for s in seeds)


# ------------------------------------------------------------------- traces


def linear_branches(v: float, sigma: float):
    left = lambda t: GaussianPacket(0.0, 0.0, sigma, 1e-25)
    right = lambda t: GaussianPacket(v * t, 0.0, sigma, 1e-25)
    return [left, right]


def test_trace_linear_gap_crosses_exactly():
    v, sigma = 2.0e-3, 1.0e-9  # critical = sigma, so tau = sigma / v
    times = np.linspace(0.0, 2e-6, 41)
    trace = order_parameter_trace(linear_branches(v, sigma), "position", times)
    assert trace.tau is not None
    assert math.isclose(trace.tau, sigma / v, rel_tol=1e-12)
    assert trace.tau_nm[0] == trace.tau
    assert trace.gap[0, 0] == 0.0


def test_trace_identical_branches_never_cross():
    branches = [
        lambda t: GaussianPacket(1e-9, 0.0, 1e-9, 1e-25),
        lambda t: GaussianPacket(1e-9, 0.0, 1e-9, 1e-25),
    ]
    trace = order_parameter_trace(branches, "position", np.linspace(0, 1e-6, 11))
    assert trace.tau is None
    assert trace.tau_nm == (None,)
    assert np.all(trace.gap == 0.0)


def test_trace_tau_is_max_over_pairs_and_extra_branch_never_lowers_it():
    v, sigma = 2.0e-3, 1.0e-9
    times = np.linspace(0.0, 5e-6, 201)
    two = order_parameter_trace(linear_branches(v, sigma), "position", times)
    slower = lambda t: GaussianPacket(-0.25 * v * t, 0.0, sigma, 1e-25)
    three = order_parameter_trace(
        linear_branches(v, sigma) + [slower], "position", times
    )
    assert three.tau >= two.tau
    assert three.tau == max(t for t in three.tau_nm)
    assert len(three.tau_nm) == 3


def test_trace_momentum_observable():
    sigma, q = 1e-9, 1e-19  # momentum ramp rate per branch, kg m/s^2
    branches = [
        lambda t: GaussianPacket(0.0, q * t, sigma, 1e-25),
        lambda t: GaussianPacket(0.0, -q * t, sigma, 1e-25),
    ]
    times = np.linspace(0.0, 1e-6, 101)
    trace = order_parameter_trace(branches, "momentum", times)
    # momentum deviation of a fixed-width packet: hbar / (2 sigma)
    crit = 1.0545718e-34 / (2 * sigma)
    assert np.allclose(trace.critical[0], crit, rtol=1e-12)
    # linear gap 2qt meets the constant critical at crit / 2q
    assert math.isclose(trace.tau, crit / (2 * q), rel_tol=1e-12)


def test_trace_input_validation():
    branches = linear_branches(1.0, 1e-9)
    with pytest.raises(InvalidParameter, match="at least one sample time"):
        order_parameter_trace(branches, "position", [])
    with pytest.raises(ValueError):
        order_parameter_trace(branches, "position", [0.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        order_parameter_trace(branches[:1], "position", [0.0, 1.0])
    # means of -1e308 and +1e308 are finite, their gap is not
    apart = [lambda t, m=m: GaussianPacket(m * t, 0.0, 1e-9, 1e-25) for m in (-1e308, 1e308)]
    with pytest.raises(InvalidParameter, match="order-parameter gap overflows a double"):
        order_parameter_trace(apart, "position", [0.0, 1.0])
    wide = [lambda t: GaussianPacket(0.0, 0.0, 1.5e308, 1e-25)] * 2
    with pytest.raises(InvalidParameter, match="order-parameter critical value overflows a double"):
        order_parameter_trace(wide, "position", [0.0, 1.0])


def test_trace_table_single_pair_schema():
    trace = order_parameter_trace(
        linear_branches(2e-3, 1e-9), "position", np.linspace(0, 1e-6, 5)
    )
    header, columns = trace_table(trace)
    assert header == ["t", "gap", "critical"]
    assert [len(column) for column in columns] == [5, 5, 5]
    assert columns[0][0] == 0.0


def test_trace_table_three_branch_schema():
    branches = [
        lambda t, v=v: GaussianPacket(v * t, 0.0, 1e-9, 1e-25) for v in (0.0, 1e-3, 3e-3)
    ]
    trace = order_parameter_trace(branches, "position", np.linspace(0, 1e-6, 4))
    header, columns = trace_table(trace)
    assert header == [
        "t", "gap_0_1", "critical_0_1", "gap_0_2", "critical_0_2", "gap_1_2", "critical_1_2"
    ]
    assert np.array_equal(columns[0], trace.times)
    for k in range(3):
        assert np.array_equal(columns[2 * k + 1], trace.gap[k])
        assert np.array_equal(columns[2 * k + 2], trace.critical[k])


# --------------------------------------------------------------- classicize


def synthetic_trace(tau: float | None, n_branches: int = 2) -> OrderParameterTrace:
    times = np.array([0.0, 1.0])
    return OrderParameterTrace(
        times=times,
        pairs=((0, 1),),
        gap=np.array([[0.0, 2.0]]),
        critical=np.array([[1.0, 1.0]]),
        tau_nm=(tau,),
        tau=tau,
        n_branches=n_branches,
    )


def test_classicize_before_tau_returns_same_object():
    """Before tau nothing is drawn: the exact state stands as given."""
    psi = make_state([math.sqrt(0.5), math.sqrt(0.5)])
    assert classicize(synthetic_trace(0.5), 0.25, psi, 100, seed=3) is None


def test_classicize_no_crossing_never_collapses():
    psi = make_state([math.sqrt(0.5), math.sqrt(0.5)])
    assert classicize(synthetic_trace(None), 1e9, psi, 100, seed=3) is None


def test_classicize_at_and_after_tau_collapses():
    psi = make_state([math.sqrt(0.8), math.sqrt(0.2)])
    at = classicize(synthetic_trace(0.5), 0.5, psi, 100, seed=11)
    after = classicize(synthetic_trace(0.5), 2.0, psi, 100, seed=11)
    assert at is not None and after is not None
    assert np.array_equal(at, after)
    assert np.array_equal(after, sample_collapse(psi, 100, 11))


def test_classicize_statistics_follow_weights():
    psi = make_state([math.sqrt(0.5), math.sqrt(0.5)])
    n = 2000
    drawn = classicize(synthetic_trace(0.5), 1.0, psi, n, seed=31)
    assert abs(np.count_nonzero(drawn == 0) / n - 0.5) <= binomial_ci(0.5, n)


def test_classicize_single_branch_certain():
    psi = make_state([1.0])
    drawn = classicize(synthetic_trace(0.5, n_branches=1), 1.0, psi, 100, seed=99)
    assert np.array_equal(drawn, np.zeros(100, dtype=int))


def test_classicize_rejects_mismatched_trace():
    psi = make_state([math.sqrt(0.5), math.sqrt(0.5)])
    with pytest.raises(InvalidParameter, match="different branch family"):
        classicize(synthetic_trace(0.5, n_branches=3), 1.0, psi, 100, seed=1)


# ------------------------------------------------------------------- export


def test_outcomes_jsonl_is_deterministic_and_parseable():
    psi = make_state([math.sqrt(0.8), math.sqrt(0.2)])
    weights = (np.abs(psi.amplitudes) ** 2).tolist()
    drawn = sample_collapse(psi, 10, 5)
    blob = outcomes_to_jsonl(drawn, weights)
    assert blob == outcomes_to_jsonl(sample_collapse(psi, 10, 5), weights)
    assert blob.endswith("\n")
    lines = blob.strip().split("\n")
    assert len(lines) == 10
    for number, (line, index) in enumerate(zip(lines, drawn.tolist())):
        record = json.loads(line)
        assert line == json.dumps(record, sort_keys=True)
        assert set(record) == {"branch_index", "posterior", "prior", "trial"}
        assert record["trial"] == number
        assert record["branch_index"] == index
        one_hot = [0.0] * len(weights)
        one_hot[index] = 1.0
        assert record["posterior"] == one_hot
        assert record["prior"] == weights[index]


def _reference_jsonl(indices, weights):
    """Reference build: a record-at-a-time join, one f-string per trial."""
    prefixes = []
    for index, weight in enumerate(weights):
        posterior = [0.0] * len(weights)
        posterior[index] = 1.0
        record = {"branch_index": index, "posterior": posterior, "prior": float(weight)}
        prefixes.append(json.dumps(record, sort_keys=True)[:-1] + ', "trial": ')
    return "".join(f"{prefixes[b]}{i}}}\n" for i, b in enumerate(indices.tolist()))


def assert_same_records(blob, want):
    """Byte equality, compared as line lists: a failure names the first
    differing record at once, where a diff of two long strings takes minutes
    (and is redone at every hypothesis shrink step)."""
    assert blob.splitlines(keepends=True) == want.splitlines(keepends=True)


# Edge weights: both ends, the smallest and largest subnormals, the smallest
# normal, and values whose shortest repr needs all 17 significant digits.
EDGE_WEIGHTS = [
    0.0,
    1.0,
    5e-324,
    2.225073858507201e-308,
    2.2250738585072014e-308,
    0.1 + 0.2,
    1.0 / 3.0,
    0.7000000000000001,
    0.9999999999999999,
]


@seed(17)
@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(
        st.one_of(st.sampled_from(EDGE_WEIGHTS), st.floats(min_value=0.0, max_value=1.0)),
        min_size=1,
        max_size=8,
    ),
    n_trials=st.integers(min_value=1, max_value=3000),
    key=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_outcomes_jsonl_matches_record_at_a_time_reference(weights, n_trials, key):
    indices = np.random.default_rng(key).integers(0, len(weights), size=n_trials)
    assert_same_records(outcomes_to_jsonl(indices, weights), _reference_jsonl(indices, weights))


# Every trial count where the number of decimal digits in the last trial
# number changes, on both sides, up past the property's 3000-trial ceiling.
@pytest.mark.parametrize("n_branches", [1, 3, 8])
@pytest.mark.parametrize(
    "n_trials",
    [1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 9999, 10000, 10001, 20000, 100001],
)
def test_outcomes_jsonl_matches_reference_at_digit_boundaries(n_trials, n_branches):
    weights = EDGE_WEIGHTS[1 : 1 + n_branches]
    indices = np.random.default_rng(n_trials).integers(0, n_branches, size=n_trials)
    assert_same_records(outcomes_to_jsonl(indices, weights), _reference_jsonl(indices, weights))
