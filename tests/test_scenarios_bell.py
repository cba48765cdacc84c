"""Bell-type bound under the packet approximation versus the exact CHSH value.

The inequality itself is verified longhand as an algebraic fact about
diagonal correlators before the evaluator is trusted to report it.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from decolab.collapse import split_seed
from decolab.errors import InvalidParameter
from decolab.hilbert import (
    OperatorMatrix,
    StateVector,
    expectation_and_deviation,
    make_state,
)
from decolab.scenarios.bell import (
    BOUND_TOL,
    CONDITION_TOL,
    TSIRELSON,
    BellReport,
    audited_configuration,
    bell_evaluate,
    chsh_optimal_observables,
    singlet_state,
    spin_observable,
)
from decolab.supersystem import Branch, CorrelatedState
from decolab.wavepacket import (
    A1_RATIO,
    A2_OFFDIAG_FRAC,
    GaussianPacket,
    Grid1D,
    check_a1,
    check_a2,
    discretize_gaussian,
)

CHSH_TOL = 1e-9
N_AUDITED = 20


# ------------------------------------------------------------ bound algebra


@seed(14)
@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    key=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_diagonal_correlator_bound_is_algebraic(n, key):
    # for branch means in [-1, 1] and convex weights, the bound
    # |<AB> - <AD>| <= 2 +/- (<CD> + <CB>) holds identically
    rng = np.random.default_rng(key)
    w = rng.random(n)
    w = w / w.sum()
    a, b, c, d = rng.uniform(-1.0, 1.0, size=(4, n))

    def corr(x, y):
        return float(np.sum(w * x * y))

    lhs = abs(corr(a, b) - corr(a, d))
    for sign in (+1.0, -1.0):
        rhs = 2.0 + sign * (corr(c, d) + corr(c, b))
        assert lhs <= rhs + 1e-12


# ------------------------------------------------------------------ singlet


def test_singlet_chsh_reaches_tsirelson():
    report = bell_evaluate(
        singlet_state(), chsh_optimal_observables(), enforce_approx=False
    )
    assert abs(report.chsh_value - TSIRELSON) < CHSH_TOL
    assert report.chsh_value > 2.0
    assert not report.approx_conditions_met


def test_singlet_exact_bound_violated_at_optimal_angles():
    report = bell_evaluate(
        singlet_state(), chsh_optimal_observables(), sign=1, enforce_approx=False
    )
    assert not report.satisfied
    assert report.lhs > report.rhs


def test_singlet_classical_angles_respect_bound():
    obs = tuple(spin_observable(t) for t in (0.0, 0.0, math.pi / 2, math.pi / 2))
    for sign in (1, -1):
        report = bell_evaluate(singlet_state(), obs, sign=sign, enforce_approx=False)
        assert report.satisfied
        assert report.chsh_value <= 2.0 + 1e-12


@seed(15)
@settings(max_examples=60, deadline=None)
@given(
    theta_a=st.floats(min_value=0.0, max_value=2 * math.pi),
    theta_b=st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_singlet_correlator_is_minus_cosine(theta_a, theta_b):
    # with all four observables tied to two angles the CHSH sum collapses
    # to twice the single correlator E = -cos(theta_a - theta_b)
    a, b = spin_observable(theta_a), spin_observable(theta_b)
    report = bell_evaluate(singlet_state(), (a, b, a, b), enforce_approx=False)
    assert math.isclose(
        report.chsh_value, 2.0 * abs(math.cos(theta_a - theta_b)), abs_tol=1e-12
    )


def test_singlet_enforce_approx_rejects_soft_means():
    with pytest.raises(InvalidParameter, match="branch mean magnitude .* is below 1"):
        bell_evaluate(singlet_state(), chsh_optimal_observables(), enforce_approx=True)


# ------------------------------------------------------------- product state


def test_single_branch_product_state_obeys_bound():
    state = CorrelatedState(
        branches=(Branch(1.0, (make_state([1.0, 0.0]), make_state([0.0, 1.0]))),)
    )
    sz = OperatorMatrix(np.diag([1.0, -1.0]).astype(complex), hermitian=True)
    msz = OperatorMatrix(np.diag([-1.0, 1.0]).astype(complex), hermitian=True)
    for sign in (1, -1):
        report = bell_evaluate(state, (sz, msz, sz, msz), sign=sign, enforce_approx=True)
        assert report.approx_conditions_met
        assert report.satisfied
        assert report.condition_min >= 1.0 - 1e-12


# --------------------------------------------------------- audited configs


@pytest.mark.parametrize("sign", [1, -1])
def test_audited_configurations_always_satisfy_bound(sign):
    for i in range(N_AUDITED):
        n_branches = 2 + (i % 2)
        state, obs = audited_configuration(split_seed(9000, i), n_branches=n_branches)
        report = bell_evaluate(state, obs, sign=sign, enforce_approx=True)
        assert report.approx_conditions_met, f"audit failed for config {i}"
        assert report.satisfied, f"bound failed for config {i}"
        assert report.chsh_value <= TSIRELSON + CHSH_TOL
        assert report.condition_min >= 1.0 - 1e-9


def test_audited_configuration_is_seed_deterministic():
    a_state, a_obs = audited_configuration(1234)
    b_state, b_obs = audited_configuration(1234)
    assert np.array_equal(a_state.coefficients, b_state.coefficients)
    assert np.array_equal(a_obs[0].entries, b_obs[0].entries)
    c_state, _ = audited_configuration(1235)
    assert not np.array_equal(a_state.coefficients, c_state.coefficients)


def test_audited_branch_means_are_dichotomic():
    state, obs = audited_configuration(77)
    for branch in state.branches:
        for op, factor_index in ((obs[0], 0), (obs[1], 1)):
            factor = branch.factors[factor_index]
            mean = np.vdot(factor.amplitudes, op.entries * factor.amplitudes).real
            assert abs(abs(mean) - 1.0) < 1e-12


# ---------------------------------------------------------------- operators


def test_spin_observable_is_dichotomic():
    for theta in (0.0, 0.4, math.pi / 2, 2.2):
        op = spin_observable(theta)
        assert op.hermitian
        eigenvalues = np.linalg.eigvalsh(op.entries)
        assert np.allclose(sorted(eigenvalues), [-1.0, 1.0], atol=1e-12)


def test_optimal_observables_are_four_distinct_directions():
    obs = chsh_optimal_observables()
    assert len(obs) == 4
    flat = [tuple(np.round(o.entries.flatten(), 12)) for o in obs]
    assert len(set(flat)) == 4


# ------------------------------------------------- per-element oracle
#
# The evaluator as it was before it read every correlator and branch mean
# from one table of matrix elements per observable and factor: each
# correlator recomputes its own <s_j|X|s_k>, and A1 runs check_a1 per state.


def _branch_mean(op, s):
    return float(np.vdot(s.amplitudes, op.apply(s.amplitudes)).real)


def _pair_expectation(state, x, y):
    n = len(state.branches)
    c = state.coefficients
    total = 0.0 + 0.0j
    for j in range(n):
        for k in range(n):
            s1j, s2j = state.branches[j].sub1, state.branches[j].sub2
            s1k, s2k = state.branches[k].sub1, state.branches[k].sub2
            m1 = complex(np.vdot(s1j.amplitudes, x.apply(s1k.amplitudes)))
            m2 = complex(np.vdot(s2j.amplitudes, y.apply(s2k.amplitudes)))
            total += np.conj(c[j]) * c[k] * m1 * m2
    return float(total.real)


def _diagonal_pair(state, x, y):
    total = 0.0
    for w, b in zip(state.weights, state.branches):
        total += float(w) * _branch_mean(x, b.sub1) * _branch_mean(y, b.sub2)
    return total


def _audit_oracle(state, obs):
    states2 = [b.sub2 for b in state.branches]
    for alpha in obs:
        if not all(check_a1(s, alpha, A1_RATIO).passes_a1 for s in states2):
            return False
        means = [abs(_branch_mean(alpha, s)) for s in states2]
        for i, si in enumerate(states2):
            for j in range(i + 1, len(states2)):
                element = abs(np.vdot(states2[j].amplitudes, alpha.apply(si.amplitudes)))
                if element > A2_OFFDIAG_FRAC * max(means[i], means[j]):
                    return False
    return True


def bell_oracle(state, obs, sign=1, enforce_approx=True):
    a, b, c, d = obs
    chsh_value = abs(
        _pair_expectation(state, a, b)
        - _pair_expectation(state, a, d)
        + _pair_expectation(state, c, b)
        + _pair_expectation(state, c, d)
    )
    condition_min = float("inf")
    if enforce_approx:
        for alpha in obs:
            for branch in state.branches:
                for s in (branch.sub1, branch.sub2):
                    magnitude = abs(_branch_mean(alpha, s))
                    condition_min = min(condition_min, magnitude)
                    if magnitude < 1.0 - CONDITION_TOL:
                        raise ConditionViolated(f"branch mean magnitude {magnitude:g} is below 1")
        approx_ok = _audit_oracle(state, obs)
        pair = _diagonal_pair
    else:
        approx_ok = False
        pair = _pair_expectation
    lhs = abs(pair(state, a, b) - pair(state, a, d))
    rhs = 2.0 + sign * (pair(state, c, d) + pair(state, c, b))
    return BellReport(
        lhs=lhs,
        rhs=rhs,
        satisfied=bool(lhs <= rhs + BOUND_TOL),
        approx_conditions_met=bool(approx_ok),
        chsh_value=float(chsh_value),
        sign=sign,
        condition_min=condition_min if condition_min != float("inf") else 0.0,
    )


@seed(16)
@settings(max_examples=60, deadline=None)
@given(
    key=st.integers(min_value=0, max_value=2**64 - 1),
    n_branches=st.sampled_from([2, 3]),
    sign=st.sampled_from([1, -1]),
)
def test_tables_match_per_element_oracle_bit_for_bit(key, n_branches, sign):
    state, obs = audited_configuration(key, n_branches=n_branches)
    for enforce_approx in (True, False):
        report = bell_evaluate(state, obs, sign=sign, enforce_approx=enforce_approx)
        assert repr(report) == repr(bell_oracle(state, obs, sign, enforce_approx))


@seed(17)
@settings(max_examples=60, deadline=None)
@given(
    angles=st.lists(st.floats(min_value=0.0, max_value=2 * math.pi), min_size=4, max_size=4),
    sign=st.sampled_from([1, -1]),
)
def test_singlet_tables_match_per_element_oracle_bit_for_bit(angles, sign):
    for obs in (chsh_optimal_observables(), tuple(spin_observable(t) for t in angles)):
        report = bell_evaluate(singlet_state(), obs, sign=sign, enforce_approx=False)
        oracle = bell_oracle(singlet_state(), obs, sign, enforce_approx=False)
        assert repr(report) == repr(oracle)


def test_observable_dimension_is_checked_before_any_product():
    state, obs = audited_configuration(5)
    small = spin_observable(0.3)
    for position in range(4):
        mixed = tuple(small if i == position else op for i, op in enumerate(obs))
        for enforce_approx in (True, False):
            with pytest.raises(InvalidParameter, match="observables must act on the factors"):
                bell_evaluate(state, mixed, enforce_approx=enforce_approx)


@pytest.mark.parametrize("n_branches", [2, 3])
def test_audited_branch_states_are_shared_fresh_packets(n_branches):
    # every branch factor is, bit for bit, a fresh discretization of one
    # lattice cell's packet (cells 4 um apart, sigma 0.2 um, on the default
    # grid), its amplitudes cannot be written through, and every branch on
    # the same cell holds the same object, across configurations too
    grid = Grid1D(-1.4e-5, 1.4e-5, 1024)
    cells = [
        discretize_gaussian(grid, GaussianPacket((i - 3) * 4.0e-6, 0.0, 2.0e-7, 1.0e-25))
        for i in range(7)
    ]
    shared = {}
    reuses = 0
    for key in range(12):
        state, _ = audited_configuration(split_seed(4242, key), n_branches=n_branches)
        for branch in state.branches:
            for factor in branch.factors:
                assert isinstance(factor, StateVector)
                matches = [
                    i for i, c in enumerate(cells) if np.array_equal(c.amplitudes, factor.amplitudes)
                ]
                assert len(matches) == 1
                reuses += matches[0] in shared
                assert shared.setdefault(matches[0], factor) is factor
                assert not factor.amplitudes.flags.writeable
                with pytest.raises(ValueError):
                    factor.amplitudes[0] = 0.0
    assert reuses > 0


# ------------------------------------------------- A2 report reference
#
# check_a2 as a per-element computation: expectation_and_deviation per state
# and one <s_j|A|s_i> per pair.


def _a2_reference(states, op):
    n = len(states)
    means = np.zeros(n)
    devs = np.zeros(n)
    for i, s in enumerate(states):
        means[i], devs[i] = expectation_and_deviation(op, s)
    offdiag = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            element = np.vdot(states[j].amplitudes, op.apply(states[i].amplitudes))
            offdiag[i, j] = offdiag[j, i] = abs(element)
    gap = np.abs(means[:, None] - means[None, :])
    threshold = 0.5 * (devs[:, None] + devs[None, :])
    scale = np.maximum(np.abs(means)[:, None], np.abs(means)[None, :])
    off_ok = offdiag <= A2_OFFDIAG_FRAC * scale
    np.fill_diagonal(off_ok, True)
    passes = (gap >= threshold) & off_ok
    np.fill_diagonal(passes, True)
    return {
        "means": means,
        "deviations": devs,
        "pair_gap": gap,
        "pair_threshold": threshold,
        "off_diagonal_magnitude": offdiag,
        "passes_off_diagonal": off_ok,
        "passes_a2": passes,
    }


def _random_family(rng, kind, size):
    if kind == "cells":
        state, obs = audited_configuration(int(rng.integers(2**63)), n_branches=3)
        factors = [b.sub2 for b in state.branches] + [b.sub1 for b in state.branches]
        return factors[:size], obs[int(rng.integers(4))]
    dim = int(rng.integers(2, 9))
    states = [
        make_state(rng.normal(size=dim) + 1j * rng.normal(size=dim)) for _ in range(size)
    ]
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == "diagonal":
        return states, OperatorMatrix(scale * rng.normal(size=dim), hermitian=True)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return states, OperatorMatrix(scale * (m + m.conj().T), hermitian=True)


@seed(19)
@settings(max_examples=80, deadline=None)
@given(
    key=st.integers(min_value=0, max_value=2**31 - 1),
    kind=st.sampled_from(["diagonal", "dense", "cells"]),
    size=st.integers(min_value=2, max_value=4),
)
def test_check_a2_matches_per_element_reference(key, kind, size):
    states, op = _random_family(np.random.default_rng(key), kind, size)
    report = check_a2(states, op)
    expected = _a2_reference(states, op)
    for f in dataclasses.fields(report):
        assert np.array_equal(getattr(report, f.name), expected[f.name]), f.name


@pytest.mark.parametrize("n_branches", [2, 3])
def test_audited_evaluation_applies_each_observable_once_per_factor(monkeypatch, n_branches):
    # 4 observables x 2 factors, one application per branch state: the
    # A1/A2 audit reads the tables the correlators were built from
    state, obs = audited_configuration(split_seed(31, n_branches), n_branches=n_branches)
    calls = []
    apply = OperatorMatrix.apply

    def counting_apply(self, v):
        calls.append(self)
        return apply(self, v)

    monkeypatch.setattr(OperatorMatrix, "apply", counting_apply)
    report = bell_evaluate(state, obs, enforce_approx=True)
    assert report.approx_conditions_met
    assert len(calls) == 8 * n_branches
