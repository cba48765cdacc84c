"""Bell-type bound under the packet approximation versus the exact CHSH value.

The inequality itself is verified longhand as an algebraic fact about
diagonal correlators before the evaluator is trusted to report it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from decolab.collapse import split_seed
from decolab.errors import ConditionViolated
from decolab.hilbert import OperatorMatrix, expectation, make_state
from decolab.scenarios.bell import (
    TSIRELSON,
    audited_configuration,
    bell_evaluate,
    chsh_optimal_observables,
    singlet_state,
    spin_observable,
)
from decolab.supersystem import Branch, CorrelatedState

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
    with pytest.raises(ConditionViolated):
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
            mean = expectation(op, factor)
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
