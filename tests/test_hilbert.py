"""Finite-dimensional state, projector, and symmetry-operator tests.

Oracles come first: a power-series matrix exponential and an explicit
double-loop Kronecker product.  Closed-form results in the package are
checked against these, never against themselves.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from decolab.errors import InvalidParameter
from decolab.hilbert import (
    ALG_TOL,
    NORM_TOL,
    GaussDecomposition,
    OperatorMatrix,
    StateVector,
    apply_w,
    exp_projector,
    expectation_and_deviation,
    gauss_decompose,
    make_state,
    projector,
)
from decolab.supersystem import Branch
from decolab.wavepacket import check_a1, check_a2

SERIES_TERMS = 60
SERIES_TOL = 1e-12
RECONSTRUCT_TOL = 1e-12
MAX_DIM = 8


# ---------------------------------------------------------------- oracles


def series_exp(matrix: np.ndarray, terms: int = SERIES_TERMS) -> np.ndarray:
    """exp(M) summed term by term; the independent reference for exp_projector."""
    out = np.eye(matrix.shape[0], dtype=complex)
    term = np.eye(matrix.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ matrix / k
        out = out + term
    return out


def kron_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with explicit index bookkeeping."""
    out = np.zeros(a.size * b.size, dtype=complex)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i * b.size + j] = ai * bj
    return out


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return make_state(raw)


# ------------------------------------------------------- state construction


def test_make_state_normalizes_three_four():
    psi = make_state([3.0, 4.0j])
    assert np.allclose(psi.amplitudes, [0.6, 0.8j], rtol=0, atol=1e-15)


def test_make_state_preserves_relative_phase():
    psi = make_state([1.0, np.exp(1j * 0.7)])
    ratio = psi.amplitudes[1] / psi.amplitudes[0]
    assert abs(ratio - np.exp(1j * 0.7)) < 1e-14


def test_make_state_rejects_empty_and_zero():
    with pytest.raises(InvalidParameter, match="make_state needs a non-empty"):
        make_state([])
    with pytest.raises(InvalidParameter, match="cannot normalize the zero vector"):
        make_state([0.0, 0.0])


@seed(24)
@settings(max_examples=200, deadline=None)
@given(
    amps=st.lists(st.floats(min_value=0.1, max_value=1.0), min_size=1, max_size=6),
    exponent=st.integers(min_value=-300, max_value=300),
)
def test_make_state_weights_are_scale_free(amps, exponent):
    unscaled = np.abs(make_state(amps).amplitudes) ** 2
    scaled = np.abs(make_state(np.array(amps) * 10.0**exponent).amplitudes) ** 2
    assert np.allclose(scaled, unscaled, rtol=1e-15, atol=0.0)


def test_state_vector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValueError):  # a NaN norm fails the accept test
        StateVector(np.array([np.nan, 0.0], dtype=complex))


def test_state_vector_amplitudes_frozen():
    psi = make_state([1.0, 0.0])
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_operator_matrix_flag_guards():
    with pytest.raises(InvalidParameter, match="hermitian flag set"):
        OperatorMatrix(np.array([[0, 1], [0, 0]], dtype=complex), hermitian=True)
    with pytest.raises(ValueError):
        OperatorMatrix(np.array([[2, 0], [0, 1]], dtype=complex), unitary=True)
    with pytest.raises(InvalidParameter, match="must be square or diagonal"):
        OperatorMatrix(np.zeros((2, 3), dtype=complex))
    # 1-d entries are the diagonal and carry the same promises
    with pytest.raises(InvalidParameter, match="hermitian flag set"):
        OperatorMatrix(np.array([1.0, 1.0j]), hermitian=True)
    with pytest.raises(ValueError):
        OperatorMatrix(np.array([1.0, 2.0]), unitary=True)
    with pytest.raises(InvalidParameter, match="must be square or diagonal"):
        OperatorMatrix(np.array([], dtype=complex))
    assert OperatorMatrix(np.exp(1j * np.array([0.3, 2.0])), unitary=True).dim == 2
    # NaN entries fail both flags' accept tests; the all-zero operator is Hermitian
    for entries in (np.array([[np.nan, 1.0], [1.0, 0.0]]), np.array([np.nan, 1.0])):
        with pytest.raises(InvalidParameter, match="hermitian flag set"):
            OperatorMatrix(entries, hermitian=True)
        with pytest.raises(ValueError):
            OperatorMatrix(entries, unitary=True)
    assert OperatorMatrix(np.zeros((2, 2)), hermitian=True).hermitian


@seed(16)
@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=MAX_DIM),
    exponent=st.integers(min_value=-30, max_value=30),
    key=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_hermitian_flag_is_scale_free(dim, exponent, key):
    rng = np.random.default_rng(key)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    hermitian = 0.5 * (raw + raw.conj().T)
    skew = raw - raw.conj().T
    unit = np.max(np.abs(hermitian)) / np.max(np.abs(skew))
    scale = 10.0**exponent
    # asymmetry at the rounding level passes, relative asymmetry 1e-6 fails, at any scale
    nearly = (hermitian + 1e-14 * unit * skew) * scale
    assert OperatorMatrix(nearly, hermitian=True).hermitian
    with pytest.raises(InvalidParameter, match="hermitian flag set"):
        OperatorMatrix((hermitian + 1e-6 * unit * skew) * scale, hermitian=True)


def test_deviation_rejects_nan_variance():
    # <A^2> overflows to inf and so does <A>^2: the variance is inf - inf
    op = OperatorMatrix(np.array([1e200, 1.0]), hermitian=True)
    with pytest.raises(InvalidParameter, match="negative variance nan"):
        expectation_and_deviation(op, make_state([1.0, 1.0]))


@seed(23)
@settings(max_examples=100, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=MAX_DIM),
    exponent=st.integers(min_value=-30, max_value=30),
    key=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_variance_clamp_is_scale_free(dim, exponent, key):
    # the top eigenvector of a positive Hermitian matrix has a variance of
    # rounding size and either sign: it is clamped to a small deviation at
    # any scale, and a spread state's deviation scales with the operator
    rng = np.random.default_rng(key)
    scale = 10.0**exponent
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    unit = raw @ raw.conj().T + np.eye(dim)
    unit = 0.5 * (unit + unit.conj().T)
    top = make_state(np.linalg.eigh(unit)[1][:, -1])
    op = OperatorMatrix(unit * scale, hermitian=True)
    mean, dev = expectation_and_deviation(op, top)
    assert dev <= 1e-6 * abs(mean)
    spread = make_state(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    _, dev_scaled = expectation_and_deviation(op, spread)
    _, dev_unit = expectation_and_deviation(OperatorMatrix(unit, hermitian=True), spread)
    assert math.isclose(dev_scaled / scale, dev_unit, rel_tol=1e-9)


# ------------------------------------------------------------- projectors


def test_projector_is_idempotent_and_rank_one():
    psi = make_state([3.0, 4.0j])
    p = projector(psi).entries
    assert np.max(np.abs(p @ p - p)) < ALG_TOL
    assert np.max(np.abs(p - p.conj().T)) < ALG_TOL
    assert abs(np.trace(p) - 1.0) < ALG_TOL


def test_exp_projector_matches_series_on_random_states():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, MAX_DIM + 1))
        psi = random_state(rng, dim)
        eps = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
        w = exp_projector(psi, eps).entries
        ref = series_exp(1j * eps * projector(psi).entries)
        worst = max(worst, float(np.max(np.abs(w - ref))))
    assert worst < SERIES_TOL


def test_exp_projector_closed_form_structure():
    psi = make_state([1.0, 1.0j, -1.0])
    eps = 0.9
    w = exp_projector(psi, eps).entries
    expected = np.eye(3, dtype=complex) + (np.exp(1j * eps) - 1.0) * projector(psi).entries
    assert np.max(np.abs(w - expected)) < ALG_TOL


def test_exp_projector_is_unitary():
    psi = make_state([2.0, 1.0 - 1.0j, 0.5])
    op = exp_projector(psi, 1.3)
    assert op.unitary
    wd_w = op.entries.conj().T @ op.entries
    assert np.max(np.abs(wd_w - np.eye(3))) < NORM_TOL


def test_exp_projector_at_zero_and_two_pi_is_identity():
    psi = make_state([1.0, 2.0, 3.0])
    for eps in (0.0, 2.0 * math.pi):
        w = exp_projector(psi, eps).entries
        assert np.max(np.abs(w - np.eye(3))) < 1e-12


# ----------------------------------------------------------------- apply_w


def test_apply_w_parallel_gains_global_phase():
    psi = make_state([1.0, 1.0j])
    chi = make_state([np.exp(0.4j), np.exp(0.4j) * 1.0j])
    out = apply_w(psi, chi, 0.8)
    assert np.max(np.abs(out.amplitudes - np.exp(0.8j) * chi.amplitudes)) < 1e-12


def test_apply_w_orthogonal_unchanged():
    psi = make_state([1.0, 1.0])
    chi = make_state([1.0, -1.0])
    out = apply_w(psi, chi, 2.1)
    assert np.max(np.abs(out.amplitudes - chi.amplitudes)) == 0.0


def test_apply_w_general_matches_matrix_action():
    psi = make_state([2.0, 1.0j, 1.0])
    chi = make_state([1.0, 1.0, -1.0j])
    eps = 1.7
    out = apply_w(psi, chi, eps)
    ref = exp_projector(psi, eps).entries @ chi.amplitudes
    assert np.max(np.abs(out.amplitudes - ref)) < 1e-12


@seed(5)
@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=MAX_DIM),
    key=st.integers(min_value=0, max_value=2**31 - 1),
    eps=st.floats(min_value=-6.0, max_value=6.0),
)
def test_apply_w_property_matches_matrix(dim, key, eps):
    rng = np.random.default_rng(key)
    psi = random_state(rng, dim)
    chi = random_state(rng, dim)
    out = apply_w(psi, chi, eps)
    ref = exp_projector(psi, eps).entries @ chi.amplitudes
    assert np.max(np.abs(out.amplitudes - ref)) < 1e-11
    # unitarity of the closed form: the image is again unit norm
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < NORM_TOL


# ------------------------------------------------------- gauss decomposition


def test_gauss_decompose_reconstructs_projector():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dim = int(rng.integers(2, MAX_DIM + 1))
        psi = random_state(rng, dim)
        dec = gauss_decompose(psi)
        err = np.max(np.abs(dec.reconstruct() - projector(psi).entries))
        assert err < RECONSTRUCT_TOL


def test_gauss_decompose_term_counts_dense():
    psi = make_state([1.0, 1.0j, -2.0, 0.5])
    dec = gauss_decompose(psi)
    assert isinstance(dec, GaussDecomposition)
    assert len(dec.diagonal) == 4
    assert len(dec.raising) == 6
    assert len(dec.lowering) == 6


def test_gauss_decompose_diagonal_carries_born_weights():
    psi = make_state([3.0, 4.0j])
    dec = gauss_decompose(psi)
    weights = sorted(w for _, w in dec.diagonal)
    assert np.allclose(weights, [0.36, 0.64], atol=1e-15)


def test_gauss_decompose_skips_zero_amplitudes():
    psi = make_state([1.0, 0.0, 1.0])
    dec = gauss_decompose(psi)
    assert len(dec.diagonal) == 2
    assert len(dec.raising) == 1
    err = np.max(np.abs(dec.reconstruct() - projector(psi).entries))
    assert err < RECONSTRUCT_TOL


# ------------------------------------------------------------ expectations


def test_expectation_and_deviation_pauli_examples():
    plus = make_state([1.0, 1.0])
    sz = OperatorMatrix(np.diag([1.0, -1.0]).astype(complex), hermitian=True)
    sx = OperatorMatrix(np.array([[0, 1], [1, 0]], dtype=complex), hermitian=True)
    mean_z, dev_z = expectation_and_deviation(sz, plus)
    mean_x, dev_x = expectation_and_deviation(sx, plus)
    assert abs(mean_z) < 1e-15 and abs(dev_z - 1.0) < 1e-15
    assert abs(mean_x - 1.0) < 1e-15 and dev_x < 1e-7


def test_deviation_requires_hermitian_flag():
    psi = make_state([1.0, 0.0])
    op = OperatorMatrix(np.array([[0, 1], [1, 0]], dtype=complex))
    with pytest.raises(InvalidParameter, match="Hermitian operators only"):
        expectation_and_deviation(op, psi)


@seed(15)
@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=MAX_DIM),
    exponent=st.integers(min_value=-30, max_value=30),
    key=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_diagonal_storage_is_bit_identical_to_dense(dim, exponent, key):
    rng = np.random.default_rng(key)
    values = rng.normal(size=dim) * 10.0**exponent
    diag = OperatorMatrix(values, hermitian=True)
    dense = OperatorMatrix(np.diag(values.astype(complex)), hermitian=True)
    states = [random_state(rng, dim) for _ in range(3)]
    for psi in states:
        assert expectation_and_deviation(diag, psi) == expectation_and_deviation(dense, psi)
        assert check_a1(psi, diag) == check_a1(psi, dense)
    report_diag, report_dense = check_a2(states, diag), check_a2(states, dense)
    for f in dataclasses.fields(report_dense):
        assert np.array_equal(getattr(report_diag, f.name), getattr(report_dense, f.name))


# ----------------------------------------------------------------- tensors


def test_tensor_matches_loop_oracle():
    rng = np.random.default_rng(3)
    a = random_state(rng, 3)
    b = random_state(rng, 4)
    joint = Branch(1.0, (a, b)).product()
    assert joint.dim == 12
    ref = kron_loops(a.amplitudes, b.amplitudes)
    assert np.max(np.abs(joint.amplitudes - ref)) < 1e-15


@seed(6)
@settings(max_examples=40, deadline=None)
@given(
    da=st.integers(min_value=1, max_value=5),
    db=st.integers(min_value=1, max_value=5),
    key=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_tensor_norm_and_overlap_factorize(da, db, key):
    rng = np.random.default_rng(key)
    a1, a2 = random_state(rng, da), random_state(rng, da)
    b1, b2 = random_state(rng, db), random_state(rng, db)
    lhs = Branch(1.0, (a1, b1)).product().overlap(Branch(1.0, (a2, b2)).product())
    rhs = a1.overlap(a2) * b1.overlap(b2)
    assert abs(lhs - rhs) < 1e-12


# ------------------------------------------------------------- properties


@seed(7)
@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=MAX_DIM),
    key=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_overlap_conjugate_symmetry(dim, key):
    rng = np.random.default_rng(key)
    psi, chi = random_state(rng, dim), random_state(rng, dim)
    assert abs(psi.overlap(chi) - np.conj(chi.overlap(psi))) < 1e-14


@seed(8)
@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=MAX_DIM),
    key=st.integers(min_value=0, max_value=2**31 - 1),
    eps1=st.floats(min_value=-3.0, max_value=3.0),
    eps2=st.floats(min_value=-3.0, max_value=3.0),
)
def test_exp_projector_group_property(dim, key, eps1, eps2):
    # W_{e1} W_{e2} = W_{e1+e2}: the transforms form a one-parameter group
    rng = np.random.default_rng(key)
    psi = random_state(rng, dim)
    w1 = exp_projector(psi, eps1).entries
    w2 = exp_projector(psi, eps2).entries
    w12 = exp_projector(psi, eps1 + eps2).entries
    assert np.max(np.abs(w1 @ w2 - w12)) < 1e-12
