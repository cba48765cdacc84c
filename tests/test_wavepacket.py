"""Gaussian packet discretization, moment checks, and packet-condition audits.

Grid moments from gridref are the oracle for everything the closed forms
claim; analytic overlap and Taylor bounds are re-derived numerically before
being trusted.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gridref import dense_momentum_matrix, grid_moments, grid_momentum_moments
from decolab.constants import HBAR
from decolab.errors import InvalidParameter
from decolab.hilbert import OperatorMatrix, StateVector, make_state
from decolab.wavepacket import (
    A1_RATIO,
    A2_OFFDIAG_FRAC,
    SUPPORT_SIGMAS,
    GaussianPacket,
    Grid1D,
    check_a1,
    check_a2,
    discretize_gaussian,
    grid_state_columns,
    momentum_mean_and_dev,
    packet_overlap,
    position_operator,
    potential_operator,
    superposition_packet_test,
    wavepacket_criterion,
)

MOMENT_RTOL = 1e-9
OVERLAP_TOL = 1e-12
HEISENBERG_RTOL = 1e-12

# Shared, well-resolved reference setup: ~7 grid points per sigma and
# 34 sigma of padding on the tight side.
REF_GRID = Grid1D(-2e-6, 4e-6, 2048)
REF_PACKET = GaussianPacket(x0=1e-6, p0=5e-26, sigma_x=2e-8, mass=1.79e-25)


# ------------------------------------------------------------------ grid


def test_grid_spacing_and_axis():
    g = Grid1D(0.0, 1.0, 101)
    assert abs(g.dx - 0.01) < 1e-15
    assert g.xs.size == 101
    assert g.xs[0] == 0.0 and abs(g.xs[-1] - 1.0) < 1e-15


@seed(18)
@settings(max_examples=60, deadline=None)
@given(
    x_min=st.floats(min_value=-1.0, max_value=1.0),
    width=st.floats(min_value=1e-3, max_value=10.0),
    exponent=st.integers(min_value=-30, max_value=30),
    n_points=st.integers(min_value=16, max_value=5000),
)
def test_grid_points_are_linspace_built_once_and_read_only(x_min, width, exponent, n_points):
    scale = 10.0**exponent
    g = Grid1D(x_min * scale, (x_min + width) * scale, n_points)
    assert np.array_equal(g.xs, np.linspace(g.x_min, g.x_max, g.n_points))
    assert g.xs is g.xs
    assert not g.xs.flags.writeable
    with pytest.raises(ValueError):
        g.xs[0] = 1.0
    # equal grids stay equal and hash alike once one has built its points
    twin = Grid1D(g.x_min, g.x_max, g.n_points)
    assert g == twin and hash(g) == hash(twin)


def test_grid_rejects_tiny_point_counts():
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 8)


# ------------------------------------------------------------ kinematics


def test_packet_momentum_width_is_minimal():
    p = GaussianPacket(0.0, 0.0, 1e-9, 1e-25)
    assert abs(p.sigma_p - HBAR / (2.0 * 1e-9)) < 1e-40


def test_evolved_moments_follow_uniform_force():
    p = GaussianPacket(x0=1.0e-9, p0=2.0e-27, sigma_x=1e-9, mass=1e-25)
    f, t = 3.0e-21, 5.0e-7
    q = p.evolved(t, force=f)
    assert math.isclose(q.x0, p.x0 + p.p0 * t / p.mass + 0.5 * f * t**2 / p.mass, rel_tol=1e-14)
    assert math.isclose(q.p0, p.p0 + f * t, rel_tol=1e-14)
    assert q.sigma_x == p.sigma_x  # width frozen unless spreading is on


def test_evolved_spreading_width():
    p = GaussianPacket(0.0, 0.0, 1e-9, 1e-25)
    t = 2e-7
    q = p.evolved(t, spreading=True)
    expected = p.sigma_x * math.sqrt(1.0 + (HBAR * t / (2 * p.mass * p.sigma_x**2)) ** 2)
    assert math.isclose(q.sigma_x, expected, rel_tol=1e-14)


# ---------------------------------------------------------- discretization


def test_discretized_packet_is_normalized():
    psi = discretize_gaussian(REF_GRID, REF_PACKET)
    assert abs(np.sum(np.abs(psi.amplitudes) ** 2) - 1.0) < 1e-12


def test_discretized_moments_match_packet():
    psi = discretize_gaussian(REF_GRID, REF_PACKET)
    mean, dev = grid_moments(psi.amplitudes, REF_GRID.xs)
    assert math.isclose(mean, REF_PACKET.x0, rel_tol=MOMENT_RTOL)
    assert math.isclose(dev, REF_PACKET.sigma_x, rel_tol=MOMENT_RTOL)
    p_mean, p_dev = grid_momentum_moments(psi.amplitudes, REF_GRID.dx)
    assert math.isclose(p_mean, REF_PACKET.p0, rel_tol=1e-6)
    assert math.isclose(p_dev, REF_PACKET.sigma_p, rel_tol=1e-9)


def test_momentum_helper_agrees_with_oracle():
    psi = discretize_gaussian(REF_GRID, REF_PACKET)
    mean, dev = momentum_mean_and_dev(REF_GRID, psi)
    ref_mean, ref_dev = grid_momentum_moments(psi.amplitudes, REF_GRID.dx)
    assert math.isclose(mean, ref_mean, rel_tol=1e-12)
    assert math.isclose(dev, ref_dev, rel_tol=1e-12)


def test_heisenberg_product_is_exactly_minimal():
    psi = discretize_gaussian(REF_GRID, REF_PACKET)
    x_op = position_operator(REF_GRID)
    from decolab.hilbert import expectation_and_deviation

    _, dx = expectation_and_deviation(x_op, psi)
    _, dp = momentum_mean_and_dev(REF_GRID, psi)
    assert math.isclose(dx * dp, HBAR / 2.0, rel_tol=HEISENBERG_RTOL)


def test_packet_outside_grid_raises():
    with pytest.raises(InvalidParameter, match="leaves grid"):
        discretize_gaussian(Grid1D(0.0, 1e-6, 256), GaussianPacket(0.99e-6, 0.0, 1e-8, 1e-25))


def test_unresolved_packet_raises():
    grid = Grid1D(-1e-6, 1e-6, 2001)  # dx = 1e-9
    discretize_gaussian(grid, GaussianPacket(0.0, 0.0, grid.dx, 1e-25))
    with pytest.raises(InvalidParameter, match="cannot resolve"):
        discretize_gaussian(grid, GaussianPacket(0.0, 0.0, 0.99 * grid.dx, 1e-25))
    # largest |p0| a packet of sigma 2e-8 may carry: pi hbar / dx - 6 sigma_p
    top = math.pi * HBAR / grid.dx - SUPPORT_SIGMAS * HBAR / (2.0 * 2e-8)
    for p0 in (0.999 * top, -0.999 * top):
        discretize_gaussian(grid, GaussianPacket(0.0, p0, 2e-8, 1e-25))
    for p0 in (1.001 * top, -1.001 * top):
        with pytest.raises(InvalidParameter, match="alias"):
            discretize_gaussian(grid, GaussianPacket(0.0, p0, 2e-8, 1e-25))


def test_grid_state_rows_unweight_density():
    psi = discretize_gaussian(REF_GRID, REF_PACKET)
    columns = grid_state_columns(REF_GRID, psi)
    assert [len(column) for column in columns] == [REF_GRID.n_points] * 4
    x, _, _, density = columns
    # trapezoid-free Riemann sum of |psi(x)|^2 dx returns unity
    assert abs(np.sum(density) * REF_GRID.dx - 1.0) < 1e-12
    assert abs(x[np.argmax(density)] - REF_PACKET.x0) < 2 * REF_GRID.dx


# ---------------------------------------------------------------- overlap


def test_packet_overlap_against_grid_inner_product():
    a = GaussianPacket(0.0, 0.0, 2e-8, 1e-25)
    b = GaussianPacket(4e-8, 3e-27, 3e-8, 1e-25)
    grid = Grid1D(-4e-7, 4.4e-7, 4096)
    lhs = packet_overlap(a, b)
    va = discretize_gaussian(grid, a).amplitudes
    vb = discretize_gaussian(grid, b).amplitudes
    rhs = np.vdot(va, vb)
    assert abs(lhs - rhs) < OVERLAP_TOL


def test_packet_overlap_equal_width_zero_momentum():
    sigma, d = 1e-9, 3e-9
    a = GaussianPacket(0.0, 0.0, sigma, 1e-25)
    b = GaussianPacket(d, 0.0, sigma, 1e-25)
    val = packet_overlap(a, b)
    assert abs(val - math.exp(-(d**2) / (8 * sigma**2))) < 1e-15


def test_packet_overlap_self_and_symmetry():
    a = GaussianPacket(1e-9, 2e-27, 1.5e-9, 1e-25)
    b = GaussianPacket(-2e-9, -1e-27, 0.7e-9, 1e-25)
    assert abs(packet_overlap(a, a) - 1.0) < 1e-14
    assert abs(packet_overlap(a, b) - np.conj(packet_overlap(b, a))) < 1e-15


@seed(9)
@settings(max_examples=40, deadline=None)
@given(
    d_sig=st.floats(min_value=-6.0, max_value=6.0),
    q_sig=st.floats(min_value=-4.0, max_value=4.0),
    width_ratio=st.floats(min_value=0.5, max_value=2.0),
)
def test_packet_overlap_bounded_by_one(d_sig, q_sig, width_ratio):
    sigma = 1e-9
    a = GaussianPacket(0.0, 0.0, sigma, 1e-25)
    b = GaussianPacket(d_sig * sigma, q_sig * HBAR / sigma, width_ratio * sigma, 1e-25)
    assert abs(packet_overlap(a, b)) <= 1.0 + 1e-12


# -------------------------------------------------------------- operators


def test_operator_builders_set_flags():
    assert position_operator(REF_GRID).hermitian
    v = potential_operator(REF_GRID, lambda x: x**2)
    assert v.hermitian


def test_dense_momentum_matches_fft_route():
    grid = Grid1D(-1e-7, 1e-7, 128)
    packet = GaussianPacket(0.0, 1e-26, 8e-9, 1e-25)
    psi = discretize_gaussian(grid, packet)
    from decolab.hilbert import expectation_and_deviation

    dense = OperatorMatrix(dense_momentum_matrix(grid.n_points, grid.dx), hermitian=True)
    mean_d, dev_d = expectation_and_deviation(dense, psi)
    mean_f, dev_f = momentum_mean_and_dev(grid, psi)
    assert math.isclose(mean_d, mean_f, rel_tol=1e-10)
    assert math.isclose(dev_d, dev_f, rel_tol=1e-10)


# ----------------------------------------------------------- a1 condition


def test_a1_exact_boundary_ratio_passes():
    # dyadic amplitudes keep every intermediate exact: ratio lands on 10.0
    psi = StateVector(np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
    op = OperatorMatrix(np.diag([9.0, 9.0, 11.0, 11.0]).astype(complex), hermitian=True)
    report = check_a1(psi, op, ratio_threshold=A1_RATIO)
    assert report.ratio == 10.0
    assert report.passes_a1


def test_a1_zero_deviation_is_infinitely_sharp():
    psi = make_state([1.0, 0.0])
    op = OperatorMatrix(np.diag([3.0, 7.0]).astype(complex), hermitian=True)
    report = check_a1(psi, op)
    assert math.isinf(report.ratio)
    assert report.passes_a1


def test_a1_fails_for_broad_state():
    psi = make_state([1.0, 1.0])
    op = OperatorMatrix(np.diag([1.0, -1.0]).astype(complex), hermitian=True)
    assert not check_a1(psi, op).passes_a1


def test_a1_threshold_must_exceed_one():
    psi = make_state([1.0, 0.0])
    op = OperatorMatrix(np.diag([1.0, 2.0]).astype(complex), hermitian=True)
    with pytest.raises(ValueError):
        check_a1(psi, op, ratio_threshold=1.0)


def test_a1_on_discretized_packet_position():
    psi = discretize_gaussian(REF_GRID, REF_PACKET)
    report = check_a1(psi, position_operator(REF_GRID))
    # x0/sigma = 50, comfortably sharp
    assert report.passes_a1
    assert report.ratio > 49.0


# ----------------------------------------------------------- a2 condition


def test_a2_boundary_pair_passes_inclusively():
    u1 = make_state([1.0, 0.0])
    u2 = make_state([math.sqrt(0.8), math.sqrt(0.2)])
    op = OperatorMatrix(np.diag([0.0, 2.0]).astype(complex), hermitian=True)
    report = check_a2([u1, u2], op)
    gap, thr = report.pair_gap[0, 1], report.pair_threshold[0, 1]
    assert 0.0 <= gap - thr < 1e-15
    assert report.passes_a2[0, 1]
    assert report.passes_a2.all()


def test_a2_separated_packets_pass():
    a = discretize_gaussian(REF_GRID, GaussianPacket(0.0, 0.0, 2e-8, 1e-25))
    b = discretize_gaussian(REF_GRID, GaussianPacket(1e-6, 0.0, 2e-8, 1e-25))
    report = check_a2([a, b], position_operator(REF_GRID))
    assert report.passes_a2.all()
    assert report.off_diagonal_magnitude[0, 1] < 1e-12


def test_a2_overlapping_packets_fail():
    a = discretize_gaussian(REF_GRID, GaussianPacket(1.00e-6, 0.0, 2e-8, 1e-25))
    b = discretize_gaussian(REF_GRID, GaussianPacket(1.02e-6, 0.0, 2e-8, 1e-25))
    report = check_a2([a, b], position_operator(REF_GRID))
    assert not report.passes_a2.all()


def test_a2_off_diagonal_interference_fails():
    # distinguishable means but a large cross term: still disqualified
    u1 = make_state([1.0, 0.0])
    u2 = make_state([0.0, 1.0])
    op = OperatorMatrix(
        np.array([[0.0, 5.0], [5.0, 20.0]], dtype=complex), hermitian=True
    )
    report = check_a2([u1, u2], op)
    assert report.pair_gap[0, 1] >= report.pair_threshold[0, 1]
    assert report.off_diagonal_magnitude[0, 1] > A2_OFFDIAG_FRAC * 20.0
    assert not report.passes_a2[0, 1]


# ------------------------------------------------------- taylor criterion


def test_quadratic_observable_has_negligible_residual():
    psi = discretize_gaussian(REF_GRID, REF_PACKET)
    scale = REF_PACKET.x0**2
    report = wavepacket_criterion(
        psi, lambda x: x**2, REF_GRID, second_derivative=lambda x: 2.0 + 0.0 * x
    )
    assert abs(report.taylor_residual) / scale < 1e-6
    # for quadratics the curvature length equals the spread identically,
    # so the sharp-variation ratio pins to one
    assert math.isclose(report.ratio, 1.0, rel_tol=1e-9)


def test_linear_observable_residual_vanishes():
    psi = discretize_gaussian(REF_GRID, REF_PACKET)
    report = wavepacket_criterion(
        psi, lambda x: 3.0 * x, REF_GRID, second_derivative=lambda x: 0.0 * x
    )
    assert abs(report.taylor_residual) < 1e-12 * abs(report.mean)
    assert math.isinf(report.ratio)
    assert report.passes_a1


def test_quartic_residual_recovers_gaussian_kurtosis():
    # for A = x^4 on a centered packet the quadratic Taylor model vanishes,
    # leaving exactly <x^4> = 3 sigma^4
    grid = Grid1D(-3e-7, 3e-7, 2048)
    packet = GaussianPacket(0.0, 0.0, 2e-8, 1e-25)
    psi = discretize_gaussian(grid, packet)
    report = wavepacket_criterion(
        psi, lambda x: x**4, grid, second_derivative=lambda x: 12.0 * x**2
    )
    assert math.isclose(report.taylor_residual, 3.0 * packet.sigma_x**4, rel_tol=0.02)


def test_finite_difference_second_derivative_fallback():
    psi = discretize_gaussian(REF_GRID, REF_PACKET)
    analytic = wavepacket_criterion(
        psi, lambda x: np.sin(x / 1e-6), REF_GRID,
        second_derivative=lambda x: -np.sin(x / 1e-6) / 1e-12,
    )
    fallback = wavepacket_criterion(psi, lambda x: np.sin(x / 1e-6), REF_GRID)
    assert math.isclose(fallback.ratio, analytic.ratio, rel_tol=1e-5)
    assert fallback.passes_a1 == analytic.passes_a1


def test_derivative_undefined_on_nonfinite_observable():
    psi = discretize_gaussian(REF_GRID, REF_PACKET)

    def logged(x):
        # undefined left of 1.5e-6, in particular at the packet mean 1e-6
        with np.errstate(invalid="ignore"):
            return np.log(x - 1.5e-6)

    with pytest.raises(InvalidParameter, match="not twice differentiable"):
        wavepacket_criterion(psi, logged, REF_GRID)


# ----------------------------------------------- superposition dichotomy


def test_single_packet_passes_as_its_own_superposition():
    packets = [GaussianPacket(1e-6, 0.0, 2e-8, 1e-25)]
    each, joint = superposition_packet_test(packets, [1.0], REF_GRID)
    assert each == [True]
    assert joint is True


def test_two_packet_cat_fails_while_parts_pass():
    packets = [
        GaussianPacket(0.0, 0.0, 2e-8, 1e-25),
        GaussianPacket(1.5e-6, 0.0, 2e-8, 1e-25),
    ]
    each, joint = superposition_packet_test(packets, [1.0, 1.0], REF_GRID)
    assert each == [True, True]
    assert joint is False


def test_three_packet_cat_fails_while_parts_pass():
    packets = [
        GaussianPacket(-1e-6, 0.0, 2e-8, 1e-25),
        GaussianPacket(1e-6, 0.0, 2e-8, 1e-25),
        GaussianPacket(3e-6, 0.0, 2e-8, 1e-25),
    ]
    grid = Grid1D(-2.5e-6, 4.5e-6, 4096)
    each, joint = superposition_packet_test(packets, [1.0, 1.0, 1.0], grid)
    assert each == [True, True, True]
    assert joint is False


# ------------------------------------------------------------- properties


@seed(10)
@settings(max_examples=30, deadline=None)
@given(
    x0_frac=st.floats(min_value=-0.2, max_value=0.2),
    p_sig=st.floats(min_value=-2.0, max_value=2.0),
    log_sigma=st.floats(min_value=-9.5, max_value=-8.5),
)
def test_discretization_norm_and_uncertainty_floor(x0_frac, p_sig, log_sigma):
    sigma = 10.0**log_sigma
    span = 40.0 * sigma
    grid = Grid1D(-span, span, 1024)
    packet = GaussianPacket(x0_frac * span, p_sig * HBAR / (2 * sigma), sigma, 1e-25)
    psi = discretize_gaussian(grid, packet)
    assert abs(np.sum(np.abs(psi.amplitudes) ** 2) - 1.0) < 1e-10
    _, dev_x = grid_moments(psi.amplitudes, grid.xs)
    _, dev_p = grid_momentum_moments(psi.amplitudes, grid.dx)
    assert dev_x * dev_p >= HBAR / 2.0 * (1.0 - 1e-9)


# An accepted packet down to sigma = dx and up to the Nyquist momentum keeps
# the Heisenberg floor and its mean momentum.  At sigma = dx the product sits
# about 2e-8 below hbar / 2 and p_mean about 2e-6 sigma_p off p0, so the
# tolerances are 1e-7 and 1e-5 sigma_p.
@seed(19)
@settings(max_examples=80, deadline=None)
@given(
    n_points=st.integers(min_value=512, max_value=2048),
    resolution=st.floats(min_value=1.0, max_value=30.0),
    x0_frac=st.floats(min_value=-1.0, max_value=1.0),
    p0_frac=st.floats(min_value=-0.999, max_value=0.999),
)
def test_accepted_packet_keeps_floor_and_momentum(n_points, resolution, x0_frac, p0_frac):
    grid = Grid1D(-1e-6, 1e-6, n_points)
    sigma = resolution * grid.dx
    room = grid.x_max - SUPPORT_SIGMAS * sigma
    p_room = math.pi * HBAR / grid.dx - SUPPORT_SIGMAS * HBAR / (2.0 * sigma)
    packet = GaussianPacket(0.999 * x0_frac * room, p0_frac * p_room, sigma, 1e-25)
    psi = discretize_gaussian(grid, packet)
    _, dev_x = grid_moments(psi.amplitudes, grid.xs)
    p_mean, dev_p = grid_momentum_moments(psi.amplitudes, grid.dx)
    assert dev_x * dev_p >= HBAR / 2.0 * (1.0 - 1e-7)
    assert abs(p_mean - packet.p0) <= 1e-5 * packet.sigma_p
