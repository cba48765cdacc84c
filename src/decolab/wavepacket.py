"""Gaussian wave packets on a 1-d grid and the two packet admissibility conditions.

A state counts as a wave packet for an observable A when its mean dominates
its spread, |<A>| >= RATIO * dA (condition A1), and two packets interfere
weakly when their means are separated by at least the half-sum of their
spreads while the off-diagonal matrix element stays small (condition A2).
Both are quantified here with explicit thresholds, and A2 is read from one
table of matrix elements <s_j|A|s_k> per family of states.

Discretized packets use the convention that StateVector amplitudes carry the
sqrt(dx) quadrature weight: c_k = psi(x_k) sqrt(dx), so sum |c_k|^2 = 1 and
sum |psi_k|^2 dx = 1 simultaneously.  Operators built from functions of
position are diagonal in this convention and are stored as the vector of
their values on the grid; momentum moments are computed spectrally (unitary
DFT to the hbar k basis) without forming a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .collapse import pair_margins
from .constants import HBAR
from .errors import InvalidParameter
from .hilbert import (
    OperatorMatrix, StateVector, deviation_from_moments, expectation_and_deviation, make_state
)

# Mean-to-spread ratio demanded of a single packet (condition A1).
A1_RATIO = 10.0
# Off-diagonal matrix elements must stay below this fraction of the means (A2).
A2_OFFDIAG_FRAC = 0.05
# Safety factor for the second-order Taylor (classical-limit) criterion.
TAYLOR_FACTOR = 10.0

# Packets must fit in the grid with this many sigma of clearance.
SUPPORT_SIGMAS = 6.0


@dataclass(frozen=True)
class Grid1D:
    """Uniform position grid; dx = (x_max - x_min) / (n_points - 1)."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise InvalidParameter("grid needs x_max > x_min")
        if self.n_points < 16:
            raise InvalidParameter("grid needs at least 16 points")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @cached_property
    def xs(self) -> np.ndarray:
        """The grid points, built once per grid and read-only."""
        xs = np.linspace(self.x_min, self.x_max, self.n_points)
        xs.flags.writeable = False
        return xs


@dataclass(frozen=True)
class GaussianPacket:
    """Minimal-uncertainty Gaussian: center x0, momentum p0, position spread sigma_x."""

    x0: float
    p0: float
    sigma_x: float
    mass: float

    def __post_init__(self):
        if not np.all(self.sigma_x > 0):
            raise InvalidParameter("sigma_x must be positive")
        if not self.mass > 0:
            raise InvalidParameter("mass must be positive")

    @property
    def sigma_p(self) -> float:
        """Momentum spread of the minimal packet, hbar / (2 sigma_x)."""
        return HBAR / (2.0 * self.sigma_x)

    def evolved(self, t, force: float = 0.0, spreading: bool = False) -> "GaussianPacket":
        """Closed-form moments under a constant force.

        <p>(t) = p0 + f t and <x>(t) = x0 + p0 t / m + f t^2 / 2m.  The width
        is frozen by default (the no-dissipation idealization); pass
        spreading=True for the free-packet width sigma(t) = sigma
        sqrt(1 + (hbar t / 2 m sigma^2)^2).  t may be an array of times: the
        moments (and a spreading width) are then arrays over it, elementwise
        bit-identical to scalar calls.
        """
        x_t = self.x0 + self.p0 * t / self.mass + 0.5 * force * t * t / self.mass
        p_t = self.p0 + force * t
        sigma = self.sigma_x
        if spreading:
            rate = HBAR * t / (2.0 * self.mass * self.sigma_x**2)
            sigma = self.sigma_x * np.sqrt(1.0 + rate * rate)
        return GaussianPacket(x_t, p_t, sigma, self.mass)


@dataclass(frozen=True)
class PacketReport:
    """Outcome of a packet condition check for one observable.

    ratio is |mean| / deviation for condition A1 (infinite for eigenstates)
    and bound / dx for the Taylor criterion; in both cases the report passes
    exactly when ratio >= the threshold the check ran with.
    """

    mean: float
    deviation: float
    ratio: float
    passes_a1: bool
    taylor_residual: float = 0.0


@dataclass(frozen=True)
class InterferenceReport:
    """Pairwise weak-interference data for a family of states.

    All matrices are symmetric with an ignored diagonal (True if boolean).
    passes_off_diagonal[n, m] requires the off-diagonal element to stay below
    A2_OFFDIAG_FRAC of the larger mean; passes_a2[n, m] requires that AND the
    mean gap to reach the half-sum of spreads.
    """

    means: np.ndarray
    deviations: np.ndarray
    pair_gap: np.ndarray
    pair_threshold: np.ndarray
    off_diagonal_magnitude: np.ndarray
    passes_off_diagonal: np.ndarray
    passes_a2: np.ndarray

    def passes_a1(self) -> np.ndarray:
        """Condition A1 at A1_RATIO for each state, read from the means and deviations."""
        return _a1_holds(self.means, self.deviations, A1_RATIO)


def _a1_holds(mean, deviation, ratio_threshold: float):
    """|<A>| >= ratio_threshold * dA, elementwise for arrays."""
    return np.abs(mean) >= ratio_threshold * deviation


def packet_overlap(a: GaussianPacket, b: GaussianPacket) -> complex:
    """Analytic <a|b> for two Gaussian packets (continuum inner product).

    For equal widths the magnitude reduces to the familiar
    exp(-d^2 / 8 sigma^2) * exp(-dp^2 sigma^2 / 2 hbar^2).
    """
    sa2, sb2 = a.sigma_x**2, b.sigma_x**2
    ssum = sa2 + sb2
    d = a.x0 - b.x0
    q = b.p0 - a.p0
    x_w = (a.x0 * sb2 + b.x0 * sa2) / ssum  # width-weighted midpoint
    prefactor = np.sqrt(2.0 * a.sigma_x * b.sigma_x / ssum)
    magnitude = np.exp(-(d * d) / (4.0 * ssum)) * np.exp(
        -(q * q) * sa2 * sb2 / (ssum * HBAR * HBAR)
    )
    return complex(prefactor * magnitude * np.exp(1j * q * x_w / HBAR))


def discretize_gaussian(grid: Grid1D, packet: GaussianPacket) -> StateVector:
    """Sample a Gaussian packet on the grid as a unit-norm StateVector.

    Raises InvalidParameter unless x0 +/- 6 sigma lies inside the grid and
    the grid resolves the packet: sigma_x >= dx, and
    |p0| + 6 sigma_p within the Nyquist momentum pi hbar / dx, above which
    the momentum aliases.
    """
    lo, hi = packet.x0 - SUPPORT_SIGMAS * packet.sigma_x, packet.x0 + SUPPORT_SIGMAS * packet.sigma_x
    if lo < grid.x_min or hi > grid.x_max:
        raise InvalidParameter(
            f"support [{lo:g}, {hi:g}] leaves grid [{grid.x_min:g}, {grid.x_max:g}]"
        )
    if not packet.sigma_x >= grid.dx:
        raise InvalidParameter(f"grid spacing {grid.dx:g} cannot resolve sigma_x = {packet.sigma_x:g}")
    p_top, nyquist = abs(packet.p0) + SUPPORT_SIGMAS * packet.sigma_p, np.pi * HBAR / grid.dx
    if not p_top <= nyquist:
        raise InvalidParameter(f"|p0| + 6 sigma_p = {p_top:g} aliases above pi hbar / dx = {nyquist:g}")
    x = grid.xs
    envelope = np.exp(-((x - packet.x0) ** 2) / (4.0 * packet.sigma_x**2))
    phase = np.exp(1j * packet.p0 * x / HBAR)
    return make_state(envelope * phase)


def position_operator(grid: Grid1D) -> OperatorMatrix:
    return OperatorMatrix(grid.xs, hermitian=True)


def potential_operator(grid: Grid1D, f: Callable[[np.ndarray], np.ndarray]) -> OperatorMatrix:
    """Diagonal operator for a real function of position."""
    return OperatorMatrix(np.asarray(f(grid.xs), dtype=float), hermitian=True)


def _angular_wavenumbers(grid: Grid1D) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)


def momentum_mean_and_dev(grid: Grid1D, psi: StateVector) -> tuple[float, float]:
    """<p> and dp computed spectrally without forming the dense matrix."""
    if psi.dim != grid.n_points:
        raise InvalidParameter("state does not live on this grid")
    c_k = np.fft.fft(psi.amplitudes) / np.sqrt(grid.n_points)
    weights = np.abs(c_k) ** 2
    p = HBAR * _angular_wavenumbers(grid)
    mean = float(np.sum(p * weights))
    second = float(np.sum(p * p * weights))
    return mean, deviation_from_moments(mean, second)


def check_a1(psi: StateVector, op: OperatorMatrix, ratio_threshold: float = A1_RATIO) -> PacketReport:
    """Condition A1: the observable's mean must dominate its spread.

    passes iff |<A>| >= ratio_threshold * dA.  Eigenstates (dA = 0) report an
    infinite ratio and pass.
    """
    if not ratio_threshold > 1.0:
        raise InvalidParameter("ratio_threshold must exceed 1")
    if not op.hermitian:
        raise InvalidParameter("condition A1 needs a Hermitian observable")
    mean, dev = expectation_and_deviation(op, psi)
    ratio = float("inf") if dev == 0.0 else abs(mean) / dev
    return PacketReport(
        mean=mean,
        deviation=dev,
        ratio=ratio,
        passes_a1=bool(_a1_holds(mean, dev, ratio_threshold)),
    )


def element_table(states: Sequence[StateVector], op: OperatorMatrix, pairs=True, second=True) -> tuple:
    """E[j, k] = <s_j|A|s_k> and second[n] = |A s_n|^2, applying op once per state.

    E[n, n].real and second[n] are the vdots expectation_and_deviation takes.
    pairs=False computes only the diagonal of E (NaN elsewhere); second=False returns None.
    """
    applied = [op.apply(s.amplitudes) for s in states]
    table = np.array([
        [np.vdot(sj.amplitudes, ak) if pairs or j == k else np.nan for k, ak in enumerate(applied)]
        for j, sj in enumerate(states)
    ], dtype=complex)
    return table, np.array([np.vdot(ak, ak).real for ak in applied]) if second else None


def interference_report(table: np.ndarray, second: np.ndarray) -> InterferenceReport:
    """Weak-interference report of a family of states from its element_table.

    For each pair (n, m) the mean gap |<A>_n - <A>_m| must reach (dA_n + dA_m) / 2
    and |<u_m|A|u_n>| must stay below A2_OFFDIAG_FRAC of the larger mean
    magnitude.  Both inequalities are inclusive.  A stack of tables (leading
    axes on table and second) gives a stack of reports in every field.
    """
    n = table.shape[-1]
    means = table.diagonal(axis1=-2, axis2=-1).real.copy()
    moments = zip(means.ravel().tolist(), second.ravel().tolist())
    devs = np.array([deviation_from_moments(m, s) for m, s in moments]).reshape(means.shape)
    gap, threshold = pair_margins(means, devs, np.s_[..., :, None], np.s_[..., None, :])
    # scalar abs per pair: NumPy's vectorized complex abs can differ in the last bit
    offdiag = np.zeros(table.shape)
    for t in np.ndindex(table.shape[:-2]):
        for i in range(n):
            for j in range(i + 1, n):
                offdiag[t + (i, j)] = offdiag[t + (j, i)] = abs(table[t + (j, i)])
    scale = np.maximum(np.abs(means)[..., :, None], np.abs(means)[..., None, :])
    diagonal = np.eye(n, dtype=bool)  # the diagonal carries no interference content
    off_ok = (offdiag <= A2_OFFDIAG_FRAC * scale) | diagonal
    passes = (gap >= threshold) & off_ok | diagonal
    return InterferenceReport(
        means=means,
        deviations=devs,
        pair_gap=gap,
        pair_threshold=threshold,
        off_diagonal_magnitude=offdiag,
        passes_off_diagonal=off_ok,
        passes_a2=passes,
    )


def check_a2(states: Sequence[StateVector], op: OperatorMatrix) -> InterferenceReport:
    """Pairwise weak-interference check for a family of states (see interference_report)."""
    if not op.hermitian:
        raise InvalidParameter("condition A2 needs a Hermitian observable")
    if len(states) == 0:
        raise InvalidParameter("need at least one state")
    if any(s.dim != op.dim for s in states):
        raise InvalidParameter(f"every state must have the operator's dim {op.dim}")
    return interference_report(*element_table(states, op))


def _fd_second_derivative(f: Callable[[float], float], x: float, scale: float) -> float:
    h = 1e-4 * max(abs(x), scale)
    if h == 0.0:
        raise InvalidParameter("no length scale to difference over")
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def wavepacket_criterion(
    psi: StateVector,
    a_of_x: Callable,
    grid: Grid1D,
    second_derivative: Callable | None = None,
) -> PacketReport:
    """Second-order Taylor (classical-limit) check of <A(x)> = A(<x>).

    taylor_residual is <A(x)> - A(<x>) - A''(<x>) (dx)^2 / 2, the part of the
    expectation the packet picture cannot account for.  The report passes
    when the packet width clears the curvature bound

        TAYLOR_FACTOR * dx <= sqrt(|<A(x)> - A(<x>)| / (|A''(<x>)| / 2)),

    with ratio = bound / dx so that passing is again ratio >= TAYLOR_FACTOR.
    """
    x = grid.xs
    weights = np.abs(psi.amplitudes) ** 2
    x_mean = float(np.sum(x * weights))
    x_var = float(np.sum((x - x_mean) ** 2 * weights))
    a_values = np.asarray(a_of_x(x), dtype=float)
    a_mean = float(np.sum(a_values * weights))
    try:
        if second_derivative is not None:
            curvature = float(second_derivative(x_mean))
        else:
            curvature = _fd_second_derivative(a_of_x, x_mean, np.sqrt(x_var) + grid.dx)
        a_at_mean = float(a_of_x(x_mean))
    except (ArithmeticError, TypeError) as exc:
        raise InvalidParameter(str(exc)) from exc
    if not (np.isfinite(curvature) and np.isfinite(a_at_mean)):
        raise InvalidParameter(f"observable not twice differentiable at {x_mean:g}")
    residual = a_mean - a_at_mean - 0.5 * curvature * x_var
    dx_spread = float(np.sqrt(x_var))
    if curvature == 0.0:
        bound = float("inf")
    else:
        bound = float(np.sqrt(abs(a_mean - a_at_mean) / (0.5 * abs(curvature))))
    ratio = float("inf") if dx_spread == 0.0 else bound / dx_spread
    a_sq_mean = float(np.sum(a_values * a_values * weights))
    return PacketReport(
        mean=a_mean,
        deviation=deviation_from_moments(a_mean, a_sq_mean),
        ratio=ratio,
        passes_a1=bool(bound >= TAYLOR_FACTOR * dx_spread),
        taylor_residual=residual,
    )


def superposition_packet_test(
    packets: Sequence[GaussianPacket],
    coeffs: Sequence[complex],
    grid: Grid1D,
    ratio_threshold: float = A1_RATIO,
) -> tuple[list[bool], bool]:
    """Condition A1 applied to constituents and to their superposition.

    The observable is position shifted to be positive over the packet
    support (A = x + offset with offset = 1.2 * ratio_threshold * max sigma
    - min center), so every single packet passes A1 comfortably while any
    genuine multi-packet superposition picks up the inter-branch gap in its
    spread and fails.  A single packet trivially passes both.
    """
    if len(packets) == 0 or len(packets) != len(coeffs):
        raise InvalidParameter("need one coefficient per packet")
    states = [discretize_gaussian(grid, p) for p in packets]
    offset = 1.2 * ratio_threshold * max(p.sigma_x for p in packets) - min(
        p.x0 for p in packets
    )
    shifted = potential_operator(grid, lambda x: x + offset)
    each = [check_a1(s, shifted, ratio_threshold).passes_a1 for s in states]
    combined = np.zeros(grid.n_points, dtype=complex)
    for c, s in zip(coeffs, states):
        combined = combined + complex(c) * s.amplitudes
    superposed = make_state(combined)
    sup = check_a1(superposed, shifted, ratio_threshold).passes_a1
    return each, bool(sup)


def grid_state_columns(grid: Grid1D, psi: StateVector) -> tuple[np.ndarray, ...]:
    """CSV columns x, re psi, im psi, |psi|^2 in wavefunction normalization."""
    if psi.dim != grid.n_points:
        raise InvalidParameter("state does not live on this grid")
    value = psi.amplitudes * (1.0 / np.sqrt(grid.dx))
    # float_power is libm pow, as Python's float ** 2 is; NumPy's ** 2 squares
    # instead and moves a last digit of a few cells from 4096 points up.
    return grid.xs, value.real, value.imag, np.float_power(np.abs(value), 2.0)
