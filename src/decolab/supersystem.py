"""Correlated system-apparatus states and their closed-form branch dynamics.

A measurement-type interaction entangles an object with a pointer so the
joint state takes the branch form sum_n c_n |psi_n> (x) |u_n(t)>, each
pointer branch riding its own effective potential v_n V2(x).  For an
at-most-linear V2 every branch stays Gaussian and its moments follow the
classical trajectory under the constant force f = -v_n V2'(x); that closed
form is what order-parameter traces are built from.  Environment-extended
branches admit the second-kind mixture (the diagonal system-pointer density
operator left after tracing the environment), and bosonic product states can
be symmetrized into the same branch bookkeeping.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    EmptyInput,
    IndexOutOfRange,
    InvalidParameter,
    MissingEnvironment,
    NonHermitian,
    NonlinearPotential,
    NonPositiveInput,
    TooManyParticles,
)
from .hilbert import NORM_TOL, OperatorMatrix, StateVector, projector
from .wavepacket import (
    GaussianPacket, Grid1D, _angular_wavenumbers, discretize_gaussian, packet_overlap
)
from .constants import HBAR

# [H1, V1] must vanish, relative to max|H1| max|V1|, for the branch labels to
# be conserved.
COMMUTATOR_TOL = 1e-10
# Relative gap below which two coupling eigenvalues count as degenerate.
DEGENERACY_RTOL = 1e-9
# Bose symmetrization grows as n!; beyond 6 particles the branch list is useless.
MAX_BOSE_PARTICLES = 6


def _overlap(a, b) -> complex:
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return a.overlap(b)
    if isinstance(a, GaussianPacket) and isinstance(b, GaussianPacket):
        return packet_overlap(a, b)
    raise DimensionMismatch(
        f"cannot overlap factors of types {type(a).__name__} and {type(b).__name__}"
    )


@dataclass(frozen=True)
class Branch:
    """One branch: a complex coefficient and a tuple of sub-state factors.

    Measurement states use (sub1, sub2) or (sub1, sub2, subE); symmetrized
    n-particle states carry n single-particle factors.
    """

    coefficient: complex
    factors: tuple

    @property
    def sub1(self):
        return self.factors[0]

    @property
    def sub2(self):
        return self.factors[1]

    @property
    def subE(self):
        return self.factors[2] if len(self.factors) > 2 else None

    def product(self) -> StateVector | None:
        """Tensor of the factors, or None when a factor is an analytic packet."""
        if not all(isinstance(f, StateVector) for f in self.factors):
            return None
        amps = np.array([1.0 + 0.0j])
        for f in self.factors:
            amps = np.kron(amps, f.amplitudes)
        return StateVector(amps)


@dataclass(frozen=True, eq=False)
class CorrelatedState:
    """Branch decomposition of an entangled multi-factor state.

    Invariants checked at construction: branch weights sum to 1 within
    NORM_TOL, and the branches are mutually distinguishable.  With
    orthonormal_labels=True (the measurement layout) the first factors must
    be pairwise orthogonal, and environment factors, when present, pairwise
    orthogonal too.  Symmetrized states set orthonormal_labels=False and are
    instead checked for pairwise orthogonality of the full branch products.
    """

    branches: tuple
    orthonormal_labels: bool = True

    def __post_init__(self):
        branches = tuple(self.branches)
        if not branches:
            raise EmptyInput("correlated state needs at least one branch")
        n_factors = {len(b.factors) for b in branches}
        if len(n_factors) != 1:
            raise DimensionMismatch("all branches must carry the same number of factors")
        total = sum(abs(b.coefficient) ** 2 for b in branches)
        if not abs(total - 1.0) <= NORM_TOL:
            raise InvalidParameter(f"branch weights sum to {total!r}, expected 1")
        if self.orthonormal_labels:
            for i in range(len(branches)):
                for j in range(i + 1, len(branches)):
                    if not abs(_overlap(branches[i].sub1, branches[j].sub1)) < NORM_TOL:
                        raise InvalidParameter(f"label states of branches {i}, {j} are not orthogonal")
                    if branches[i].subE is not None:
                        if not abs(_overlap(branches[i].subE, branches[j].subE)) < NORM_TOL:
                            raise InvalidParameter(
                                f"environment states of branches {i}, {j} are not orthogonal"
                            )
        else:
            cache: dict = {}
            for i in range(len(branches)):
                for j in range(i + 1, len(branches)):
                    prod = 1.0 + 0.0j
                    for a, b in zip(branches[i].factors, branches[j].factors):
                        key = (id(a), id(b))
                        if key not in cache:
                            cache[key] = _overlap(a, b)
                        prod *= cache[key]
                        if abs(prod) < NORM_TOL:
                            break
                    if not abs(prod) < NORM_TOL:
                        raise InvalidParameter(f"branches {i}, {j} are not orthogonal as products")
        object.__setattr__(self, "branches", branches)

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([b.coefficient for b in self.branches], dtype=complex)

    @property
    def weights(self) -> np.ndarray:
        return np.abs(self.coefficients) ** 2


@dataclass(frozen=True)
class SecondKindMixture:
    """Diagonal system-pointer mixture: components (weight, P_sys, P_pointer)."""

    components: tuple

    def __post_init__(self):
        total = sum(w for w, _, _ in self.components)
        if not abs(total - 1.0) <= NORM_TOL:
            raise InvalidParameter(f"mixture weights sum to {total!r}, expected 1")


@dataclass(frozen=True)
class InteractionHamiltonian:
    """H = H1 (x) 1 + 1 (x) H2 + V1 (x) V2 with conserved branch labels.

    H1 and V1 must commute (within COMMUTATOR_TOL relative to max|H1| max|V1|)
    so V1 eigenvalues label stationary branches, and the V1 spectrum must be
    non-degenerate so the labels are faithful.  V2 is a real function of the
    pointer coordinate; H2 is the kinetic term p^2 / 2 mass on whatever grid
    the state is evaluated on.
    """

    h1: OperatorMatrix
    v1: OperatorMatrix
    v2: Callable[[np.ndarray], np.ndarray]
    mass: float

    def __post_init__(self):
        if not (self.h1.hermitian and self.v1.hermitian):
            raise NonHermitian("H1 and V1 must be Hermitian")
        if self.h1.dim != self.v1.dim:
            raise DimensionMismatch("H1 and V1 act on the same factor")
        h1, v1 = self.h1.entries, self.v1.entries
        comm = np.max(np.abs(h1 @ v1 - v1 @ h1))
        bound = COMMUTATOR_TOL * np.max(np.abs(h1)) * np.max(np.abs(v1))
        if not comm <= bound:
            raise InvalidParameter(f"max|[H1, V1]| = {comm:g} exceeds {bound:g}")
        if not self.mass > 0:
            raise NonPositiveInput("mass must be positive")
        eigen = np.linalg.eigvalsh(self.v1.entries)
        scale = max(float(np.max(np.abs(eigen))), 1e-300)
        if eigen.size > 1 and float(np.min(np.diff(eigen))) < DEGENERACY_RTOL * scale:
            raise DegenerateSpectrum("V1 spectrum is degenerate; branch labels not faithful")
        object.__setattr__(self, "_v1_eigenvalues", eigen)

    @property
    def v1_eigenvalues(self) -> np.ndarray:
        return self._v1_eigenvalues


def von_neumann_couple(object_state: StateVector, pointer_index: int, pointer_dim: int) -> CorrelatedState:
    """Ideal pointer coupling |n>|m> -> |n>|n + m mod pointer_dim>.

    Applied to (sum_n c_n |n>) |pointer_index>, yielding one branch per
    nonzero amplitude.  The shift is modular, so the map stays an isometry
    and distinct object indices land on distinct pointer states whenever
    pointer_dim >= dim(object_state).
    """
    if not 0 <= pointer_index < pointer_dim:
        raise IndexOutOfRange(f"pointer index {pointer_index} outside 0..{pointer_dim - 1}")
    if pointer_dim < object_state.dim:
        raise DimensionMismatch("pointer dimension must cover the object dimension")
    branches = []
    for n, c in enumerate(object_state.amplitudes):
        if c == 0:
            continue
        sub1 = np.zeros(object_state.dim, dtype=complex)
        sub1[n] = 1.0
        sub2 = np.zeros(pointer_dim, dtype=complex)
        sub2[(n + pointer_index) % pointer_dim] = 1.0
        branches.append(
            Branch(complex(c), (StateVector(sub1), StateVector(sub2)))
        )
    return CorrelatedState(tuple(branches))


def _affine_slope(v2: Callable, x0: float, scale: float) -> tuple[float, float]:
    h = max(scale, 1e-12)
    lo, hi = float(v2(np.array([x0 - h]))[0]), float(v2(np.array([x0 + h]))[0])
    mid = float(v2(np.array([x0]))[0])
    return mid, (hi - lo) / (2.0 * h)


def branch_evolve(
    ham: InteractionHamiltonian,
    v_eigenvalue: float,
    initial: GaussianPacket,
    t: float | np.ndarray,
    spreading: bool = False,
) -> GaussianPacket:
    """Closed-form branch packet at time t under the effective potential v V2.

    t is a time or an array of times; for an array the packet's moments are
    arrays over it.  The effective force is f = -v_eigenvalue * V2'(x); V2
    must be affine over the region the packet sweeps up to each sample time
    (checked, NonlinearPotential otherwise), so the force is constant and the
    Ehrenfest trajectory is exact.  A force, position or V2 value beyond the
    double range raises InvalidParameter; a NaN V2 is not affine.
    """
    # Overflow is reported as such below, not as a NumPy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        value0, slope = _affine_slope(ham.v2, initial.x0, initial.sigma_x)
        force = -float(v_eigenvalue) * slope
        if math.isnan(force):
            raise NonlinearPotential("V2 is not a number at the packet centre")
        if math.isinf(force):
            raise InvalidParameter(f"effective force {force!r} overflows a double")
        moved = initial.evolved(t, force=force, spreading=spreading)
        if not np.isfinite(moved.x0).all():
            raise InvalidParameter("evolved packet position overflows a double")
        # Verify affinity over everything the packet sweeps, with 6 sigma
        # margin: one window per sample time, each probed at the 9 points of
        # np.linspace(lo, hi, 9).  Going one point index at a time over all
        # windows never holds a (n_times, 9) array.
        lo = np.atleast_1d(np.minimum(initial.x0, moved.x0) - 6.0 * moved.sigma_x)
        hi = np.atleast_1d(np.maximum(initial.x0, moved.x0) + 6.0 * moved.sigma_x)
        step = (hi - lo) / 8
        peak = misfit = 0.0
        for k in range(9):
            xs = hi if k == 8 else k * step + lo
            values = np.asarray(ham.v2(xs), dtype=float)
            peak = np.maximum(peak, np.abs(values))
            misfit = np.maximum(misfit, np.abs(values - (value0 + slope * (xs - initial.x0))))
        tolerance = 1e-9 * np.maximum(np.maximum(peak, abs(slope) * (hi - lo)), 1e-300)
    if np.isinf(peak).any():
        raise InvalidParameter("V2 overflows a double over the packet support")
    if not np.all(misfit <= tolerance):
        raise NonlinearPotential("V2 is not affine over the packet support")
    return moved


def second_kind_mixture(state: CorrelatedState) -> SecondKindMixture:
    """Environment-trace of an (object, pointer, environment) branch state.

    With orthonormal environment factors the trace kills every cross term,
    leaving the diagonal mixture sum_n |c_n|^2 P_n (x) Q_n.
    """
    components = []
    for branch in state.branches:
        if branch.subE is None:
            raise MissingEnvironment("every branch needs an environment factor")
        if not isinstance(branch.sub2, StateVector):
            raise DimensionMismatch("pointer factors must be StateVectors to form projectors")
        components.append(
            (
                float(abs(branch.coefficient) ** 2),
                projector(branch.sub1),
                projector(branch.sub2),
            )
        )
    return SecondKindMixture(tuple(components))


def symmetrize_bose(states: Sequence[StateVector]) -> CorrelatedState:
    """Bosonic symmetrization (1/sqrt(n!)) sum_J |s_J(1)> ... |s_J(n)>.

    Inputs must be normalized and pairwise orthogonal so the n! permutation
    branches are orthogonal products and the total stays unit norm.  Capped
    at 6 particles (720 branches).
    """
    n = len(states)
    if n == 0:
        raise EmptyInput("need at least one particle state")
    if n > MAX_BOSE_PARTICLES:
        raise TooManyParticles(f"{n} particles would need {math.factorial(n)} branches")
    for i in range(n):
        for j in range(i + 1, n):
            if not abs(states[i].overlap(states[j])) < NORM_TOL:
                raise InvalidParameter(f"input states {i}, {j} are not orthogonal")
    coeff = 1.0 / math.sqrt(math.factorial(n))
    branches = tuple(
        Branch(coeff, tuple(states[k] for k in perm))
        for perm in itertools.permutations(range(n))
    )
    return CorrelatedState(branches, orthonormal_labels=(n <= 2))


def to_product_vector(state: CorrelatedState) -> np.ndarray:
    """Flat tensor amplitudes sum_n c_n (factor_1 (x) ... (x) factor_k)."""
    total = None
    for branch in state.branches:
        product = branch.product()
        if product is None:
            raise DimensionMismatch("branch factors must all be StateVectors")
        term = branch.coefficient * product.amplitudes
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# Full-grid residual of the branch ansatz against the exact dynamics.


def _kinetic_apply(rows: np.ndarray, grid: Grid1D, mass: float) -> np.ndarray:
    kinetic = (HBAR * _angular_wavenumbers(grid)) ** 2 / (2.0 * mass)
    return np.fft.ifft(np.fft.fft(rows, axis=1) * kinetic[None, :], axis=1)


def _assemble(
    ham: InteractionHamiltonian,
    state: CorrelatedState,
    t: float,
    grid: Grid1D,
    spreading: bool,
) -> np.ndarray:
    """Branch ansatz at time t as a (dim1, n_grid) array."""
    rows = np.zeros((state.branches[0].sub1.dim, grid.n_points), dtype=complex)
    for branch in state.branches:
        if not isinstance(branch.sub2, GaussianPacket):
            raise DimensionMismatch("residual needs GaussianPacket pointer branches")
        v_n = float(
            np.vdot(branch.sub1.amplitudes, ham.v1.apply(branch.sub1.amplitudes)).real
        )
        packet = branch_evolve(ham, v_n, branch.sub2, t, spreading=spreading)
        u = discretize_gaussian(grid, packet).amplitudes
        rows += branch.coefficient * np.outer(branch.sub1.amplitudes, u)
    return rows


def hamiltonian_apply(
    ham: InteractionHamiltonian, rows: np.ndarray, grid: Grid1D
) -> np.ndarray:
    """H Psi for a joint state laid out as (dim1, n_grid) rows."""
    h_psi = ham.h1.entries @ rows + _kinetic_apply(rows, grid, ham.mass)
    v2_diag = np.asarray(ham.v2(grid.xs), dtype=float)
    return h_psi + (ham.v1.entries @ rows) * v2_diag[None, :]


def residual_from_family(
    ham: InteractionHamiltonian,
    family: Callable[[float], np.ndarray],
    t: float,
    grid: Grid1D,
    relative: bool = False,
) -> float:
    """Schrodinger defect of any time family of joint (dim1, n_grid) states.

    The time derivative is a central difference with dt = 1e-3 t (floored at
    1e-12 s).  Returns ||(H - i hbar d/dt) Psi|| / ||Psi||; with
    relative=True the defect is measured against ||H Psi|| instead, a
    dimensionless figure of merit.
    """
    dt = max(1e-3 * abs(t), 1e-12)
    psi = np.asarray(family(t), dtype=complex)
    dpsi_dt = (np.asarray(family(t + dt)) - np.asarray(family(t - dt))) / (2.0 * dt)
    h_psi = hamiltonian_apply(ham, psi, grid)
    defect = float(np.linalg.norm(h_psi - 1j * HBAR * dpsi_dt))
    if relative:
        return defect / float(np.linalg.norm(h_psi))
    return defect / float(np.linalg.norm(psi))


def schrodinger_residual(
    ham: InteractionHamiltonian,
    correlated: CorrelatedState,
    t: float,
    grid: Grid1D,
    spreading: bool = False,
    relative: bool = False,
) -> float:
    """Schrodinger defect of the closed-form branch ansatz at time t.

    Measures how far the frozen-width branch reconstruction is from solving
    the exact dynamics; see residual_from_family for the metric.
    """
    return residual_from_family(
        ham,
        lambda s: _assemble(ham, correlated, s, grid, spreading),
        t,
        grid,
        relative=relative,
    )
