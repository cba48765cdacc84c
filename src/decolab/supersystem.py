"""Correlated system-apparatus states and their closed-form branch dynamics.

A measurement-type interaction entangles an object with a pointer so the
joint state takes the branch form sum_n c_n |psi_n> (x) |u_n(t)>, each
pointer branch riding its own effective potential v_n V2(x).  V2 is linear,
V2(x) = gradient * x, so every branch stays Gaussian and its moments follow
the classical trajectory under the constant force f = -v_n gradient; that
closed form is what order-parameter traces are built from.  Bosonic product
states can be symmetrized into the same branch bookkeeping.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameter
from .hilbert import NORM_TOL, OperatorMatrix, StateVector
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
    raise InvalidParameter(
        f"cannot overlap factors of types {type(a).__name__} and {type(b).__name__}"
    )


@dataclass(frozen=True)
class Branch:
    """One branch: a complex coefficient and a tuple of sub-state factors.

    Measurement states use (sub1, sub2), the label and pointer states;
    symmetrized n-particle states carry n single-particle factors.
    """

    coefficient: complex
    factors: tuple

    @property
    def sub1(self):
        return self.factors[0]

    @property
    def sub2(self):
        return self.factors[1]

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
    be pairwise orthogonal.  Symmetrized states set orthonormal_labels=False
    and are instead checked for pairwise orthogonality of the full branch
    products.
    """

    branches: tuple
    orthonormal_labels: bool = True

    def __post_init__(self):
        branches = tuple(self.branches)
        if not branches:
            raise InvalidParameter("correlated state needs at least one branch")
        n_factors = {len(b.factors) for b in branches}
        if len(n_factors) != 1:
            raise InvalidParameter("all branches must carry the same number of factors")
        total = sum(abs(b.coefficient) ** 2 for b in branches)
        if not abs(total - 1.0) <= NORM_TOL:
            raise InvalidParameter(f"branch weights sum to {total!r}, expected 1")
        if self.orthonormal_labels:
            for i in range(len(branches)):
                for j in range(i + 1, len(branches)):
                    if not abs(_overlap(branches[i].sub1, branches[j].sub1)) < NORM_TOL:
                        raise InvalidParameter(f"label states of branches {i}, {j} are not orthogonal")
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
class InteractionHamiltonian:
    """H = H1 (x) 1 + 1 (x) H2 + V1 (x) V2 with conserved branch labels.

    H1 and V1 must commute (within COMMUTATOR_TOL relative to max|H1| max|V1|)
    so V1 eigenvalues label stationary branches, and the V1 spectrum must be
    non-degenerate so the labels are faithful.  V2(x) = gradient * x on the
    pointer coordinate, affine by construction, so branch dynamics need no
    check of it.  H2 is the kinetic term p^2 / 2 mass on whatever grid the
    state is evaluated on.
    """

    h1: OperatorMatrix
    v1: OperatorMatrix
    gradient: float
    mass: float

    def __post_init__(self):
        if not (self.h1.hermitian and self.v1.hermitian):
            raise InvalidParameter("H1 and V1 must be Hermitian")
        if self.h1.dim != self.v1.dim:
            raise InvalidParameter("H1 and V1 act on the same factor")
        h1, v1 = self.h1.entries, self.v1.entries
        comm = np.max(np.abs(h1 @ v1 - v1 @ h1))
        bound = COMMUTATOR_TOL * np.max(np.abs(h1)) * np.max(np.abs(v1))
        if not comm <= bound:
            raise InvalidParameter(f"max|[H1, V1]| = {comm:g} exceeds {bound:g}")
        if not self.mass > 0:
            raise InvalidParameter("mass must be positive")
        eigen = np.linalg.eigvalsh(self.v1.entries)
        scale = max(float(np.max(np.abs(eigen))), 1e-300)
        if eigen.size > 1 and float(np.min(np.diff(eigen))) < DEGENERACY_RTOL * scale:
            raise InvalidParameter("V1 spectrum is degenerate; branch labels not faithful")


def von_neumann_couple(object_state: StateVector, pointer_index: int, pointer_dim: int) -> CorrelatedState:
    """Ideal pointer coupling |n>|m> -> |n>|n + m mod pointer_dim>.

    Applied to (sum_n c_n |n>) |pointer_index>, yielding one branch per
    nonzero amplitude.  The shift is modular, so the map stays an isometry
    and distinct object indices land on distinct pointer states whenever
    pointer_dim >= dim(object_state).
    """
    if not 0 <= pointer_index < pointer_dim:
        raise InvalidParameter(f"pointer index {pointer_index} outside 0..{pointer_dim - 1}")
    if pointer_dim < object_state.dim:
        raise InvalidParameter("pointer dimension must cover the object dimension")
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


def branch_evolve(
    ham: InteractionHamiltonian,
    v_eigenvalue: float,
    initial: GaussianPacket,
    t: float | np.ndarray,
    spreading: bool = False,
) -> GaussianPacket:
    """Closed-form branch packet at time t under the effective potential v V2.

    t is a time or an array of times; for an array the packet's moments are
    arrays over it.  V2 = gradient * x, so the force f = -v_eigenvalue *
    gradient is constant and the Ehrenfest trajectory is exact.  A force or
    position beyond the double range raises InvalidParameter.
    """
    force = -float(v_eigenvalue) * float(ham.gradient)
    if math.isinf(force):
        raise InvalidParameter(f"effective force {force!r} overflows a double")
    # Overflow is reported as such below, not as a NumPy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        moved = initial.evolved(t, force=force, spreading=spreading)
    if not np.isfinite(moved.x0).all():
        raise InvalidParameter("evolved packet position overflows a double")
    return moved


def symmetrize_bose(states: Sequence[StateVector]) -> CorrelatedState:
    """Bosonic symmetrization (1/sqrt(n!)) sum_J |s_J(1)> ... |s_J(n)>.

    Inputs must be normalized and pairwise orthogonal so the n! permutation
    branches are orthogonal products and the total stays unit norm.  Capped
    at 6 particles (720 branches).
    """
    n = len(states)
    if n == 0:
        raise InvalidParameter("need at least one particle state")
    if n > MAX_BOSE_PARTICLES:
        raise InvalidParameter(f"{n} particles would need {math.factorial(n)} branches")
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
            raise InvalidParameter("branch factors must all be StateVectors")
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
            raise InvalidParameter("residual needs GaussianPacket pointer branches")
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
    return h_psi + (ham.v1.entries @ rows) * (ham.gradient * grid.xs)[None, :]


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
