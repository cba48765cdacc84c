"""Finite-dimensional state vectors, operators, and the superposition-breaking transform.

The central object is the rank-one projector P = |psi><psi| and the
one-parameter unitary family

    W_eps = exp(i eps P) = 1 + (e^{i eps} - 1) P,

which follows from idempotency of P.  W_eps multiplies the component of any
vector along |psi> by a phase e^{i eps} and leaves the orthogonal complement
untouched; it is the elementary move behind every collapse model in this
package.  Everything here is desk-scale (dimensions up to a few thousand) and
immutable once built.  Operators are dense matrices, except that an operator
diagonal in the basis (any function of grid position) is stored as the
vector of its diagonal; OperatorMatrix.apply hides which.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter

# Norm drift allowed for anything that claims to be a unit vector or unitary.
NORM_TOL = 1e-10
# Tolerance for exact algebraic identities (idempotency, reconstruction, ...).
ALG_TOL = 1e-12
# make_state rescales amplitudes whose largest modulus leaves this range.
# Inside it the largest square is a normal double of at least 2^-960, squares
# that round as subnormals lie below its last digit, and a sum of up to 2^64
# squares stays finite.
_SQUARE_SAFE_MIN = 2.0**-480
_SQUARE_SAFE_MAX = 2.0**480


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class StateVector:
    """A unit-norm complex vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise InvalidParameter("state vector needs a non-empty 1-d amplitude array")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise InvalidParameter(
                f"amplitudes are not unit norm (|psi|^2 = {norm_sq!r}); use make_state"
            )
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def overlap(self, other: "StateVector") -> complex:
        """<self|other>."""
        if self.dim != other.dim:
            raise InvalidParameter(f"dims {self.dim} and {other.dim} differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A square operator with verified structural claims.

    entries is the dense n x n matrix or, for an operator diagonal in the
    basis, the 1-d array of its n diagonal values.  The hermitian/unitary
    flags are promises checked at construction time: a flag set to True on
    a matrix that fails the corresponding identity is rejected rather than
    silently trusted.  The Hermitian test is relative, max|M - M^dagger| <=
    ALG_TOL max|M|, so its verdict does not depend on the units of M.
    """

    entries: np.ndarray
    hermitian: bool = False
    unitary: bool = False

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        diagonal = m.ndim == 1
        if m.size == 0 or not (diagonal or (m.ndim == 2 and m.shape[0] == m.shape[1])):
            raise InvalidParameter(f"operator must be square or diagonal, got shape {m.shape}")
        adjoint = m.conj() if diagonal else m.conj().T
        if self.hermitian and not np.max(np.abs(m - adjoint)) <= ALG_TOL * np.max(np.abs(m)):
            raise InvalidParameter("hermitian flag set but M != M^dagger")
        if self.unitary:
            defect = np.abs(m) ** 2 - 1.0 if diagonal else adjoint @ m - np.eye(m.shape[0])
            drift = np.max(np.abs(defect))
            if not drift < NORM_TOL:
                raise InvalidParameter(f"unitary flag set but |M^dag M - 1| = {drift:g}")
        object.__setattr__(self, "entries", _frozen(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """M v; for diagonal storage the elementwise product, bit-identical to the dense matvec."""
        return self.entries * v if self.entries.ndim == 1 else self.entries @ v


@dataclass(frozen=True)
class GaussDecomposition:
    """Rank-one projector split into diagonal, raising and lowering parts.

    For |Psi> = sum_i c_i |u_i> the projector splits as

        P = sum_i |c_i|^2 |u_i><u_i|                      (diagonal)
          + sum_{j>i} c_i* c_j |u_j><u_i|                 (raising)
          + sum_{j<i} c_i* c_j |u_j><u_i|                 (lowering)

    Entries are stored sparsely as (row, col, value) triples; exact zeros in
    the amplitude vector produce no triple.
    """

    dim: int
    diagonal: tuple = field(default_factory=tuple)  # (index, weight)
    raising: tuple = field(default_factory=tuple)  # (row j, col i, value), j > i
    lowering: tuple = field(default_factory=tuple)  # (row j, col i, value), j < i

    def reconstruct(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for i, w in self.diagonal:
            m[i, i] = w
        for j, i, v in self.raising:
            m[j, i] = v
        for j, i, v in self.lowering:
            m[j, i] = v
        return m


def make_state(amplitudes) -> StateVector:
    """Normalize a complex amplitude list into a StateVector.

    Relative phases are preserved exactly; only the overall scale is fixed.
    Amplitudes whose largest modulus lies outside [2^-480, 2^480] are first
    divided by that modulus, so their squares neither overflow nor lose
    digits as subnormals; every other input is normalized as is.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.ndim != 1 or amps.size == 0:
        raise InvalidParameter("make_state needs a non-empty 1-d amplitude sequence")
    peak = float(np.max(np.abs(amps)))
    if peak > 0.0 and not _SQUARE_SAFE_MIN <= peak <= _SQUARE_SAFE_MAX:
        # Real and imaginary parts apart: complex division overflows for a
        # subnormal divisor.
        amps = amps.real / peak + 1j * (amps.imag / peak)
    norm = float(np.linalg.norm(amps))
    if norm == 0.0:
        raise InvalidParameter("cannot normalize the zero vector")
    return StateVector(amps / norm)


def projector(psi: StateVector) -> OperatorMatrix:
    """Rank-one projector |psi><psi|."""
    c = psi.amplitudes
    return OperatorMatrix(np.outer(c, c.conj()), hermitian=True)


def exp_projector(psi: StateVector, eps: float) -> OperatorMatrix:
    """The unitary exp(i eps |psi><psi|) = 1 + (e^{i eps} - 1) |psi><psi|."""
    p = projector(psi).entries
    w = np.eye(psi.dim, dtype=complex) + (np.exp(1j * eps) - 1.0) * p
    return OperatorMatrix(w, unitary=True)


def apply_w(psi: StateVector, chi: StateVector, eps: float) -> StateVector:
    """Apply exp(i eps |psi><psi|) to |chi> without forming the matrix.

    Three regimes, resolved by the overlap s = <psi|chi>:
    parallel (|s| = 1): chi picks up the global phase e^{i eps};
    orthogonal (s = 0): chi is returned unchanged;
    otherwise: chi + s (e^{i eps} - 1) psi.
    """
    if psi.dim != chi.dim:
        raise InvalidParameter(f"dims {psi.dim} and {chi.dim} differ")
    s = np.vdot(psi.amplitudes, chi.amplitudes)
    if abs(abs(s) - 1.0) < ALG_TOL:
        out = np.exp(1j * eps) * chi.amplitudes
    elif abs(s) < ALG_TOL:
        out = chi.amplitudes.copy()
    else:
        out = chi.amplitudes + s * (np.exp(1j * eps) - 1.0) * psi.amplitudes
    return StateVector(out)


def deviation_from_moments(mean: float, second: float) -> float:
    """sqrt(<A^2> - <A>^2) of a Hermitian observable from its first two moments.

    The variance can dip slightly below zero from rounding; anything within
    -ALG_TOL <A^2> is clamped to zero, so the clamp does not depend on the
    units of A.  Anything worse, or a NaN, raises InvalidParameter.
    """
    variance = second - mean * mean
    if not variance >= -ALG_TOL * second:
        raise InvalidParameter(f"negative variance {variance:g} beyond rounding tolerance")
    return float(np.sqrt(max(variance, 0.0)))


def expectation_and_deviation(op: OperatorMatrix, psi: StateVector) -> tuple[float, float]:
    """Mean and standard deviation of a Hermitian observable (see deviation_from_moments)."""
    if not op.hermitian:
        raise InvalidParameter("deviation is defined for Hermitian operators only")
    if op.dim != psi.dim:
        raise InvalidParameter(f"dims {op.dim} and {psi.dim} differ")
    a_psi = op.apply(psi.amplitudes)
    mean = float(np.vdot(psi.amplitudes, a_psi).real)
    second = float(np.vdot(a_psi, a_psi).real)  # <A^2> via |A psi|^2, exact for Hermitian A
    return mean, deviation_from_moments(mean, second)


def gauss_decompose(psi: StateVector) -> GaussDecomposition:
    """Split |psi><psi| into diagonal, raising and lowering triples."""
    c = psi.amplitudes
    diagonal = []
    raising = []
    lowering = []
    for i in range(c.size):
        if c[i] == 0:
            continue
        diagonal.append((i, float(abs(c[i]) ** 2)))
        for j in range(c.size):
            if j == i or c[j] == 0:
                continue
            value = complex(np.conj(c[i]) * c[j])
            if j > i:
                raising.append((j, i, value))
            else:
                lowering.append((j, i, value))
    return GaussDecomposition(
        dim=c.size,
        diagonal=tuple(diagonal),
        raising=tuple(raising),
        lowering=tuple(lowering),
    )
