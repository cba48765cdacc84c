"""Bell-type correlation bounds for branch states with packet-like bases.

When every branch state is a sharp packet for all four observables (the
magnitude of each branch mean at least 1) and the observables are
interference-free across branches, the pair correlators lose their cross
terms, <X (x) Y> = sum_n w_n x_n y_n, and the classic algebra gives

    |<A B> - <A D>| <= 2 +/- (<C D> + <C B>),

with the sign chosen by the caller.  A maximally entangled spin singlet
evaluated exactly (no packet conditions) violates the bound up to 2 sqrt 2,
which is the contrast this module is for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConditionViolated, DimensionMismatch, InvalidParameter
from ..hilbert import OperatorMatrix, StateVector
from ..supersystem import Branch, CorrelatedState
from ..wavepacket import (
    A1_RATIO,
    A2_OFFDIAG_FRAC,
    GaussianPacket,
    Grid1D,
    check_a1,
    check_a2,
    discretize_gaussian,
)

# Slack for the exact magnitude condition |<alpha>_n| >= 1 (rounding only).
CONDITION_TOL = 1e-9

# Dichotomic means saturate the bound exactly (|b-d| + |b+d| = 2 for unit
# values), so lhs and rhs agree up to operation order; absorb that rounding.
BOUND_TOL = 1e-12

TSIRELSON = 2.0 * np.sqrt(2.0)


@dataclass(frozen=True)
class BellReport:
    lhs: float
    rhs: float
    satisfied: bool
    approx_conditions_met: bool
    chsh_value: float
    sign: int
    condition_min: float  # smallest branch-mean magnitude seen (audit diagnostics)


def _branch_mean(op: OperatorMatrix, s: StateVector) -> float:
    return float(np.vdot(s.amplitudes, op.apply(s.amplitudes)).real)


def _pair_expectation(state: CorrelatedState, x: OperatorMatrix, y: OperatorMatrix) -> float:
    """<X (x) Y> with all branch cross terms (exact)."""
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


def _diagonal_pair(state: CorrelatedState, x: OperatorMatrix, y: OperatorMatrix) -> float:
    """Cross-term-free correlator sum_n w_n <X>_n <Y>_n."""
    total = 0.0
    for w, b in zip(state.weights, state.branches):
        total += float(w) * _branch_mean(x, b.sub1) * _branch_mean(y, b.sub2)
    return total


def _audit_packet_conditions(state: CorrelatedState, obs) -> bool:
    """Sharp-packet (A1) and interference-free (A2) audit over the second basis.

    Only A2's off-diagonal inequality is required: dichotomic branches often
    share a mean, so A2's mean-gap test does not belong to this bound.
    """
    states2 = [b.sub2 for b in state.branches]
    for alpha in obs:
        if not all(check_a1(s, alpha, A1_RATIO).passes_a1 for s in states2):
            return False
        report = check_a2(states2, alpha)
        means = np.abs(report.means)
        bound = A2_OFFDIAG_FRAC * np.maximum.outer(means, means)
        if np.any(report.off_diagonal_magnitude > bound):
            return False
    return True


def bell_evaluate(
    state: CorrelatedState,
    obs: tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix, OperatorMatrix],
    sign: int = 1,
    enforce_approx: bool = True,
) -> BellReport:
    """Evaluate |<A B> - <A D>| <= 2 +/- (<C D> + <C B>) on a branch state.

    With enforce_approx=True the branch means of every observable on both
    factors must reach magnitude 1 (ConditionViolated otherwise), the packet
    conditions are audited on the second basis, and all four correlators are
    computed cross-term-free.  With enforce_approx=False everything is exact,
    which is how the singlet's 2 sqrt 2 violation is exhibited.  chsh_value
    is always the exact |<AB> - <AD> + <CB> + <CD>|.
    """
    if sign not in (1, -1):
        raise InvalidParameter("sign must be +1 or -1")
    a, b, c, d = obs
    for branch in state.branches:
        if not isinstance(branch.sub1, StateVector) or not isinstance(branch.sub2, StateVector):
            raise DimensionMismatch("bell_evaluate needs StateVector branch factors")
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
                    if alpha.dim != s.dim:
                        raise DimensionMismatch("observables must act on both factors")
                    magnitude = abs(_branch_mean(alpha, s))
                    condition_min = min(condition_min, magnitude)
                    if magnitude < 1.0 - CONDITION_TOL:
                        raise ConditionViolated(
                            f"branch mean magnitude {magnitude:g} is below 1"
                        )
        approx_ok = _audit_packet_conditions(state, obs)
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


# ---------------------------------------------------------------------------
# Canonical states and observables.


def singlet_state() -> CorrelatedState:
    """(|01> - |10>) / sqrt 2 in the branch representation."""
    e0 = StateVector(np.array([1.0, 0.0], dtype=complex))
    e1 = StateVector(np.array([0.0, 1.0], dtype=complex))
    inv = 1.0 / np.sqrt(2.0)
    return CorrelatedState((Branch(inv, (e0, e1)), Branch(-inv, (e1, e0))))


def spin_observable(theta: float) -> OperatorMatrix:
    """cos(theta) sigma_z + sin(theta) sigma_x; eigenvalues +/- 1."""
    return OperatorMatrix(
        np.array(
            [[np.cos(theta), np.sin(theta)], [np.sin(theta), -np.cos(theta)]], dtype=complex
        ),
        hermitian=True,
    )


def chsh_optimal_observables() -> tuple[OperatorMatrix, ...]:
    """Angles (0, pi/4, pi/2, 3pi/4) maximize the singlet's |S| at 2 sqrt 2."""
    return tuple(spin_observable(t) for t in (0.0, np.pi / 4.0, np.pi / 2.0, 3.0 * np.pi / 4.0))


# Audited random configurations: packets on a cell lattice with +/-1 step
# observables whose boundaries stay 10 sigma away from every packet center.
_CELL_COUNT = 7
_CELL_SPACING = 4.0e-6
_CELL_SIGMA = 2.0e-7


def _default_grid() -> Grid1D:
    return Grid1D(-1.4e-5, 1.4e-5, 1024)


def _cell_center(i: int) -> float:
    return (i - (_CELL_COUNT - 1) / 2.0) * _CELL_SPACING


def _step_observable(grid: Grid1D, signs: np.ndarray) -> OperatorMatrix:
    idx = np.clip(
        np.rint((grid.xs - _cell_center(0)) / _CELL_SPACING).astype(int), 0, _CELL_COUNT - 1
    )
    return OperatorMatrix(signs[idx], hermitian=True)


def audited_configuration(seed: int, n_branches: int = 2, grid: Grid1D | None = None):
    """Random branch state plus dichotomic observables meeting every condition.

    Branch bases are Gaussian packets centered on distinct lattice cells (20
    sigma apart), observables take values +/-1 constant on each cell, and the
    branch weights stay away from degeneracy.  Returns (state, (A, B, C, D)).
    """
    if not 2 <= n_branches <= 3:
        raise InvalidParameter("audited configurations use 2 or 3 branches")
    grid = grid or _default_grid()
    rng = np.random.Generator(np.random.PCG64(seed))
    cells1 = rng.choice(_CELL_COUNT, size=n_branches, replace=False)
    cells2 = rng.choice(_CELL_COUNT, size=n_branches, replace=False)
    raw = rng.uniform(0.15, 1.0, size=n_branches)
    weights = raw / np.sum(raw)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n_branches))
    coeffs = np.sqrt(weights) * phases
    branches = []
    for n in range(n_branches):
        p1 = GaussianPacket(_cell_center(int(cells1[n])), 0.0, _CELL_SIGMA, 1.0e-25)
        p2 = GaussianPacket(_cell_center(int(cells2[n])), 0.0, _CELL_SIGMA, 1.0e-25)
        branches.append(
            Branch(complex(coeffs[n]), (discretize_gaussian(grid, p1), discretize_gaussian(grid, p2)))
        )
    state = CorrelatedState(tuple(branches))
    obs = tuple(
        _step_observable(grid, rng.choice(np.array([-1.0, 1.0]), size=_CELL_COUNT))
        for _ in range(4)
    )
    return state, obs
