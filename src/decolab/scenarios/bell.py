"""Bell-type correlation bounds for branch states with packet-like bases.

When every branch state is a sharp packet for all four observables (the
magnitude of each branch mean at least 1) and the observables are
interference-free across branches, the pair correlators lose their cross
terms, <X (x) Y> = sum_n w_n x_n y_n, and the classic algebra gives

    |<A B> - <A D>| <= 2 +/- (<C D> + <C B>),

with the sign chosen by the caller.  A maximally entangled spin singlet
evaluated exactly (no packet conditions) violates the bound up to 2 sqrt 2,
which is the contrast this module is for.

bell_evaluate builds one element_table <s_j|X|s_k> per observable and
factor; the correlators and branch means are read from those tables, and the
A1/A2 audit reads interference_report over the second factor's tables.
Audited configurations place their packets on a fixed lattice of cells, so
each cell's discretized packet is built once per process and shared,
read-only, by every branch that sits on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from ..errors import InvalidParameter
from ..hilbert import OperatorMatrix, StateVector
from ..supersystem import Branch, CorrelatedState
from ..wavepacket import (
    GaussianPacket,
    Grid1D,
    discretize_gaussian,
    element_table,
    interference_report,
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


def _exact_correlator(coeffs: np.ndarray, ex, ey) -> float:
    """<X (x) Y> with all branch cross terms, from the two factors' tables."""
    n = len(coeffs)
    total = 0.0 + 0.0j
    for j in range(n):
        for k in range(n):
            total += np.conj(coeffs[j]) * coeffs[k] * ex[j, k] * ey[j, k]
    return float(total.real)


def _product_correlator(weights: np.ndarray, ex, ey) -> float:
    """Cross-term-free correlator sum_n w_n <X>_n <Y>_n, from the tables' diagonals."""
    total = 0.0
    for n, w in enumerate(weights):
        total += float(w) * float(ex[n, n].real) * float(ey[n, n].real)
    return total


def _audit_packet_conditions(tables) -> bool:
    """Sharp-packet (A1) and interference-free (A2) audit over the second basis.

    tables holds one element_table result per observable.  Only A2's
    off-diagonal inequality is required: dichotomic branches often share a
    mean, so A2's mean-gap test does not belong to this bound.
    """
    reports = (interference_report(table, second) for table, second in tables)
    return all(np.all(r.passes_a1()) and np.all(r.passes_off_diagonal) for r in reports)


def bell_evaluate(
    state: CorrelatedState,
    obs: tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix, OperatorMatrix],
    sign: int = 1,
    enforce_approx: bool = True,
) -> BellReport:
    """Evaluate |<A B> - <A D>| <= 2 +/- (<C D> + <C B>) on a branch state.

    A and C act on the first factor and B and D on the second.  With
    enforce_approx=True the branch means of every observable on both
    factors must reach magnitude 1 (InvalidParameter otherwise), the packet
    conditions are audited on the second basis, and all four correlators are
    computed cross-term-free.  With enforce_approx=False everything is exact,
    which is how the singlet's 2 sqrt 2 violation is exhibited.  chsh_value
    is always the exact |<AB> - <AD> + <CB> + <CD>|.  Every correlator and
    branch mean is read from one table of matrix elements <s_j|X|s_k> per
    observable and factor.
    """
    if sign not in (1, -1):
        raise InvalidParameter("sign must be +1 or -1")
    factors = ([b.sub1 for b in state.branches], [b.sub2 for b in state.branches])
    if not all(isinstance(s, StateVector) for states in factors for s in states):
        raise InvalidParameter("bell_evaluate needs StateVector branch factors")
    # observable indices each factor needs: its own pair, or all four for the audit
    needed = ((0, 1, 2, 3), (0, 1, 2, 3)) if enforce_approx else ((0, 2), (1, 3))
    for states, indices in zip(factors, needed):
        if any(obs[i].dim != s.dim for i in indices for s in states):
            raise InvalidParameter("observables must act on the factors they are paired with")
    t1, t2 = (
        {i: element_table(states, obs[i]) for i in indices}
        for states, indices in zip(factors, needed)
    )
    e1, e2 = ({i: table for i, (table, _) in t.items()} for t in (t1, t2))
    coeffs = state.coefficients
    exact = {(x, y): _exact_correlator(coeffs, e1[x], e2[y]) for x in (0, 2) for y in (1, 3)}
    chsh_value = abs(exact[0, 1] - exact[0, 3] + exact[2, 1] + exact[2, 3])
    condition_min = float("inf")
    if enforce_approx:
        for i in range(4):
            for n in range(len(coeffs)):
                for table in (e1[i], e2[i]):
                    magnitude = abs(float(table[n, n].real))
                    condition_min = min(condition_min, magnitude)
                    if magnitude < 1.0 - CONDITION_TOL:
                        raise InvalidParameter(
                            f"branch mean magnitude {magnitude:g} is below 1"
                        )
        approx_ok = _audit_packet_conditions(t2.values())
        weights = state.weights
        pair = {(x, y): _product_correlator(weights, e1[x], e2[y]) for x, y in exact}
    else:
        approx_ok = False
        pair = exact
    lhs = abs(pair[0, 1] - pair[0, 3])
    rhs = 2.0 + sign * (pair[2, 3] + pair[2, 1])
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
_CELL_MASS = 1.0e-25
_CELL_GRID = Grid1D(-1.4e-5, 1.4e-5, 1024)


def _cell_center(i: int) -> float:
    return (i - (_CELL_COUNT - 1) / 2.0) * _CELL_SPACING


@cache
def _cell_layout() -> tuple[tuple[StateVector, ...], np.ndarray]:
    """Each lattice cell's discretized packet, and the cell nearest each grid point.

    Both are read-only, so every branch and observable shares them.
    """
    states = tuple(
        discretize_gaussian(_CELL_GRID, GaussianPacket(_cell_center(i), 0.0, _CELL_SIGMA, _CELL_MASS))
        for i in range(_CELL_COUNT)
    )
    idx = np.clip(
        np.rint((_CELL_GRID.xs - _cell_center(0)) / _CELL_SPACING).astype(int), 0, _CELL_COUNT - 1
    )
    idx.flags.writeable = False
    return states, idx


def _step_observable(cell_index: np.ndarray, signs: np.ndarray) -> OperatorMatrix:
    return OperatorMatrix(signs[cell_index], hermitian=True)


def audited_configuration(seed: int, n_branches: int = 2):
    """Random branch state plus dichotomic observables meeting every condition.

    Branch bases are Gaussian packets centered on distinct lattice cells (20
    sigma apart), observables take values +/-1 constant on each cell, and the
    branch weights stay away from degeneracy.  Returns (state, (A, B, C, D)).
    Each cell's packet is discretized once per process and shared.
    """
    if not 2 <= n_branches <= 3:
        raise InvalidParameter("audited configurations use 2 or 3 branches")
    cell_states, cell_index = _cell_layout()
    rng = np.random.Generator(np.random.PCG64(seed))
    cells1 = rng.choice(_CELL_COUNT, size=n_branches, replace=False)
    cells2 = rng.choice(_CELL_COUNT, size=n_branches, replace=False)
    raw = rng.uniform(0.15, 1.0, size=n_branches)
    weights = raw / np.sum(raw)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n_branches))
    coeffs = np.sqrt(weights) * phases
    branches = tuple(
        Branch(
            complex(coeffs[n]),
            (cell_states[cells1[n]], cell_states[cells2[n]]),
        )
        for n in range(n_branches)
    )
    state = CorrelatedState(branches)
    obs = tuple(
        _step_observable(cell_index, rng.choice(np.array([-1.0, 1.0]), size=_CELL_COUNT))
        for _ in range(4)
    )
    return state, obs
