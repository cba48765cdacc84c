"""Spin-1/2 beam in a field gradient: the textbook continuous measurement.

The gradient potential -/+ mu_B beta_z z pushes the two spin branches apart
with constant force mu_B beta_z, so the branch centers separate as
z_pm(t) = +/- (mu_B beta_z / 2 m) t^2 while the packet widths stay at
sigma0.  The position gap crosses the critical half-width sum sigma0 at

    tau_c = sqrt(delta_z m / (mu_B beta_z)),  delta_z = sigma0 (checked),

which is ~1e-7 s for heavy-atom numbers.  sg_run traces the order parameter,
locates the crossing numerically, and reads the beam out at t_max through
collapse.classicize: Born weights |c_-|^2, |c_+|^2 once past the crossing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..collapse import OrderParameterTrace, classicize, order_parameter_trace
from ..constants import MASS_SILVER, MU_B
from ..errors import InvalidParameter, TMaxBeforeCritical
from ..hilbert import OperatorMatrix, StateVector
from ..supersystem import Branch, CorrelatedState, InteractionHamiltonian, branch_evolve
from ..wavepacket import GaussianPacket

BRANCH_LABELS = ("minus", "plus")


@dataclass(frozen=True)
class SGConfig:
    """Beam parameters. Defaults: silver atom in a 1e3 T/m gradient."""

    beta_z: float = 1.0e3  # T/m
    mass: float = MASS_SILVER  # kg
    mu_b: float = MU_B  # J/T
    delta_z: float = 1.0e-9  # m, critical width; must equal sigma0
    c_minus: complex = 1.0 / math.sqrt(2.0)
    c_plus: complex = 1.0 / math.sqrt(2.0)
    sigma0: float = 1.0e-9  # m, packet width (frozen, no dissipation)
    t_max: float = 3.0e-7  # s
    n_steps: int = 1000

    def __post_init__(self):
        for name in ("beta_z", "mass", "mu_b", "delta_z", "sigma0", "t_max"):
            if not getattr(self, name) > 0:
                raise InvalidParameter(f"{name} must be positive")
        # The analytic tau reads delta_z, the trace's critical width is sigma0.
        if self.delta_z != self.sigma0:
            raise InvalidParameter(f"delta_z = {self.delta_z!r} must equal sigma0 = {self.sigma0!r}")
        if self.n_steps < 2:
            raise InvalidParameter("n_steps must be at least 2")
        # sg_critical_time divides by this force, which can underflow to 0.
        if not self.mu_b * self.beta_z > 0:
            raise InvalidParameter(
                f"mu_b * beta_z underflows to 0 at mu_b = {self.mu_b!r}, beta_z = {self.beta_z!r}"
            )
        try:
            total = abs(self.c_minus) ** 2 + abs(self.c_plus) ** 2
        except OverflowError as exc:
            raise InvalidParameter(
                f"|c_-|^2 + |c_+|^2 overflows at c_- = {self.c_minus!r}, c_+ = {self.c_plus!r}"
            ) from exc
        if not abs(total - 1.0) <= 1e-10:
            raise InvalidParameter(f"|c_-|^2 + |c_+|^2 = {total!r}, expected 1")


def sg_critical_time(config: SGConfig) -> float:
    """Gap = critical width when (mu beta / m) t^2 = delta_z."""
    return math.sqrt(config.delta_z * config.mass / (config.mu_b * config.beta_z))


def sg_hamiltonian(config: SGConfig) -> InteractionHamiltonian:
    """Gradient coupling V1 (x) V2 with V1 = diag(+mu_B, -mu_B), V2 = beta_z z.

    Branch order is (minus, plus); V2 has gradient beta_z, so the effective
    forces f = -v beta_z are exactly +mu_B beta_z on the minus branch and
    -mu_B beta_z on the plus branch.  The spin factor carries no free
    Hamiltonian here (uniform-field phases drop out of every gap and weight).
    """
    h1 = OperatorMatrix(np.zeros((2, 2)), hermitian=True)
    v1 = OperatorMatrix(np.diag([config.mu_b, -config.mu_b]).astype(complex), hermitian=True)
    return InteractionHamiltonian(h1=h1, v1=v1, gradient=config.beta_z, mass=config.mass)


def sg_correlated_state(config: SGConfig) -> CorrelatedState:
    """Initial entangled state: both branches share the packet at the origin."""
    packet = GaussianPacket(0.0, 0.0, config.sigma0, config.mass)
    minus = StateVector(np.array([1.0, 0.0], dtype=complex))
    plus = StateVector(np.array([0.0, 1.0], dtype=complex))
    return CorrelatedState(
        (
            Branch(complex(config.c_minus), (minus, packet)),
            Branch(complex(config.c_plus), (plus, packet)),
        )
    )


def sg_branch_trajectories(config: SGConfig):
    """Branch packet trajectories via the interaction: each maps a time array to one packet."""
    ham = sg_hamiltonian(config)
    packet = GaussianPacket(0.0, 0.0, config.sigma0, config.mass)
    eigenvalues = (config.mu_b, -config.mu_b)  # (minus, plus) branch order

    def trajectory(v: float):
        return lambda t: branch_evolve(ham, v, packet, t)

    return [trajectory(v) for v in eigenvalues]


@dataclass(frozen=True)
class SGRunResult:
    trace: OrderParameterTrace
    tau_c_analytic: float
    tau_c_numeric: float | None
    counts: dict | None  # branch label -> trials, None when readout precedes tau
    frequencies: dict | None
    weights: dict  # exact Born weights
    n_trials: int
    seed: int


def sg_run(config: SGConfig, n_trials: int, seed: int) -> SGRunResult:
    """Trace the order parameter and read the beam out at t_max with classicize.

    When t_max falls before the crossing time classicize draws nothing, a
    TMaxBeforeCritical warning is issued, and the exact branch weights stand
    in for statistics.  n_trials must be at least 1 either way.
    """
    if n_trials < 1:
        raise InvalidParameter(f"n_trials must be at least 1, got {n_trials}")
    times = np.linspace(0.0, config.t_max, config.n_steps + 1)
    trace = order_parameter_trace(sg_branch_trajectories(config), "position", times)
    psi = StateVector(np.array([config.c_minus, config.c_plus], dtype=complex))
    weights = {label: float(w) for label, w in zip(BRANCH_LABELS, np.abs(psi.amplitudes) ** 2)}
    drawn = classicize(trace, config.t_max, psi, n_trials, seed)
    counts = frequencies = None
    if drawn is None:
        warnings.warn(
            f"t_max = {config.t_max:g} s precedes the critical time; returning exact weights",
            TMaxBeforeCritical,
        )
    else:
        tally = np.bincount(drawn, minlength=len(BRANCH_LABELS)).tolist()
        counts = dict(zip(BRANCH_LABELS, tally))
        frequencies = {label: counts[label] / n_trials for label in BRANCH_LABELS}
    return SGRunResult(
        trace=trace,
        tau_c_analytic=sg_critical_time(config),
        tau_c_numeric=trace.tau,
        counts=counts,
        frequencies=frequencies,
        weights=weights,
        n_trials=n_trials,
        seed=int(seed),
    )
