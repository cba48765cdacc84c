"""Stern-Gerlach branch separation: closed forms, critical time, trial runs.

The oracle for the critical time is the independently recomputed crossing of
the gap against the critical width; residual magnitudes are pinned against
the analytic frozen-width floor sqrt(3)/2 * hbar^2/(4 m sigma^2).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from decolab.constants import HBAR
from decolab.errors import InvalidParameter, TMaxBeforeCritical
from decolab.scenarios.sterngerlach import (
    BRANCH_LABELS,
    SGConfig,
    sg_branch_trajectories,
    sg_correlated_state,
    sg_critical_time,
    sg_hamiltonian,
    sg_run,
)
from decolab.supersystem import branch_evolve, schrodinger_residual
from decolab.collapse import order_parameter_trace
from decolab.wavepacket import GaussianPacket, Grid1D

PAPER = dict(mass=1e-25, mu_b=1e-23)
# +-16 sigma0 at 32 points per sigma0: holds both default branches past 2 tau_c.
RESIDUAL_GRID = Grid1D(-1.6e-8, 1.6e-8, 1024)
TAU_TOL = 1e-12
CLOSED_FORM_TOL = 1e-12
RESIDUAL_FLOOR_RTOL = 2e-3

paper_config = lambda **kw: SGConfig(**{**PAPER, **kw})


def sg_moments(config: SGConfig, t: float) -> dict[str, float]:
    """Closed-form oracle: z_pm = +/- (mu beta / 2m) t^2, p_pm = +/- mu beta t."""
    a = config.mu_b * config.beta_z / config.mass  # acceleration magnitude
    return {
        "z_plus": 0.5 * a * t * t,
        "z_minus": -0.5 * a * t * t,
        "p_plus": config.mass * a * t,
        "p_minus": -config.mass * a * t,
    }


# ------------------------------------------------------------ closed forms


def test_moments_vanish_at_zero():
    m = sg_moments(SGConfig(), 0.0)
    assert m["z_plus"] == m["z_minus"] == m["p_plus"] == m["p_minus"] == 0.0


def test_moments_paper_values_at_critical_time():
    m = sg_moments(paper_config(), 1e-7)
    # (1e-23 / 2e-25) * 1e3 * 1e-14 = 5e-10
    assert math.isclose(m["z_plus"], 5e-10, rel_tol=1e-12)
    assert math.isclose(m["z_minus"], -5e-10, rel_tol=1e-12)
    assert math.isclose(m["p_plus"], 1e-23 * 1e3 * 1e-7, rel_tol=1e-12)


def test_moment_gap_identity_at_all_sampled_times():
    cfg = SGConfig()
    for t in np.linspace(0.0, 3e-7, 31):
        m = sg_moments(cfg, float(t))
        gap = m["z_plus"] - m["z_minus"]
        assert math.isclose(
            gap, (cfg.mu_b / cfg.mass) * cfg.beta_z * t**2, rel_tol=0, abs_tol=1e-24
        )


def origin_packet(cfg: SGConfig) -> GaussianPacket:
    return GaussianPacket(0.0, 0.0, cfg.sigma0, cfg.mass)


def test_moments_agree_with_branch_evolve():
    cfg = SGConfig()
    ham = sg_hamiltonian(cfg)
    plus_eig = -cfg.mu_b  # second spin label carries the negative coupling
    for t in (1e-8, 1e-7, 2.5e-7):
        m = sg_moments(cfg, t)
        packet = branch_evolve(ham, plus_eig, origin_packet(cfg), t)
        assert math.isclose(packet.x0, m["z_plus"], rel_tol=CLOSED_FORM_TOL)
        assert math.isclose(packet.p0, m["p_plus"], rel_tol=CLOSED_FORM_TOL)


# ------------------------------------------------------------ critical time


def test_critical_time_paper_round_values():
    # sqrt(1e-9 * 1e-25 / (1e-23 * 1e3)) = sqrt(1e-34 / 1e-20) = 1e-7 s
    assert math.isclose(sg_critical_time(paper_config()), 1e-7, rel_tol=TAU_TOL)


def test_critical_time_silver_codata():
    tau = sg_critical_time(SGConfig())
    hand = math.sqrt(1e-9 * 1.79e-25 / (9.2740100783e-24 * 1e3))
    assert math.isclose(tau, hand, rel_tol=1e-15)
    assert math.isclose(tau, 1.39e-7, rel_tol=5e-3)


def test_critical_time_square_root_scaling():
    base = sg_critical_time(SGConfig())
    wider = sg_critical_time(SGConfig(delta_z=4e-9, sigma0=4e-9))
    assert math.isclose(wider, 2.0 * base, rel_tol=1e-14)


def test_gap_equals_critical_width_at_tau():
    cfg = SGConfig()
    tau = sg_critical_time(cfg)
    m = sg_moments(cfg, tau)
    assert math.isclose(m["z_plus"] - m["z_minus"], cfg.delta_z, rel_tol=1e-12)


def test_numeric_crossing_matches_analytic():
    cfg = paper_config()
    times = np.linspace(0.0, cfg.t_max, cfg.n_steps + 1)
    trace = order_parameter_trace(sg_branch_trajectories(cfg), "position", times)
    tau = sg_critical_time(cfg)
    step = cfg.t_max / cfg.n_steps
    assert trace.tau is not None
    assert abs(trace.tau - tau) <= 2 * step


# ------------------------------------------------------------- state & ham


def test_correlated_state_structure():
    cfg = SGConfig()
    state = sg_correlated_state(cfg)
    assert len(state.branches) == 2
    assert np.allclose(state.weights, [0.5, 0.5], atol=1e-12)
    for branch in state.branches:
        packet = branch.factors[1]
        assert packet.x0 == 0.0 and packet.p0 == 0.0
        assert packet.sigma_x == cfg.sigma0


def test_hamiltonian_couplings_give_opposite_forces():
    cfg = SGConfig()
    ham = sg_hamiltonian(cfg)
    eig = np.linalg.eigvalsh(ham.v1.entries)
    assert math.isclose(eig[0], -cfg.mu_b, rel_tol=1e-15)
    assert math.isclose(eig[1], cfg.mu_b, rel_tol=1e-15)
    assert ham.gradient == cfg.beta_z  # potential v1 * beta_z * x


# --------------------------------------------------------------- trial runs


def test_run_even_split_statistics():
    cfg = paper_config()
    n = 4000
    result = sg_run(cfg, n_trials=n, seed=100)
    assert result.counts is not None
    assert set(result.counts) == set(BRANCH_LABELS)
    assert sum(result.counts.values()) == n
    freq = result.frequencies["plus"]
    assert abs(freq - 0.5) <= 3.0 * math.sqrt(0.25 / n)
    assert result.tau_c_numeric is not None
    assert 0.9e-7 <= result.tau_c_numeric <= 1.1e-7


def test_run_eigenstate_input_always_plus():
    cfg = paper_config(c_minus=0.0, c_plus=1.0)
    result = sg_run(cfg, n_trials=200, seed=7)
    assert result.counts == {"minus": 0, "plus": 200}
    assert result.tau_c_numeric is not None  # trace still crosses


def test_run_is_deterministic_per_seed():
    cfg = SGConfig()
    a = sg_run(cfg, n_trials=500, seed=31)
    b = sg_run(cfg, n_trials=500, seed=31)
    assert a.counts == b.counts
    c = sg_run(cfg, n_trials=500, seed=32)
    assert a.counts != c.counts or a.seed != c.seed


def test_run_warns_when_horizon_too_short():
    cfg = SGConfig(t_max=5e-8, n_steps=100)
    with pytest.warns(TMaxBeforeCritical):
        result = sg_run(cfg, n_trials=10, seed=1)
    assert result.counts is None
    assert result.frequencies is None
    assert math.isclose(sum(result.weights.values()), 1.0, abs_tol=1e-12)


@pytest.mark.parametrize("k", [-20, -10, 10, 20])
def test_run_verdict_is_scale_free(k):
    # tau_c depends on mass / beta_z only, so scaling both by 10^k must move
    # neither the numeric crossing nor the readout drawn at t_max
    cfg = SGConfig()
    scaled = SGConfig(beta_z=cfg.beta_z * 10.0**k, mass=cfg.mass * 10.0**k)
    base = sg_run(cfg, n_trials=500, seed=3)
    result = sg_run(scaled, n_trials=500, seed=3)
    assert math.isclose(result.tau_c_numeric, base.tau_c_numeric, rel_tol=5e-16)
    assert result.counts == base.counts


def test_config_validation():
    with pytest.raises(ValueError):
        SGConfig(c_minus=1.0, c_plus=1.0)
    with pytest.raises(ValueError):
        SGConfig(beta_z=-1.0)
    # the analytic tau reads delta_z, the trace's critical width is sigma0
    for widths in ({"delta_z": 4e-9}, {"sigma0": 4e-9}):
        with pytest.raises(InvalidParameter, match="delta_z = .* must equal sigma0 = "):
            SGConfig(**widths)


# ----------------------------------------------------------------- residual


def test_residual_pinned_to_frozen_width_floor():
    cfg = SGConfig()
    ham = sg_hamiltonian(cfg)
    state = sg_correlated_state(cfg)
    tau = sg_critical_time(cfg)
    floor = math.sqrt(0.75) * HBAR**2 / (4.0 * cfg.mass * cfg.sigma0**2)
    early = schrodinger_residual(ham, state, 0.1 * tau, RESIDUAL_GRID)
    assert math.isclose(early, floor, rel_tol=RESIDUAL_FLOOR_RTOL)


def test_residual_relative_form_decreases_toward_effective_solution():
    # the J-valued defect sits at the width-freeze floor and creeps up with
    # the branch kinetic energy; measured against ||H Psi|| it decreases,
    # which is the meaningful approach-to-effective-solution ordering
    cfg = SGConfig()
    ham = sg_hamiltonian(cfg)
    state = sg_correlated_state(cfg)
    tau = sg_critical_time(cfg)
    early_abs = schrodinger_residual(ham, state, 0.1 * tau, RESIDUAL_GRID)
    late_abs = schrodinger_residual(ham, state, 2.0 * tau, RESIDUAL_GRID)
    assert late_abs > early_abs  # documented frozen-width behavior
    early_rel = schrodinger_residual(ham, state, 0.1 * tau, RESIDUAL_GRID, relative=True)
    late_rel = schrodinger_residual(ham, state, 2.0 * tau, RESIDUAL_GRID, relative=True)
    assert late_rel < early_rel
    assert late_rel < 1.0
