"""Acceptance gate: nine headline criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines alongside the pytest verdicts.
"""

from __future__ import annotations

import contextlib
import json
import math
import time

import numpy as np

from gridref import split_step
from decolab.cli import emit, parse_config, run
from decolab.collapse import order_parameter_trace, sample_collapse, split_seed
from decolab.constants import MASS_RB87
from decolab.hilbert import (
    apply_w,
    exp_projector,
    gauss_decompose,
    make_state,
    projector,
)
from decolab.scenarios.bell import (
    TSIRELSON,
    audited_configuration,
    bell_evaluate,
    chsh_optimal_observables,
    singlet_state,
)
from decolab.scenarios.bose import BoseConfig, bose_critical_temperature, thermal_de_broglie
from decolab.scenarios.sterngerlach import SGConfig, sg_branch_trajectories, sg_critical_time
from decolab.supersystem import symmetrize_bose, to_product_vector, von_neumann_couple
from decolab.wavepacket import (
    GaussianPacket,
    Grid1D,
    discretize_gaussian,
    superposition_packet_test,
    wavepacket_criterion,
)

ACCEPT_SEED = 20240801


@contextlib.contextmanager
def criterion(number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number}: PASS ({elapsed:.2f} s) - {label}")


def random_state(rng, dim):
    return make_state(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def test_criterion_1_stern_gerlach_critical_time():
    with criterion(1, "Stern-Gerlach critical time 1e-7 s, crossing within 2 steps"):
        start = time.perf_counter()
        cfg = SGConfig(mass=1e-25, mu_b=1e-23)
        tau = sg_critical_time(cfg)
        assert math.isclose(tau, 1.0e-7, rel_tol=1e-12)
        times = np.linspace(0.0, cfg.t_max, cfg.n_steps + 1)
        trace = order_parameter_trace(sg_branch_trajectories(cfg), "position", times)
        step = cfg.t_max / cfg.n_steps
        assert trace.tau is not None
        assert abs(trace.tau - tau) <= 2.0 * step
        assert time.perf_counter() - start < 1.0


def test_criterion_2_collapse_sampling_law():
    with criterion(2, "10^5 seeded trials give branch-0 frequency 0.8 +/- 0.0038"):
        start = time.perf_counter()
        psi = make_state([math.sqrt(0.8), math.sqrt(0.2)])
        n = 100_000
        freq = np.count_nonzero(sample_collapse(psi, n, ACCEPT_SEED) == 0) / n
        assert abs(freq - 0.8) <= 0.0038
        assert time.perf_counter() - start < 5.0


def test_criterion_3_operator_algebra_suite():
    with criterion(3, "exp_projector vs series < 1e-12, apply_w cases, Gauss rebuild"):
        start = time.perf_counter()
        rng = np.random.default_rng(ACCEPT_SEED)

        def series_exp(matrix, terms=60):
            out = np.eye(matrix.shape[0], dtype=complex)
            term = np.eye(matrix.shape[0], dtype=complex)
            for k in range(1, terms):
                term = term @ matrix / k
                out = out + term
            return out

        worst_series = 0.0
        worst_rebuild = 0.0
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            psi = random_state(rng, dim)
            eps = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            w = exp_projector(psi, eps).entries
            ref = series_exp(1j * eps * projector(psi).entries)
            worst_series = max(worst_series, float(np.max(np.abs(w - ref))))
            rebuilt = gauss_decompose(psi).reconstruct()
            worst_rebuild = max(
                worst_rebuild, float(np.max(np.abs(rebuilt - projector(psi).entries)))
            )
        assert worst_series < 1e-12
        assert worst_rebuild < 1e-12

        psi = make_state([2.0, 1.0j, -0.5])
        parallel = make_state(psi.amplitudes * np.exp(0.3j))
        out = apply_w(psi, parallel, 1.1)
        assert np.max(np.abs(out.amplitudes - np.exp(1.1j) * parallel.amplitudes)) < 1e-12
        orth = make_state([1.0j, 2.0, 0.0])
        orth = make_state(
            orth.amplitudes - psi.overlap(orth) * psi.amplitudes
        )
        assert np.max(np.abs(apply_w(psi, orth, 1.1).amplitudes - orth.amplitudes)) < 1e-12
        chi = make_state([1.0, 1.0, 1.0])
        general = apply_w(psi, chi, 1.1)
        ref = exp_projector(psi, 1.1).entries @ chi.amplitudes
        assert np.max(np.abs(general.amplitudes - ref)) < 1e-12
        assert time.perf_counter() - start < 5.0


def test_criterion_4_superposition_never_a_packet():
    with criterion(4, "50/50 random 2-3 packet cats fail while constituents pass"):
        rng = np.random.default_rng(ACCEPT_SEED)
        grid = Grid1D(0.0, 7e-6, 2048)
        sigma = 2e-8
        failures = 0
        for _ in range(50):
            n = int(rng.integers(2, 4))
            slots = rng.choice(6, size=n, replace=False)
            packets = [
                GaussianPacket(1e-6 + 1e-6 * int(s), 0.0, sigma, 1.79e-25)
                for s in slots
            ]
            coeffs = rng.uniform(0.2, 1.0, size=n) * np.exp(
                1j * rng.uniform(0, 2 * math.pi, size=n)
            )
            each, joint = superposition_packet_test(packets, coeffs, grid)
            assert all(each), "constituent failed its sharpness audit"
            if not joint:
                failures += 1
        assert failures == 50


def test_criterion_5_taylor_classical_limit():
    with criterion(5, "quadratic residual <= 1e-6 relative; quartic = 3 sigma^4 +/- 2%"):
        grid = Grid1D(-2e-6, 4e-6, 2048)
        packet = GaussianPacket(1e-6, 0.0, 2e-8, 1.79e-25)
        psi = discretize_gaussian(grid, packet)
        quad = wavepacket_criterion(
            psi, lambda x: x**2, grid, second_derivative=lambda x: 2.0 + 0.0 * x
        )
        assert abs(quad.taylor_residual) / packet.x0**2 <= 1e-6

        centered_grid = Grid1D(-3e-7, 3e-7, 2048)
        centered = GaussianPacket(0.0, 0.0, 2e-8, 1.79e-25)
        quart = wavepacket_criterion(
            discretize_gaussian(centered_grid, centered),
            lambda x: x**4,
            centered_grid,
            second_derivative=lambda x: 12.0 * x**2,
        )
        assert math.isclose(quart.taylor_residual, 3.0 * centered.sigma_x**4, rel_tol=0.02)


def test_criterion_6_bell_suite():
    with criterion(6, "20 audited configs satisfy the bound; singlet CHSH = 2*sqrt(2)"):
        start = time.perf_counter()
        for i in range(20):
            state, obs = audited_configuration(
                split_seed(ACCEPT_SEED, i), n_branches=2 + (i % 2)
            )
            report = bell_evaluate(state, obs, sign=1, enforce_approx=True)
            assert report.approx_conditions_met
            assert report.satisfied
        exact = bell_evaluate(
            singlet_state(), chsh_optimal_observables(), enforce_approx=False
        )
        assert abs(exact.chsh_value - TSIRELSON) < 1e-9
        assert exact.chsh_value > 2.0
        assert time.perf_counter() - start < 5.0


def test_criterion_7_bose_threshold():
    with criterion(7, "T_c crossover exact; Rb-87 T_c within 1%; lambda decreasing"):
        hand = (6.62607015e-34) ** 2 / (1.443e-25 * 1.380649e-23 * (2e-7) ** 2)
        cfg = BoseConfig(mass=MASS_RB87, spacing=2e-7, temperatures=(1e-6,))
        t_c = bose_critical_temperature(cfg).t_c
        assert math.isclose(t_c, hand, rel_tol=1e-12)
        assert math.isclose(t_c, 5.5e-6, rel_tol=0.01)
        probe = BoseConfig(
            mass=MASS_RB87,
            spacing=2e-7,
            temperatures=(t_c * (1 - 1e-12), t_c, t_c * (1 + 1e-12)),
        )
        assert bose_critical_temperature(probe).phases == (
            "condensed",
            "separated",
            "separated",
        )
        temps = np.logspace(-9, -3, 61)
        lams = [thermal_de_broglie(MASS_RB87, float(t)) for t in temps]
        assert all(a > b for a, b in zip(lams, lams[1:]))


def test_criterion_8_norm_conservation_sweep():
    with criterion(8, "norms preserved within 1e-10 across transforms and evolutions"):
        rng = np.random.default_rng(ACCEPT_SEED)
        worst = 0.0

        def track(vec):
            nonlocal worst
            worst = max(worst, abs(float(np.linalg.norm(vec)) - 1.0))

        for _ in range(50):
            dim = int(rng.integers(2, 9))
            psi = random_state(rng, dim)
            chi = random_state(rng, dim)
            eps = float(rng.uniform(-6, 6))
            track(apply_w(psi, chi, eps).amplitudes)
            track(exp_projector(psi, eps).entries @ chi.amplitudes)
        for _ in range(20):
            packet = GaussianPacket(
                float(rng.uniform(-1e-7, 1e-7)),
                float(rng.uniform(-1e-26, 1e-26)),
                float(rng.uniform(5e-9, 2e-8)),
                1.79e-25,
            )
            grid = Grid1D(-5e-7, 5e-7, 1024)
            amps = discretize_gaussian(grid, packet).amplitudes
            track(amps)
            evolved = split_step(
                amps, grid.dx, 1e-20 * grid.xs, packet.mass, 1e-8, 64
            )
            track(evolved)
        for _ in range(20):
            obj = random_state(rng, 4)
            track(to_product_vector(von_neumann_couple(obj, 1, 5)))
        two = symmetrize_bose([make_state([1.0, 0.0]), make_state([0.0, 1.0])])
        track(to_product_vector(two))
        assert worst < 1e-10


def test_criterion_9_deterministic_summaries(tmp_path):
    with criterion(9, "byte-identical summary JSON under a fixed seed"):
        blobs = []
        for name in ("one", "two"):
            out = tmp_path / name
            config = parse_config(
                ["classicize", "--n-trials", "500", "--seed", "11", "--out", str(out)]
            )
            emit(run(config), config)
            blobs.append((out / "summary.json").read_bytes())
        assert blobs[0] == blobs[1]
        payload = json.loads(blobs[0])
        assert payload["provenance"]["seed"] == 11
