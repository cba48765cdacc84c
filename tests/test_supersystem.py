"""Correlated states, measurement coupling, branch dynamics, and mixtures.

The split-step propagator in gridref is the dynamics oracle; partial traces
and permutation enumerations are computed longhand before being compared to
the package's closed forms.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gridref import (
    HBAR_REF,
    grid_moments,
    grid_momentum_moments,
    kinetic_exact,
    partial_trace_second,
    split_step,
)
from decolab.collapse import order_parameter_trace
from decolab.constants import HBAR
from decolab.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    EmptyInput,
    IndexOutOfRange,
    InvalidParameter,
    MissingEnvironment,
    NonlinearPotential,
    TooManyParticles,
)
from decolab.hilbert import OperatorMatrix, make_state, projector
from decolab.scenarios.sterngerlach import SGConfig, sg_hamiltonian
from decolab.supersystem import (
    Branch,
    CorrelatedState,
    InteractionHamiltonian,
    SecondKindMixture,
    branch_evolve,
    hamiltonian_apply,
    residual_from_family,
    schrodinger_residual,
    second_kind_mixture,
    symmetrize_bose,
    to_product_vector,
    von_neumann_couple,
)
from decolab.wavepacket import GaussianPacket, Grid1D, discretize_gaussian

ORACLE_RTOL = 1e-8
EHRENFEST_RTOL = 1e-8
MIXTURE_TOL = 1e-12
RESIDUAL_SOLVER_TOL = 1e-6

ZERO2 = OperatorMatrix(np.zeros((2, 2), dtype=complex), hermitian=True)


def affine_ham(slope: float, mass: float, v_scale: float = 1e-23) -> InteractionHamiltonian:
    v1 = OperatorMatrix(np.diag([v_scale, -v_scale]).astype(complex), hermitian=True)
    return InteractionHamiltonian(
        h1=ZERO2, v1=v1, v2=lambda x: slope * x, mass=mass
    )


# -------------------------------------------------------- correlated states


def basis_pair_state(c0: complex, c1: complex) -> CorrelatedState:
    return CorrelatedState(
        branches=(
            Branch(c0, (make_state([1.0, 0.0]), make_state([1.0, 0.0]))),
            Branch(c1, (make_state([0.0, 1.0]), make_state([0.0, 1.0]))),
        )
    )


def test_correlated_state_weights_and_coefficients():
    state = basis_pair_state(math.sqrt(0.8), math.sqrt(0.2) * 1j)
    assert np.allclose(state.weights, [0.8, 0.2], atol=1e-12)
    assert state.coefficients[1] == pytest.approx(math.sqrt(0.2) * 1j)


def test_correlated_state_rejects_nonorthogonal_labels():
    with pytest.raises(ValueError):
        CorrelatedState(
            branches=(
                Branch(math.sqrt(0.5), (make_state([1.0, 0.0]), make_state([1.0, 0.0]))),
                Branch(math.sqrt(0.5), (make_state([1.0, 1.0]), make_state([0.0, 1.0]))),
            )
        )


def test_correlated_state_rejects_bad_total_weight():
    with pytest.raises(ValueError):
        CorrelatedState(
            branches=(
                Branch(0.5, (make_state([1.0, 0.0]), make_state([1.0, 0.0]))),
                Branch(0.5, (make_state([0.0, 1.0]), make_state([0.0, 1.0]))),
            )
        )
    with pytest.raises(ValueError):  # a NaN sum fails the accept test
        CorrelatedState(
            branches=(
                Branch(complex(np.nan), (make_state([1.0, 0.0]), make_state([1.0, 0.0]))),
                Branch(0.5, (make_state([0.0, 1.0]), make_state([0.0, 1.0]))),
            )
        )


def test_to_product_vector_two_branches():
    state = basis_pair_state(math.sqrt(0.5), math.sqrt(0.5))
    vec = to_product_vector(state)
    expected = np.zeros(4, dtype=complex)
    expected[0] = math.sqrt(0.5)  # e0 (x) e0
    expected[3] = math.sqrt(0.5)  # e1 (x) e1
    assert np.max(np.abs(vec - expected)) < 1e-15


# ------------------------------------------------------ von Neumann coupling


def test_von_neumann_eigenstate_input_single_branch():
    state = von_neumann_couple(make_state([1.0, 0.0]), pointer_index=0, pointer_dim=2)
    assert len(state.branches) == 1
    branch = state.branches[0]
    assert branch.coefficient == pytest.approx(1.0)
    assert np.allclose(branch.factors[0].amplitudes, [1.0, 0.0])
    assert np.allclose(branch.factors[1].amplitudes, [1.0, 0.0])


def test_von_neumann_equal_superposition_correlates():
    state = von_neumann_couple(make_state([1.0, 1.0]), pointer_index=0, pointer_dim=2)
    assert len(state.branches) == 2
    for n, branch in enumerate(state.branches):
        assert branch.coefficient == pytest.approx(1.0 / math.sqrt(2.0))
        assert np.argmax(np.abs(branch.factors[0].amplitudes)) == n
        assert np.argmax(np.abs(branch.factors[1].amplitudes)) == n


def test_von_neumann_shift_and_linearity_oracle():
    rng = np.random.default_rng(17)
    obj = make_state(rng.normal(size=3) + 1j * rng.normal(size=3))
    state = von_neumann_couple(obj, pointer_index=1, pointer_dim=4)
    # term-by-term application of the correlating rule to each object index
    expected = np.zeros(12, dtype=complex)
    for n, c in enumerate(obj.amplitudes):
        expected[n * 4 + (n + 1) % 4] = c
    assert np.max(np.abs(to_product_vector(state) - expected)) < 1e-14


def test_von_neumann_is_isometry_and_faithful():
    rng = np.random.default_rng(23)
    for _ in range(10):
        obj = make_state(rng.normal(size=4) + 1j * rng.normal(size=4))
        state = von_neumann_couple(obj, pointer_index=2, pointer_dim=5)
        assert abs(np.linalg.norm(to_product_vector(state)) - 1.0) < 1e-12
        pointer_hits = [
            int(np.argmax(np.abs(b.factors[1].amplitudes))) for b in state.branches
        ]
        assert len(set(pointer_hits)) == len(pointer_hits)


def test_von_neumann_rejects_bad_pointer():
    with pytest.raises(IndexOutOfRange):
        von_neumann_couple(make_state([1.0, 1.0]), pointer_index=2, pointer_dim=2)
    with pytest.raises(DimensionMismatch):
        von_neumann_couple(make_state([1.0, 1.0, 1.0]), pointer_index=0, pointer_dim=2)


# ------------------------------------------------------- hamiltonian guards


def test_hamiltonian_requires_commuting_h1_v1():
    sx = OperatorMatrix(np.array([[0, 1], [1, 0]], dtype=complex), hermitian=True)
    sz = OperatorMatrix(np.diag([1.0, -1.0]).astype(complex), hermitian=True)
    with pytest.raises(ValueError):
        InteractionHamiltonian(h1=sx, v1=sz, v2=lambda x: x, mass=1e-25)


def test_hamiltonian_commutator_check_is_relative():
    # at 1e-23 the commutator is only ~2e-46, yet the pair plainly fails to commute
    sx = OperatorMatrix(np.array([[0, 1e-23], [1e-23, 0]], dtype=complex), hermitian=True)
    sz = OperatorMatrix(np.diag([1e-23, -1e-23]).astype(complex), hermitian=True)
    with pytest.raises(ValueError):
        InteractionHamiltonian(h1=sx, v1=sz, v2=lambda x: x, mass=1e-25)


@seed(17)
@settings(max_examples=60, deadline=None)
@given(
    h_exponent=st.integers(min_value=-30, max_value=30),
    v_exponent=st.integers(min_value=-30, max_value=30),
    key=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_hamiltonian_commutator_check_is_scale_free(h_exponent, v_exponent, key):
    rng = np.random.default_rng(key)
    h_scale, v_scale = 10.0**h_exponent, 10.0**v_exponent
    v1 = OperatorMatrix(np.diag([1.0, -1.0, 2.5]).astype(complex) * v_scale, hermitian=True)
    diagonal = np.diag(rng.normal(size=3)).astype(complex)
    commuting = OperatorMatrix(diagonal * h_scale, hermitian=True)
    InteractionHamiltonian(h1=commuting, v1=v1, v2=lambda x: x, mass=1e-25)
    # a relative off-diagonal coupling of 1e-6 fails at any scale
    coupling = np.zeros((3, 3), dtype=complex)
    coupling[0, 1] = coupling[1, 0] = 1e-6 * np.max(np.abs(diagonal))
    noncommuting = OperatorMatrix((diagonal + coupling) * h_scale, hermitian=True)
    with pytest.raises(ValueError):
        InteractionHamiltonian(h1=noncommuting, v1=v1, v2=lambda x: x, mass=1e-25)


def test_hamiltonian_rejects_degenerate_v1():
    flat = OperatorMatrix(np.diag([1e-23, 1e-23]).astype(complex), hermitian=True)
    with pytest.raises(DegenerateSpectrum):
        InteractionHamiltonian(h1=ZERO2, v1=flat, v2=lambda x: x, mass=1e-25)


def test_hamiltonian_requires_positive_mass():
    with pytest.raises(ValueError):
        affine_ham(1.0, mass=0.0)


def test_hamiltonian_exposes_sorted_physical_eigenvalues():
    ham = affine_ham(1e3, 1e-25)
    eigen = ham.v1_eigenvalues
    assert eigen.shape == (2,)
    assert set(np.round(eigen / 1e-23)) == {-1.0, 1.0}


# ----------------------------------------------------------- branch evolve


def test_branch_evolve_free_case():
    ham = affine_ham(0.0, 1e-25)
    start = GaussianPacket(1e-9, 2e-27, 1e-9, 1e-25)
    out = branch_evolve(ham, 0.0, start, 3e-7)
    assert math.isclose(out.x0, start.x0 + start.p0 * 3e-7 / start.mass, rel_tol=1e-14)
    assert out.p0 == start.p0
    assert out.sigma_x == start.sigma_x


def test_branch_evolve_constant_force_closed_form():
    # force = -v * slope: positive eigenvalue with positive slope pushes down
    slope, v_eig, mass = 1e3, 1e-23, 1e-25
    ham = affine_ham(slope, mass, v_scale=v_eig)
    start = GaussianPacket(0.0, 0.0, 1e-9, mass)
    t = 1e-7
    out = branch_evolve(ham, v_eig, start, t)
    f = -v_eig * slope
    assert math.isclose(out.x0, 0.5 * f * t**2 / mass, rel_tol=1e-12)
    assert math.isclose(out.p0, f * t, rel_tol=1e-12)


def test_branch_evolve_matches_split_step_oracle():
    slope, v_eig, mass, sigma = 1e3, 1e-23, 1e-24, 2e-9
    ham = affine_ham(slope, mass, v_scale=v_eig)
    start = GaussianPacket(0.0, 0.0, sigma, mass)
    t = 1e-8
    grid = Grid1D(-2e-8, 2e-8, 2048)
    psi0 = discretize_gaussian(grid, start).amplitudes
    evolved = split_step(
        psi0, grid.dx, v_eig * slope * grid.xs, mass, t, n_steps=2000
    )
    x_ref, dev_ref = grid_moments(evolved, grid.xs)
    p_ref, _ = grid_momentum_moments(evolved, grid.dx)

    frozen = branch_evolve(ham, v_eig, start, t)
    assert math.isclose(frozen.x0, x_ref, rel_tol=0, abs_tol=ORACLE_RTOL * sigma)
    assert math.isclose(frozen.p0, p_ref, rel_tol=0, abs_tol=ORACLE_RTOL * start.sigma_p)

    spreading = branch_evolve(ham, v_eig, start, t, spreading=True)
    assert math.isclose(spreading.sigma_x, dev_ref, rel_tol=1e-6)
    # the frozen width underestimates the true deviation once spreading bites
    assert dev_ref > frozen.sigma_x


def test_branch_evolve_rejects_nonlinear_potential():
    v1 = OperatorMatrix(np.diag([1e-23, -1e-23]).astype(complex), hermitian=True)
    ham = InteractionHamiltonian(h1=ZERO2, v1=v1, v2=lambda x: x**2, mass=1e-25)
    with pytest.raises(NonlinearPotential):
        branch_evolve(ham, 1e-23, GaussianPacket(0.0, 0.0, 1e-9, 1e-25), 1e-7)


def test_affinity_guard_checks_the_window_of_every_sample_time():
    cfg = SGConfig()
    beta, sigma = cfg.beta_z, cfg.sigma0
    packet = GaussianPacket(0.0, 0.0, sigma, cfg.mass)
    # Centre a narrow bump between the 7th and 8th of the 9 points that probe
    # the final window of the plus branch (force +mu_B beta_z).
    final = packet.evolved(cfg.t_max, force=cfg.mu_b * beta)
    lo, hi = -6.0 * sigma, final.x0 + 6.0 * sigma
    c = lo + 6.5 * (hi - lo) / 8
    sg = sg_hamiltonian(cfg)
    ham = InteractionHamiltonian(
        h1=sg.h1,
        v1=sg.v1,
        v2=lambda x: beta * x + 1e-9 * beta * np.exp(-(((x - c) / 2e-11) ** 2)),
        mass=cfg.mass,
    )
    # A single 9-point check over the final window misses the bump ...
    branch_evolve(ham, -cfg.mu_b, packet, cfg.t_max)
    # ... the windows of the earlier sample times catch it.
    branches = [lambda t, v=v: branch_evolve(ham, v, packet, t) for v in (cfg.mu_b, -cfg.mu_b)]
    times = np.linspace(0.0, cfg.t_max, cfg.n_steps + 1)
    with pytest.raises(NonlinearPotential):
        order_parameter_trace(branches, "position", times)


def test_second_kind_mixture_rejects_bad_total_weight():
    with pytest.raises(ValueError):
        SecondKindMixture(((0.5, None, None), (0.25, None, None)))
    with pytest.raises(ValueError):  # a NaN sum fails the accept test
        SecondKindMixture(((np.nan, None, None), (0.5, None, None)))


@pytest.mark.parametrize(
    "v2",
    [
        lambda x: np.full(np.shape(x), np.nan),
        lambda x: np.where(np.abs(x) > 3e-9, np.nan, 1e3 * np.asarray(x, dtype=float)),
    ],
    ids=["nan-everywhere", "nan-beyond-3nm"],
)
def test_branch_evolve_rejects_nan_potential(v2):
    v1 = OperatorMatrix(np.diag([1e-23, -1e-23]).astype(complex), hermitian=True)
    ham = InteractionHamiltonian(h1=ZERO2, v1=v1, v2=v2, mass=1e-25)
    with pytest.raises(NonlinearPotential):
        branch_evolve(ham, 1e-23, GaussianPacket(0.0, 0.0, 1e-9, 1e-25), 1e-7)


@pytest.mark.parametrize(
    "v_eigenvalue,beta,t,cause",
    [
        (1e300, 1e300, 1e-7, "force"),
        (1e-23, 1e3, np.array([0.0, 1e200]), "position"),
        (1e-23, 1e300, 1e-7, "V2"),
    ],
    ids=["force", "position", "potential"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_branch_evolve_reports_overflow(v_eigenvalue, beta, t, cause):
    v1 = OperatorMatrix(np.diag([1e-23, -1e-23]).astype(complex), hermitian=True)
    ham = InteractionHamiltonian(h1=ZERO2, v1=v1, v2=lambda x: beta * np.asarray(x), mass=1e-25)
    with pytest.raises(InvalidParameter, match=f"{cause}.* overflows a double"):
        branch_evolve(ham, v_eigenvalue, GaussianPacket(0.0, 0.0, 1e-9, 1e-25), t)


@seed(14)
@settings(max_examples=40, deadline=None)
@given(
    times=st.lists(st.floats(min_value=0.0, max_value=3e-7), min_size=1, max_size=40),
    x0=st.floats(min_value=-1e-8, max_value=1e-8),
    p0=st.floats(min_value=-1e-26, max_value=1e-26),
    v_sign=st.sampled_from([-1.0, 1.0]),
    spreading=st.booleans(),
)
def test_branch_evolve_over_a_time_array_matches_scalar_calls(times, x0, p0, v_sign, spreading):
    ham = affine_ham(1e3, 1.79e-25)
    start = GaussianPacket(x0, p0, 1e-9, 1.79e-25)
    batch = branch_evolve(ham, v_sign * 1e-23, start, np.array(times), spreading=spreading)
    single = [branch_evolve(ham, v_sign * 1e-23, start, t, spreading=spreading) for t in times]
    for name in ("x0", "p0", "sigma_x"):
        expected = np.array([getattr(packet, name) for packet in single])
        assert np.array_equal(np.broadcast_to(getattr(batch, name), expected.shape), expected)


@seed(13)
@settings(max_examples=30, deadline=None)
@given(
    t_frac=st.floats(min_value=0.05, max_value=1.0),
    v_sign=st.sampled_from([-1.0, 1.0]),
)
def test_branch_evolve_ehrenfest_relations(t_frac, v_sign):
    slope, mass = 2e3, 1.79e-25
    v_eig = v_sign * 1e-23
    ham = affine_ham(slope, mass, v_scale=1e-23)
    start = GaussianPacket(0.0, 1e-27, 1e-9, mass)
    t = t_frac * 2e-7
    h = 1e-3 * t
    x = {s: branch_evolve(ham, v_eig, start, s).x0 for s in (t - h, t, t + h)}
    p = {s: branch_evolve(ham, v_eig, start, s).p0 for s in (t - h, t, t + h)}
    dx_dt = (x[t + h] - x[t - h]) / (2 * h)
    dp_dt = (p[t + h] - p[t - h]) / (2 * h)
    assert math.isclose(dx_dt, p[t] / mass, rel_tol=EHRENFEST_RTOL)
    assert math.isclose(dp_dt, -v_eig * slope, rel_tol=EHRENFEST_RTOL)


# ------------------------------------------------------ second-kind mixture


def env_state(c: tuple, dim: int = 4) -> CorrelatedState:
    branches = []
    for n, cn in enumerate(c):
        e = [0.0] * dim
        e[n] = 1.0
        branches.append(
            Branch(cn, (make_state(e), make_state(e), make_state(e)))
        )
    return CorrelatedState(branches=tuple(branches))


def test_second_kind_mixture_single_branch():
    state = env_state((1.0,), dim=2)
    mixture = second_kind_mixture(state)
    assert len(mixture.components) == 1
    w, p1, p2 = mixture.components[0]
    assert w == pytest.approx(1.0)
    assert np.allclose(p1.entries, [[1.0, 0.0], [0.0, 0.0]])


def test_second_kind_mixture_weights():
    state = env_state((math.sqrt(0.8), math.sqrt(0.2)), dim=2)
    mixture = second_kind_mixture(state)
    weights = [w for w, _, _ in mixture.components]
    assert np.allclose(weights, [0.8, 0.2], atol=1e-12)
    assert math.isclose(sum(weights), 1.0, abs_tol=1e-12)


def test_second_kind_mixture_against_partial_trace_oracle():
    rng = np.random.default_rng(29)
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    c = tuple(c / np.linalg.norm(c))
    state = env_state(c, dim=4)
    mixture = second_kind_mixture(state)
    # longhand: trace the environment out of the full 64-dim projector
    joint = to_product_vector(state)
    rho12 = partial_trace_second(joint, dim1=16, dim2=4)
    rebuilt = np.zeros((16, 16), dtype=complex)
    for w, p1, p2 in mixture.components:
        rebuilt += w * np.kron(p1.entries, p2.entries)
    assert np.max(np.abs(rebuilt - rho12)) < MIXTURE_TOL


def test_second_kind_mixture_invariant_under_branch_relabeling():
    state = env_state((math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2)), dim=3)
    swapped = CorrelatedState(branches=state.branches[::-1])
    a = sorted(w for w, _, _ in second_kind_mixture(state).components)
    b = sorted(w for w, _, _ in second_kind_mixture(swapped).components)
    assert np.allclose(a, b, atol=1e-15)


def test_second_kind_mixture_requires_environment():
    state = basis_pair_state(math.sqrt(0.5), math.sqrt(0.5))
    with pytest.raises(MissingEnvironment):
        second_kind_mixture(state)


# -------------------------------------------------------- bose symmetrizer


def basis(dim: int, n: int):
    e = [0.0] * dim
    e[n] = 1.0
    return make_state(e)


def test_symmetrize_single_particle_identity():
    psi = make_state([1.0, 2.0j, -1.0])
    state = symmetrize_bose([psi])
    assert len(state.branches) == 1
    assert np.max(np.abs(to_product_vector(state) - psi.amplitudes)) < 1e-15


def test_symmetrize_two_particles_flat_vector():
    state = symmetrize_bose([basis(2, 0), basis(2, 1)])
    vec = to_product_vector(state)
    expected = np.zeros(4, dtype=complex)
    expected[1] = expected[2] = 1.0 / math.sqrt(2.0)  # (e0 e1 + e1 e0)/sqrt2
    assert np.max(np.abs(vec - expected)) < 1e-15


def test_symmetrize_three_particles_permutation_enumeration():
    states = [basis(3, n) for n in range(3)]
    sym = symmetrize_bose(states)
    assert len(sym.branches) == 6
    assert len(sym.weights) == 6
    assert np.allclose(sym.weights, 1.0 / 6.0, rtol=0.0, atol=1e-12)
    expected = np.zeros(27, dtype=complex)
    for perm in itertools.permutations(range(3)):
        term = np.kron(
            np.kron(states[perm[0]].amplitudes, states[perm[1]].amplitudes),
            states[perm[2]].amplitudes,
        )
        expected += term / math.sqrt(6.0)
    assert np.max(np.abs(to_product_vector(sym) - expected)) < 1e-14
    assert abs(np.linalg.norm(to_product_vector(sym)) - 1.0) < 1e-12


def test_symmetrize_swap_invariance():
    a, b, c = (basis(4, n) for n in range(3))
    forward = to_product_vector(symmetrize_bose([a, b, c]))
    swapped = to_product_vector(symmetrize_bose([b, a, c]))
    assert np.max(np.abs(forward - swapped)) < 1e-14


def test_symmetrize_guards():
    with pytest.raises(EmptyInput):
        symmetrize_bose([])
    with pytest.raises(TooManyParticles):
        symmetrize_bose([basis(8, n) for n in range(7)])
    with pytest.raises(ValueError):
        symmetrize_bose([make_state([1.0, 0.0]), make_state([1.0, 1.0])])


# --------------------------------------------------------------- residuals


def test_residual_of_exactly_evolved_state_is_tiny():
    mass, sigma = 1e-24, 2e-9
    ham = affine_ham(0.0, mass)  # v2 = 0: pure kinetic dynamics
    grid = Grid1D(-2e-8, 2e-8, 2048)
    psi0 = discretize_gaussian(grid, GaussianPacket(0.0, 0.0, sigma, mass)).amplitudes

    def family(s: float) -> np.ndarray:
        rows = np.zeros((2, grid.n_points), dtype=complex)
        rows[0] = kinetic_exact(psi0, grid.dx, mass, s)
        return rows

    residual = residual_from_family(ham, family, t=1e-8, grid=grid, relative=True)
    assert residual < RESIDUAL_SOLVER_TOL


def test_hamiltonian_apply_is_hermitian_on_the_grid():
    rng = np.random.default_rng(41)
    ham = affine_ham(1e3, 1e-25)
    grid = Grid1D(-1e-8, 1e-8, 128)
    a = rng.normal(size=(2, 128)) + 1j * rng.normal(size=(2, 128))
    b = rng.normal(size=(2, 128)) + 1j * rng.normal(size=(2, 128))
    lhs = np.vdot(a, hamiltonian_apply(ham, b, grid))
    rhs = np.vdot(hamiltonian_apply(ham, a, grid), b)
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)
