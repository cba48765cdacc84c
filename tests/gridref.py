"""Independent grid-evolution oracles used to cross-check closed-form results.

Everything here works on the weighted amplitude convention used by the
package (c_k = psi(x_k) sqrt(dx), so sum |c|^2 = 1) but is written from
scratch against the textbook split-operator method rather than by calling
package internals.  Tests treat these as the ground truth for dynamics.
"""

from __future__ import annotations

import numpy as np

HBAR_REF = 1.0545718e-34


def wavenumbers(n_points: int, dx: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n_points, d=dx)


def kinetic_exact(amps: np.ndarray, dx: float, mass: float, t: float) -> np.ndarray:
    """Exact propagator for H = p^2/2m on the periodic grid."""
    k = wavenumbers(amps.size, dx)
    phase = np.exp(-1j * (HBAR_REF * k) ** 2 * t / (2.0 * mass * HBAR_REF))
    return np.fft.ifft(phase * np.fft.fft(amps))


def split_step(
    amps: np.ndarray,
    dx: float,
    v_values: np.ndarray,
    mass: float,
    t: float,
    n_steps: int,
) -> np.ndarray:
    """Strang-split propagation under H = p^2/2m + V(x), error O(dt^2)."""
    dt = t / n_steps
    k = wavenumbers(amps.size, dx)
    kin = np.exp(-1j * (HBAR_REF * k) ** 2 * dt / (2.0 * mass * HBAR_REF))
    half_v = np.exp(-1j * np.asarray(v_values, dtype=float) * dt / (2.0 * HBAR_REF))
    psi = np.asarray(amps, dtype=complex).copy()
    for _ in range(n_steps):
        psi = half_v * psi
        psi = np.fft.ifft(kin * np.fft.fft(psi))
        psi = half_v * psi
    return psi


def grid_moments(amps: np.ndarray, xs: np.ndarray) -> tuple[float, float]:
    """Position mean and deviation of a weighted amplitude vector."""
    w = np.abs(amps) ** 2
    mean = float(np.sum(w * xs))
    var = float(np.sum(w * (xs - mean) ** 2))
    return mean, np.sqrt(max(var, 0.0))


def grid_momentum_moments(
    amps: np.ndarray, dx: float, mass_unused: float | None = None
) -> tuple[float, float]:
    """Momentum mean and deviation via the spectral derivative."""
    k = wavenumbers(amps.size, dx)
    p_amps = np.fft.ifft((HBAR_REF * k) * np.fft.fft(amps))
    mean = float(np.real(np.vdot(amps, p_amps)))
    second = float(np.real(np.vdot(p_amps, p_amps)))
    return mean, np.sqrt(max(second - mean**2, 0.0))


def dense_momentum_matrix(n_points: int, dx: float) -> np.ndarray:
    """Momentum as an explicit matrix F^dag diag(hbar k) F, F the unitary DFT matrix.

    O(n^3) and only meant for small grids, as an oracle for spectral moments.
    """
    j = np.arange(n_points)
    f = np.exp(-2j * np.pi * np.outer(j, j) / n_points) / np.sqrt(n_points)
    k = wavenumbers(n_points, dx)
    p = f.conj().T @ (HBAR_REF * k[:, None] * f)
    return 0.5 * (p + p.conj().T)  # strip rounding asymmetry; Hermitian by construction
