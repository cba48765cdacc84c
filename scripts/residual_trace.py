#!/usr/bin/env python3
"""Trace the Schrodinger defect of the rigid-branch ansatz through collapse.

Sweeps t across the critical window of the Stern-Gerlach run and prints the
absolute residual |H Psi - i hbar dPsi/dt| / |Psi| (J) next to the relative
one (defect over |H Psi|).  The absolute defect sits at the zero-point
kinetic floor hbar^2 sqrt(3)/2 / (4 m sigma^2) and grows with the branch
momentum.  With the frozen width, the relative defect falls only from
0.9999993 at 0.05 tau_c to 0.998 at 3 tau_c: the ansatz's i hbar dPsi/dt
matches almost none of H Psi, chiefly because the ansatz carries no
dynamical phase.  So it is no evidence that the correlated state approaches
an effective solution (ROADMAP.md, item 10).

The grid is sized from the sweep: it spans twice the reach of either
branch's 6-sigma support at the last sample time, so --spreading (where the
width grows about 120-fold by 3 tau_c) fits as well as the frozen width.
"""

import argparse
import csv
import math
import sys

import numpy as np

from decolab.scenarios.sterngerlach import SGConfig, sg_correlated_state, sg_critical_time, sg_hamiltonian
from decolab.supersystem import schrodinger_residual
from decolab.wavepacket import SUPPORT_SIGMAS, GaussianPacket, Grid1D

# Grid points per initial packet width.
POINTS_PER_SIGMA = 32


def sweep_grid(config: SGConfig, t_last: float, spreading: bool) -> Grid1D:
    """Grid centred on the beam axis holding both branches up to t_last.

    Twice the support keeps the spectral kinetic term's periodic images off
    the packets and covers the residual's t_last + dt sample.
    """
    start = GaussianPacket(0.0, 0.0, config.sigma0, config.mass)
    last = start.evolved(t_last, force=config.mu_b * config.beta_z, spreading=spreading)
    half = 2.0 * (abs(last.x0) + SUPPORT_SIGMAS * last.sigma_x)
    return Grid1D(-half, half, math.ceil(2.0 * half * POINTS_PER_SIGMA / config.sigma0) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=13)
    parser.add_argument("--t-max-factor", type=float, default=3.0, help="sweep up to this multiple of tau_c")
    parser.add_argument("--spreading", action="store_true", help="let the packet width spread ballistically")
    parser.add_argument("--out", type=str, default="", help="optional CSV path")
    args = parser.parse_args(argv)

    config = SGConfig()
    tau = sg_critical_time(config)
    ham = sg_hamiltonian(config)
    state = sg_correlated_state(config)
    factors = np.linspace(0.05, args.t_max_factor, args.points)
    grid = sweep_grid(config, float(factors[-1] * tau), args.spreading)
    rows = []
    for factor in factors:
        t = float(factor * tau)
        absolute = schrodinger_residual(ham, state, t, grid, spreading=args.spreading)
        relative = schrodinger_residual(ham, state, t, grid, spreading=args.spreading, relative=True)
        rows.append((factor, t, absolute, relative))

    print(f"tau_c = {tau:.6e} s  (spreading={'on' if args.spreading else 'off'})")
    print(f"{'t/tau_c':>8}  {'t [s]':>12}  {'abs residual [J]':>18}  {'rel residual':>14}")
    for factor, t, absolute, relative in rows:
        print(f"{factor:8.3f}  {t:12.4e}  {absolute:18.6e}  {relative:14.10f}")

    if args.out:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t_over_tau", "t", "abs_residual", "rel_residual"])
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
