"""Order-parameter traces, the diagonal transform's phase spread, and branch sampling.

When every branch of a superposition is a wave packet for the measured
observable, the breaking transform W_eps reduces to diagonal phases
c_n -> c_n exp(i eps |c_n|^2).  The inter-branch mean gap acts as an order
parameter: once it crosses the critical value (the half-sum of branch
spreads) the superposition is effectively broken and a single branch can be
drawn with Born weight |c_n|^2.  classicize is that decision rule: it draws
nothing before the crossing time, and Born-sampled branch indices from it on.

Sampling is inverse-CDF over the cumulative branch weights in branch order.
Every trial of a run is drawn from one PCG64 stream seeded once, so runs are
reproducible and portable: trial i is element i of that stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import InvalidParameter
from .hilbert import StateVector

if TYPE_CHECKING:  # annotations only: sampling and JSONL never load wavepacket
    from .wavepacket import GaussianPacket

# Branches lighter than this weight carry no observable phase and are
# excluded from the spread maximum.
PHASE_WEIGHT_FLOOR = 1e-12

# A JSONL record's last trial digit and close, indexed by that digit.
_ENDS = [f"{digit}}}\n" for digit in range(10)]

# 64-bit golden-ratio increment; decorrelates the seeds split_seed derives.
SEED_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def split_seed(base: int, index: int) -> int:
    """Seed naming configuration `index` of a run: base XOR (golden ratio * index) mod 2^64."""
    return (int(base) ^ ((SEED_GOLDEN * int(index)) & _MASK64)) & _MASK64


def decoherence_phase_spread(psi: StateVector, eps: float) -> float:
    """Largest relative phase the diagonal transform imprints across branches.

    max over branch pairs of |eps| * ||c_n|^2 - |c_m|^2|, restricted to
    branches with weight above PHASE_WEIGHT_FLOOR.  Zero means the transform
    acts as a global phase (equal-weight or single-branch states).
    """
    weights = np.abs(psi.amplitudes) ** 2
    live = weights[weights > PHASE_WEIGHT_FLOOR]
    if live.size < 2:
        return 0.0
    return float(abs(eps) * (np.max(live) - np.min(live)))


@dataclass(frozen=True)
class OrderParameterTrace:
    """Mean gaps vs critical values for every branch pair over a time series.

    tau_nm[k] is the first time pair k satisfies gap >= critical (linearly
    interpolated between samples, None when it never does); tau is the max
    over pairs, None if any pair never crosses.
    """

    times: np.ndarray
    pairs: tuple
    gap: np.ndarray  # shape (n_pairs, n_times)
    critical: np.ndarray  # shape (n_pairs, n_times)
    tau_nm: tuple
    tau: float | None
    n_branches: int


def pair_margins(means: np.ndarray, devs: np.ndarray, i, j) -> tuple[np.ndarray, np.ndarray]:
    """Gap |m_i - m_j| and critical value (d_i + d_j) / 2 of pairs (i, j); A2 wants gap >= critical.

    i and j index the first axis of means and devs, so a trailing time axis
    carries through; np.s_[:, None] against np.s_[None, :] gives every pair.
    """
    return np.abs(means[i] - means[j]), 0.5 * (devs[i] + devs[j])


def _moments(packet: GaussianPacket, observable: str) -> tuple[float, float]:
    if observable == "position":
        return packet.x0, packet.sigma_x
    if observable == "momentum":
        return packet.p0, packet.sigma_p
    raise InvalidParameter(f"unknown observable {observable!r}; use 'position' or 'momentum'")


def _first_crossing(times: np.ndarray, diff: np.ndarray) -> float | None:
    above = diff >= 0.0
    if not np.any(above):
        return None
    i = int(np.argmax(above))
    if i == 0:
        return float(times[0])
    t0, t1 = times[i - 1], times[i]
    d0, d1 = diff[i - 1], diff[i]
    return float(t0 + (t1 - t0) * (-d0) / (d1 - d0))


def order_parameter_trace(
    branches: Sequence[Callable[[np.ndarray], GaussianPacket]],
    observable: str,
    times: Sequence[float],
) -> OrderParameterTrace:
    """Evaluate gap and critical series for every pair of branch trajectories.

    Each branch maps the whole time array to one GaussianPacket whose moments
    are arrays over it (a constant moment may stay a scalar); times must be
    strictly increasing starting at 0.
    """
    t = np.asarray(times, dtype=float)
    if t.size == 0:
        raise InvalidParameter("need at least one sample time")
    if t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
        raise InvalidParameter("times must be strictly increasing starting at 0")
    n = len(branches)
    if n < 2:
        raise InvalidParameter("order parameter needs at least two branches")
    means = np.zeros((n, t.size))
    devs = np.zeros((n, t.size))
    for b, branch in enumerate(branches):
        means[b], devs[b] = _moments(branch(t), observable)
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    gap = np.zeros((len(pairs), t.size))
    critical = np.zeros((len(pairs), t.size))
    tau_nm = []
    for k, (i, j) in enumerate(pairs):
        # A margin beyond the double range is reported below, not as a NumPy warning.
        with np.errstate(over="ignore"):
            gap[k], critical[k] = pair_margins(means, devs, i, j)
        if not np.isfinite(gap[k]).all():
            raise InvalidParameter("order-parameter gap overflows a double")
        if not np.isfinite(critical[k]).all():
            raise InvalidParameter("order-parameter critical value overflows a double")
        tau_nm.append(_first_crossing(t, gap[k] - critical[k]))
    tau = None if any(v is None for v in tau_nm) else max(tau_nm)
    return OrderParameterTrace(
        times=t,
        pairs=pairs,
        gap=gap,
        critical=critical,
        tau_nm=tuple(tau_nm),
        tau=tau,
        n_branches=n,
    )


def sample_collapse(psi: StateVector, n_trials: int, seed: int) -> np.ndarray:
    """Draw n_trials branch indices with Born weight |c_n|^2 (inverse-CDF).

    One PCG64 stream seeded with seed mod 2^64 supplies every uniform, so a
    draw of k trials is the first k of a draw of n.  The cumulative weights
    are walked in branch order and the final branch absorbs any rounding
    remainder, so zero-weight branches are never drawn.
    """
    if n_trials < 1:
        raise InvalidParameter(f"n_trials must be at least 1, got {n_trials}")
    cumulative = np.cumsum(np.abs(psi.amplitudes) ** 2)
    u = np.random.Generator(np.random.PCG64(int(seed) & _MASK64)).random(n_trials)
    return np.minimum(np.searchsorted(cumulative, u, side="right"), psi.dim - 1)


def classicize(
    trace: OrderParameterTrace,
    t: float,
    psi: StateVector,
    n_trials: int,
    seed: int,
) -> np.ndarray | None:
    """Apply the order-parameter decision rule at readout time t.

    psi holds the branch coefficients in trace order.  Before the crossing
    time, or when the trace never crosses, the exact state stands and None is
    returned.  From tau onward n_trials branch indices are drawn with Born
    weight, as sample_collapse(psi, n_trials, seed).
    """
    if trace.n_branches != psi.dim:
        raise InvalidParameter("trace was computed for a different branch family")
    if trace.tau is None or t < trace.tau:
        return None
    return sample_collapse(psi, n_trials, seed)


# ---------------------------------------------------------------------------
# Export plumbing.


def trace_table(trace: OrderParameterTrace) -> tuple[list[str], list[np.ndarray]]:
    """Header and columns for CSV export; single-pair traces use plain names."""
    header, columns = ["t"], [trace.times]
    for (i, j), gap, critical in zip(trace.pairs, trace.gap, trace.critical):
        header += [f"gap_{i}_{j}", f"critical_{i}_{j}"]
        columns += [gap, critical]
    if len(trace.pairs) == 1:
        header = ["t", "gap", "critical"]
    return header, columns


def outcomes_to_jsonl(indices: np.ndarray, weights: Sequence[float]) -> str:
    """One JSON object per trial, as one str: branch_index, posterior, prior, trial.

    Keys are sorted for reproducible bytes.  Only the trial number varies
    between records of one branch, so each branch's record prefix is built
    once; "trial" sorts last, so prefix + number + "}" is the sorted dump.
    Trial r is written as its tens, str(r // 10) ("" below 10), then its last
    digit and the record's close from _ENDS, so only ceil(n / 10) integers are
    converted to text.  The run is one join of (prefix, tens, end) triples;
    the prefixes come from one NumPy gather over the drawn branch indices.
    """
    prefixes = []
    for index, weight in enumerate(weights):
        posterior = [0.0] * len(weights)
        posterior[index] = 1.0
        record = {"branch_index": index, "posterior": posterior, "prior": float(weight)}
        prefixes.append(json.dumps(record, sort_keys=True)[:-1] + ', "trial": ')
    n = len(indices)
    tens = ["", *map(str, range(1, -(-n // 10)))]
    cells = [None] * (3 * n)
    cells[0::3] = np.array(prefixes, dtype=object)[indices].tolist()
    for digit in range(10):
        cells[1 + 3 * digit :: 30] = tens[: len(range(digit, n, 10))]
    cells[2::3] = (_ENDS * len(tens))[:n]
    return "".join(cells)
