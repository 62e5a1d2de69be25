"""Classical Prony fitting of uniform samples to a sum of real exponentials.

The method leans on the fact that p exponential terms sampled uniformly
satisfy a linear recurrence of depth p.  Fitting splits into three linear
stages, each a well-known numerical weak point:

1. least-squares solve of the linear-prediction (Hankel) system for the
   characteristic-polynomial coefficients;
2. polynomial rooting via the companion-matrix eigenvalues; real roots in
   (0, 1) are the decay poles, anything else (and a root within rounding
   of 1) is flagged and set aside;
3. least-squares Vandermonde solve for the amplitudes, whose condition
   number is recorded because it degrades sharply as poles cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import RankDeficient
from .signal_core import UNIFORM_REL_TOL, SampledSignal, uniform_grid_step

_REAL_ROOT_TOL = 1e-8
# a real root this close below 1 is rounding, not decay.  The lstsq and
# eigenvalue solves each carry a backward error of a small multiple of eps,
# so data that does not decay at all (a pole at exactly 1) can give a root a
# few eps below 1, and -log(root) / step turns that into a huge rate: 200
# samples of exp(-t) at step 1e-200, all of which round to 1.0, give 1 - 5
# eps.  32 eps clears that margin several times over and still keeps every
# rate above 32 eps / step (7e-12 at step 0.01).
_UNIT_ROOT_TOL = 32 * np.finfo(float).eps


@dataclass(frozen=True)
class PronyModel:
    """Fitted poles/rates/amplitudes plus conditioning and validity flags."""

    order: int
    poles: tuple               # z-domain roots kept for the transient model
    rates: tuple               # -log(pole) / step, ascending
    amplitudes: tuple
    vandermonde_condition: float
    flags: tuple = ()
    rejected_roots: tuple = ()  # complex or out-of-range roots, kept visible


def _condition(matrix) -> float:
    """Condition number of matrix: the ratio of its extreme singular values,
    inf when it is singular."""
    singular = np.linalg.svd(matrix, compute_uv=False)
    return float(singular[0] / singular[-1]) if singular[-1] > 0.0 else float("inf")


def _companion_roots(monic_low_to_high) -> np.ndarray:
    """Roots of a monic polynomial given coefficients lowest power first."""
    coeffs = np.asarray(monic_low_to_high, dtype=float)
    degree = len(coeffs) - 1
    if degree == 0:
        return np.array([])
    matrix = np.zeros((degree, degree))
    matrix[1:, :-1] = np.eye(degree - 1)
    matrix[:, -1] = -coeffs[:-1] / coeffs[-1]
    return np.linalg.eigvals(matrix)


def prony_fit(signal: SampledSignal, order: int) -> PronyModel:
    """Fit `order` exponential terms to uniformly sampled data.

    Raises RankDeficient only when the prediction system carries no rank at
    all; a merely overestimated order is reduced to the detected rank and
    flagged instead.
    """
    if order < 1:
        raise ValueError("order must be positive")
    values = signal.values
    n = len(values)
    if n < 2 * order:
        raise ValueError(f"need at least {2 * order} samples for order {order}, got {n}")
    if signal.uniform_step is None:
        steps = np.diff(signal.times)
        mean = steps.mean()
        deviation = float(np.abs(steps - mean).max() / mean)
        raise ValueError(f"prony_fit needs a uniform sample grid: the steps deviate from "
                         f"their mean by up to {deviation:.1e} of it, over the "
                         f"tolerance {UNIFORM_REL_TOL:g}")

    step = signal.uniform_step
    flags = []
    p = order
    while True:
        prediction = sliding_window_view(values, p)[:n - p]
        poly, _, rank, _ = np.linalg.lstsq(prediction, -values[p:], rcond=None)
        if rank == p:
            break
        if rank == 0:
            raise RankDeficient("linear-prediction system has rank 0")
        # noiseless data of lower true order: retry at the detected rank
        flags.append(f"order_reduced:{p}->{rank}")
        p = int(rank)

    roots = _companion_roots(np.concatenate([poly, [1.0]]))
    scale = np.maximum(1.0, np.abs(roots.real))
    is_real = np.abs(roots.imag) <= _REAL_ROOT_TOL * scale
    real_roots = roots[is_real].real
    in_range = (real_roots > 0.0) & (1.0 - real_roots > _UNIT_ROOT_TOL)
    kept = np.sort(real_roots[in_range])[::-1]          # descending pole = ascending rate
    rejected = tuple(np.concatenate([roots[~is_real], real_roots[~in_range]]).tolist())
    if len(rejected):
        flags.append("complex_or_out_of_range_roots")
    if len(kept) == 0:
        raise RankDeficient("no real poles in (0, 1) survived root filtering")
    if len(np.unique(kept)) != len(kept):
        flags.append("duplicate_poles")

    rates = -np.log(kept) / step
    vandermonde = kept[None, :] ** np.arange(n)[:, None]
    amplitudes, *_ = np.linalg.lstsq(vandermonde, values, rcond=None)
    # grid may start at t0 > 0; translate amplitudes back to t = 0
    amplitudes = amplitudes * np.exp(rates * signal.times[0])

    return PronyModel(
        order=int(p),
        poles=tuple(kept.tolist()),
        rates=tuple(rates.tolist()),
        amplitudes=tuple(amplitudes.tolist()),
        vandermonde_condition=_condition(vandermonde),
        flags=tuple(flags),
        rejected_roots=rejected,
    )


def vandermonde_condition(rates, times) -> float:
    """Condition number of the amplitude solve for rates on the grid times,
    which must be uniform by the rule prony_fit applies (uniform_grid_step)."""
    rates = np.asarray(rates, dtype=float)
    times = np.asarray(times, dtype=float)
    if len(rates) == 0:
        raise ValueError("need at least one rate")
    if len(np.unique(rates)) != len(rates):
        raise ValueError("rates must be distinct")
    if len(times) < 2:
        raise ValueError("need at least two sample times")
    step = uniform_grid_step(times)
    if step is None:
        raise ValueError(f"times must be a uniform increasing grid: every step within "
                         f"a relative {UNIFORM_REL_TOL:g} of a positive mean step")
    poles = np.exp(-rates * step)
    return _condition(poles[None, :] ** np.arange(len(times))[:, None])
