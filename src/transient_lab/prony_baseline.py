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

from .errors import Diverging, RankDeficient, TooFewSamples
from .signal_core import UNIFORM_REL_TOL, SampledSignal, _rows, uniform_grid_step

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


def _condition(singular) -> float:
    """Condition number of a matrix from its singular values, largest
    first: the ratio of the extreme two, inf when the matrix is singular."""
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


def _screen_roots(roots):
    """(kept, rejected, repeated) for the companion roots.  kept holds the
    real roots in (0, 1) clear of 1 by _UNIT_ROOT_TOL, descending, as a
    reversed view of an ascending array: np.log reads a contiguous
    descending copy to other bits.  rejected holds the roots off the real
    line, as eigvals gave them, then the real roots out of that range, each
    a complex with zero imaginary part when eigvals gave complex roots.
    repeated tells whether two kept roots are equal.  A root is real when
    its imaginary part is within _REAL_ROOT_TOL of max(|real part|, 1).

    A fit has two to a few roots, so one Python pass over them costs less
    than the array operations it replaces."""
    kept, off_line, out_of_range = [], [], []
    for root in roots.tolist():
        real = root.real
        # max(nan, 1.0) is nan, as np.maximum gives, so no NaN root is real
        if abs(root.imag) <= _REAL_ROOT_TOL * max(abs(real), 1.0):
            if real > 0.0 and 1.0 - real > _UNIT_ROOT_TOL:
                kept.append(real)
            else:
                out_of_range.append(complex(real) if isinstance(root, complex) else real)
        else:
            off_line.append(root)
    return (np.array(sorted(kept))[::-1], tuple(off_line + out_of_range),
            len(set(kept)) != len(kept))


def prony_fit(signal: SampledSignal, order: int) -> PronyModel:
    """Fit `order` exponential terms to uniformly sampled data.

    Raises TooFewSamples when there are fewer than 2 * order samples, and
    RankDeficient only when the prediction system carries no rank at all; a
    merely overestimated order is reduced to the detected rank and flagged
    instead.
    """
    if order < 1:
        raise ValueError("order must be positive")
    values = signal.values
    n = len(values)
    if n < 2 * order:
        raise TooFewSamples(f"need at least {2 * order} samples for order {order}, got {n}")
    if signal.uniform_step is None:
        steps = np.diff(signal.times)
        mean = steps.mean()
        deviation = float(np.abs(steps - mean).max() / mean)
        raise ValueError(f"prony_fit needs a uniform sample grid: the steps deviate from "
                         f"their mean by up to {deviation:.1e} of it, over the "
                         f"tolerance {UNIFORM_REL_TOL:g} plus the nodes' rounding")

    step = signal.uniform_step
    flags = []
    p = order
    while True:
        prediction = _rows(values, range(n - p), p)
        poly, _, rank, _ = np.linalg.lstsq(prediction, -values[p:], rcond=None)
        if rank == p:
            break
        if rank == 0:
            raise RankDeficient("linear-prediction system has rank 0")
        # noiseless data of lower true order: retry at the detected rank
        flags.append(f"order_reduced:{p}->{rank}")
        p = int(rank)

    kept, rejected, repeated = _screen_roots(_companion_roots(np.concatenate([poly, [1.0]])))
    if rejected:
        flags.append("complex_or_out_of_range_roots")
    if len(kept) == 0:
        raise RankDeficient("no real poles in (0, 1) survived root filtering")
    if repeated:
        flags.append("duplicate_poles")

    rates = -np.log(kept) / step        # descending pole = ascending rate
    vandermonde = kept[None, :] ** np.arange(n)[:, None]
    # the solve's own singular values give the condition: no second SVD
    amplitudes, _, _, singular = np.linalg.lstsq(vandermonde, values, rcond=None)
    # grid may start at t0 > 0; translate amplitudes back to t = 0, which a
    # late start can carry past the float range
    with np.errstate(over="ignore", invalid="ignore"):
        amplitudes = amplitudes * np.exp(rates * signal.times[0])
    if not np.all(np.isfinite(amplitudes)):
        raise Diverging(f"the amplitudes overflow when translated back to t = 0 from the "
                        f"first sample at t = {float(signal.times[0])!r}")

    return PronyModel(
        order=int(p),
        poles=tuple(kept.tolist()),
        rates=tuple(rates.tolist()),
        amplitudes=tuple(amplitudes.tolist()),
        vandermonde_condition=_condition(singular),
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
                         f"a relative {UNIFORM_REL_TOL:g} of a positive mean step, plus "
                         f"the nodes' rounding")
    poles = np.exp(-rates * step)
    return _condition(np.linalg.svd(poles[None, :] ** np.arange(len(times))[:, None],
                                    compute_uv=False))
