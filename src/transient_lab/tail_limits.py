"""Finite-horizon estimators for the two tail limits of a decaying signal.

For x(t) = sum_n coeff_n exp(-rate_n t) the far tail is governed by the
slowest term, so

    -log|x(t)| / t        ->  rate_1      (slowest-rate limit)
    exp(rate_1 t) x(t)    ->  coeff_1     (coefficient limit)

as t grows.  On a finite window the raw sequences carry a contamination
term of size roughly exp(-(rate_2 - rate_1) t), so instead of reading the
sequences directly we fit a straight line to log|x| over a tail window
(exact for a single exponential, and the log intercept bias cancels), and
optionally accelerate with iterated Aitken extrapolation over shifted
sub-windows: on a uniform grid the sub-window statistics of the
contamination form an exact geometric sequence, which one Aitken step
eliminates.

The window placement and floors are fixed constants below; the one choice
a caller makes is the extrapolation order, in TailFitConfig.

Every estimator reads the source on signal_core.evaluation_grid: a sampled
signal's own nodes, sliced rather than interpolated, or GRID_POINTS uniform
nodes over the interval read when the source has no nodes of its own.

The decomposer and the extraction functionals both take their horizons
from here: horizon_ends (shrink_support, for a source) trims at several
relative floors in one pass, and scan_horizons keeps the best-scoring fit
over the trimmed horizons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Diverging, NonDecaying, SignalVanished
from .signal_core import SignalSource, evaluate_many, evaluation_grid

_FIT_ORDERS = {"slope_fit": 1, "richardson_1": 3, "richardson_2": 5}

# trailing portion of the support used as the fit window
WINDOW_FRACTION = 0.5
# fewest usable samples in a window before giving up
MIN_WINDOW_POINTS = 8
# samples below this fraction of the window's peak magnitude are skipped:
# log|x| is undefined at zeros and meaningless below rounding
ABS_FLOOR = 1e-13
# growth of the reweighted tail, across the window, beyond which the
# coefficient estimate reports Diverging
DIVERGE_FACTOR = 10.0


@dataclass(frozen=True)
class TailFitConfig:
    """Extrapolation order of the tail estimators.

    fit_order: "slope_fit" for a single least-squares line, "richardson_1"
        or "richardson_2" for one or two Aitken eliminations over shifted
        sub-windows.
    """

    fit_order: str = "slope_fit"

    def __post_init__(self):
        if not isinstance(self.fit_order, str) or self.fit_order not in _FIT_ORDERS:
            raise ValueError(f"fit_order must be one of {sorted(_FIT_ORDERS)}")


@dataclass(frozen=True)
class RateEstimate:
    rate: float
    intercept: float          # fitted log-magnitude at t = 0
    window: tuple             # (t_start, t_end) actually used
    residual_rms: float       # rms of log|x| about the fitted line


@dataclass(frozen=True)
class RateSequence:
    """Raw slowest-rate sequence (t, -log|x(t)|/t) for diagnostics."""
    points: np.ndarray        # shape (n, 2)
    skipped_times: np.ndarray


def _validate_support(support):
    t_lo, t_hi = float(support[0]), float(support[1])
    if not (t_hi > t_lo >= 0.0) or not math.isfinite(t_hi):
        raise ValueError(f"support must satisfy 0 <= t_lo < t_hi < inf, got {support}")
    return t_lo, t_hi


def _read(source: SignalSource, lo: float, hi: float):
    """Nodes of the source's evaluation grid in [lo, hi] and its values there."""
    sig = source.sampled
    if sig is not None and source.grid is sig.times:
        # read on its own nodes a sampled signal is its samples, so slice
        # them instead of interpolating
        a = int(sig.times.searchsorted(lo, "left"))
        b = int(sig.times.searchsorted(hi, "right"))
        return sig.times[a:b], sig.values[a:b]
    ts = evaluation_grid(source, (lo, hi))
    return ts, evaluate_many(source, ts)


def _window_samples(source, support):
    """Times, values, and the window bounds for the trailing fit window."""
    t_lo, t_hi = _validate_support(support)
    w_start = t_hi - WINDOW_FRACTION * (t_hi - t_lo)
    ts, xs = _read(source, w_start, t_hi)
    if source.sampled is None:
        # samples are finite by construction; evaluated values need not be
        finite = np.isfinite(xs)
        ts, xs = ts[finite], xs[finite]
    return ts, xs, (w_start, t_hi)


def _kept(ts, xs):
    """Drop samples below the relative magnitude floor."""
    mag = np.abs(xs)
    peak = mag.max() if len(mag) else 0.0
    if peak == 0.0:
        raise SignalVanished("signal is identically zero on the tail window")
    keep = mag > ABS_FLOOR * peak
    if keep.sum() < MIN_WINDOW_POINTS:
        raise SignalVanished(
            f"only {int(keep.sum())} tail samples above the floor, "
            f"need {MIN_WINDOW_POINTS}")
    return ts[keep], xs[keep]


def _mean(x):
    # what ndarray.mean computes for a 1-d float64 array, bit for bit,
    # without its Python-level dispatch; the fits call it per sub-block
    return np.add.reduce(x) / len(x)


def _line_fit(t, y):
    tm, ym = _mean(t), _mean(y)
    dt = t - tm
    denom = float(np.dot(dt, dt))
    slope = float(np.dot(dt, y - ym)) / denom
    return slope, ym - slope * tm


def _aitken_pass(seq):
    out = []
    for s0, s1, s2 in zip(seq, seq[1:], seq[2:]):
        d1, d2 = s1 - s0, s2 - s1
        den = d2 - d1
        if den == 0.0 or not math.isfinite(den):
            out.append(s2)
            continue
        corr = d2 * d2 / den
        # a correction larger than the observed differences is extrapolation
        # noise, not a geometric transient; keep the latest raw value
        if not math.isfinite(corr) or abs(corr) > 2.0 * (abs(d1) + abs(d2)):
            out.append(s2)
        else:
            out.append(s2 - corr)
    return out


def _extrapolate(seq):
    seq = list(seq)
    while len(seq) >= 3:
        seq = _aitken_pass(seq)
    return seq[-1]


def _index_blocks(n, nsub, min_points):
    """Equal-length, equal-stride index blocks spanning 0..n-1.

    Equal strides keep the grid offsets inside every block identical, which
    is what makes the per-block contamination exactly geometric on uniform
    grids (and therefore removable by Aitken).
    """
    if nsub == 1:
        return [(0, n)]
    length = n // 2
    step = (n - length) // (nsub - 1)
    if step < 1 or length < min_points:
        return None
    return [(j * step, j * step + length) for j in range(nsub)]


def estimate_rate(source: SignalSource, support, cfg: TailFitConfig = None) -> RateEstimate:
    """Slowest decay rate from a line fit to log|x| over the tail window.

    Exact (to rounding) for a single exponential.  Raises SignalVanished
    when too few samples clear the floor and NonDecaying when the fitted
    slope is non-negative.
    """
    cfg = cfg or TailFitConfig()
    ts, xs, window = _window_samples(source, support)
    ts, xs = _kept(ts, xs)
    logs = np.log(np.abs(xs))

    nsub = _FIT_ORDERS[cfg.fit_order]
    blocks = _index_blocks(len(ts), nsub, MIN_WINDOW_POINTS)
    if blocks is None or nsub == 1:
        slope, icpt = _line_fit(ts, logs)
        rate = -slope
    else:
        slopes = [_line_fit(ts[a:b], logs[a:b])[0] for a, b in blocks]
        rate = -_extrapolate(slopes)
        icpt = float(_mean(logs + rate * ts))
    if not math.isfinite(rate) or rate <= 0.0:
        raise NonDecaying(f"fitted tail slope is non-negative (rate {rate})")
    rms = float(np.sqrt(_mean((logs - (icpt - rate * ts)) ** 2)))
    return RateEstimate(rate=float(rate), intercept=float(icpt), window=window, residual_rms=rms)


def _reweighted(ts, xs, rate):
    """exp(rate*t) * x(t) computed in log space to dodge overflow."""
    out = np.zeros_like(xs)
    nz = xs != 0.0
    out[nz] = np.sign(xs[nz]) * np.exp(rate * ts[nz] + np.log(np.abs(xs[nz])))
    return out


def estimate_coefficient(source: SignalSource, rate: float, support,
                         cfg: TailFitConfig = None) -> float:
    """Leading coefficient: tail-window average of exp(rate*t) x(t).

    With richardson variants the averages over shifted sub-windows are
    Aitken-extrapolated.  Raises Diverging when the reweighted tail grows
    by more than DIVERGE_FACTOR across the window (the rate was too big).
    """
    cfg = cfg or TailFitConfig()
    if rate <= 0.0:
        raise ValueError(f"rate must be positive, got {rate}")
    ts, xs, _ = _window_samples(source, support)
    ts, xs = _kept(ts, xs)
    values = _reweighted(ts, xs, rate)
    if not np.all(np.isfinite(values)):
        raise Diverging("reweighted tail overflowed; decay rate is overestimated")
    # near the top of the float range a sum of values overflows where their
    # mean does not; dividing by a power of two is exact, so the averages
    # run on values scaled below 2**960 and the result is scaled back
    scale = 2.0 ** max(math.frexp(float(np.abs(values).max()))[1] - 960, 0)
    values = values / scale

    quarter = max(len(values) // 4, 1)
    head = float(_mean(np.abs(values[:quarter])))
    tail = float(_mean(np.abs(values[-quarter:])))
    if head > 0.0 and tail / head > DIVERGE_FACTOR:
        raise Diverging(
            f"reweighted tail grows by {tail / head:.3g} across the window "
            f"(limit {DIVERGE_FACTOR}); decay rate is overestimated")

    nsub = _FIT_ORDERS[cfg.fit_order]
    blocks = _index_blocks(len(values), nsub, MIN_WINDOW_POINTS)
    if blocks is None or nsub == 1:
        return float(_mean(values)) * scale
    return float(_extrapolate([float(_mean(values[a:b])) for a, b in blocks])) * scale


def rate_sequence(source: SignalSource, support) -> RateSequence:
    """Raw sequence -log|x(t)|/t over the support, for plots and diagnostics.

    Entries where the value is zero or non-finite are skipped and reported
    in skipped_times rather than raising.
    """
    t_lo, t_hi = _validate_support(support)
    ts, xs = _read(source, t_lo, t_hi)
    positive = ts > 0.0
    ts, xs = ts[positive], xs[positive]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = -np.log(np.abs(xs)) / ts
    good = np.isfinite(vals)
    points = np.column_stack([ts[good], vals[good]])
    return RateSequence(points=points, skipped_times=ts[~good])


def horizon_ends(ts, values, rel_floors, noise=0.0):
    """Horizon end at each relative floor: the last node where |x| >= rel * peak.

    One abs/max pass serves every floor.  With a measured noise level above
    1e-9 of the peak, one more end follows the floors: where |x| sinks into
    five times the noise (at most half the peak).  Noise alone clears that
    level now and then, and a lone such sample far out in the tail would set
    the end there, so the nodes at or above it are cut at their first gap of
    more than a twentieth of the grid, and the end is the last node before
    the cut.  An end at or before the start of the support leaves no
    horizon; scan_horizons passes over it.  Raises SignalVanished when the
    values are zero everywhere.
    """
    mag = np.abs(values)
    peak = mag.max() if len(mag) else 0.0
    if peak == 0.0:
        raise SignalVanished("signal is identically zero on the support")
    ends = [float(ts[mag >= rel * peak][-1]) for rel in rel_floors]
    if noise > 1e-9 * peak:
        above = np.flatnonzero(mag >= min(0.5, 5.0 * noise / peak) * peak)
        gaps = np.flatnonzero(np.diff(above) > len(ts) // 20)
        ends.append(float(ts[above[gaps[0]] if len(gaps) else above[-1]]))
    return ends


def shrink_support(source: SignalSource, support, rel_floors):
    """End of the horizon where |x| still clears each relative floor of its peak.

    Past that point the values carry no usable precision relative to the
    signal's own scale (and, inside a decomposition, are dominated by the
    leftovers of earlier subtractions).  Returns one end per floor, from one
    read of the source over the support; an end at or before t_lo means that
    floor leaves no horizon.
    """
    t_lo, t_hi = _validate_support(support)
    ts, xs = _read(source, t_lo, t_hi)
    return horizon_ends(ts, xs, rel_floors)


def scan_horizons(fit, ends, t_lo):
    """Result of the best-scoring fit over the horizons ending at ends.

    fit(t_hi) returns (score, result), or None to decline that horizon; the
    lowest score wins and ties keep the first.  Ends at or before t_lo are
    passed over.  Each distinct end is fitted once: a repeated end cannot
    win, since it would only tie with its first fit, and if that fit raised,
    its error counts again as the latest.  When no horizon fits, the last
    SignalVanished, NonDecaying or Diverging a fit raised is raised again, or
    SignalVanished if none was.
    """
    best = None
    last_error = None
    tried = {}               # end -> the error its fit raised, or None
    for t_hi in ends:
        if t_hi <= t_lo:
            continue
        if t_hi in tried:
            if tried[t_hi] is not None:
                last_error = tried[t_hi]
            continue
        try:
            scored = fit(t_hi)
        except (SignalVanished, NonDecaying, Diverging) as exc:
            # without its traceback the kept error holds no frame, so it
            # forms no reference cycle with this one
            last_error = tried[t_hi] = exc.with_traceback(None)
            continue
        tried[t_hi] = None
        if scored is not None and (best is None or scored[0] < best[0]):
            best = scored
    if best is None:
        if last_error is None:
            raise SignalVanished("no horizon gives a usable fit")
        # the raise's traceback holds this frame, so the frame keeps no error
        tried.clear()
        try:
            raise last_error
        finally:
            # the raise links this frame to the error; drop the error's
            # link back so refcounting, not the cyclic GC, frees both
            del last_error
    return best[1]
