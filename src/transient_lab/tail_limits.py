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
eliminates.  The sub-windows are equal-stride blocks of the window, read as
the rows of one strided view, so every block's line is fitted from sums
centred on its own means in a fixed handful of array calls.

The window placement and floors are fixed constants below; the one choice
a caller makes is the extrapolation order, in TailFitConfig.

The estimators take arrays: ascending grid nodes and the finite values
there, read once by the caller (signal_core.evaluation_grid) and passed to
every fit, which slices out the nodes in the trailing window of its
support and takes |x| and log|x| there.  Only rate_sequence reads a source
itself.

The decomposer and the extraction functionals both take their horizons
from here: shrink_support trims at several relative floors in one pass, and
scan_horizons keeps the best-scoring fit over the trimmed horizons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import Diverging, NonDecaying, SignalVanished, TooFewSamples
from .signal_core import SignalSource, evaluate_many, evaluation_grid

_FIT_ORDERS = {"slope_fit": 1, "richardson_1": 3, "richardson_2": 5}

# trailing portion of the support used as the fit window
WINDOW_FRACTION = 0.5
# fewest usable samples in a window before giving up
MIN_WINDOW_POINTS = 8
# samples below this fraction of the window's peak magnitude are skipped:
# log|x| is undefined at zeros and meaningless below rounding
ABS_FLOOR = 1e-13
# a noise level above this fraction of the peak magnitude is measured noise;
# clean input reads its noise at rounding level, far below it
NOISE_FLOOR = 1e-9
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


@dataclass(frozen=True, eq=False)
class RateSequence:
    """Raw slowest-rate sequence (t, -log|x(t)|/t) for diagnostics."""
    points: np.ndarray        # shape (n, 2)
    skipped_times: np.ndarray


def _validate_support(support):
    t_lo, t_hi = float(support[0]), float(support[1])
    if not (t_hi > t_lo >= 0.0) or not math.isfinite(t_hi):
        raise ValueError(f"support must satisfy 0 <= t_lo < t_hi < inf, got {support}")
    return t_lo, t_hi


def tail_slice(ts, t_lo, t_hi):
    """Bounds (w_start, t_hi) of the trailing fit window of [t_lo, t_hi], and
    the slice of the ascending nodes ts within them, both ends included."""
    w_start = t_hi - WINDOW_FRACTION * (t_hi - t_lo)
    return (w_start, t_hi), slice(int(ts.searchsorted(w_start, "left")),
                                  int(ts.searchsorted(t_hi, "right")))


def require_tail_nodes(ts, support, where=""):
    """Refuse the ascending nodes ts over the (validated) support when the tail
    window of no horizon ending at one of them holds MIN_WINDOW_POINTS nodes:
    no fit could then read a tail.  Horizons end at nodes (shrink_support), and
    on a non-uniform grid a short horizon's window may hold the most nodes.
    Raises TooFewSamples; where, when given, follows "in a tail window" in
    its message to say which windows were counted."""
    _, window = tail_slice(ts, *support)
    count = window.stop - window.start
    if count < MIN_WINDOW_POINTS:
        # the whole support's window, read first, seldom falls short
        starts = ts.searchsorted(ts - WINDOW_FRACTION * (ts - support[0]), "left")
        count = int((ts.searchsorted(ts, "right") - starts).max(initial=0))
    if count < MIN_WINDOW_POINTS:
        raise TooFewSamples(f"support holds too few samples: at most {count} in a tail "
                            f"window{where}, need {MIN_WINDOW_POINTS}")


def _kept(ts, xs):
    """The samples above the relative magnitude floor and their magnitudes,
    (ts, xs, |xs|); ts and xs are the windows themselves when none is dropped."""
    mag = np.abs(xs)
    peak = float(np.maximum.reduce(mag)) if len(mag) else 0.0
    if peak == 0.0:
        raise SignalVanished("signal is identically zero on the tail window")
    floor = ABS_FLOOR * peak
    # most windows drop nothing, which one min-reduce shows without a mask
    if float(np.minimum.reduce(mag)) > floor:
        count = len(mag)
        keep = None
    else:
        keep = mag > floor
        count = int(np.count_nonzero(keep))
    if count < MIN_WINDOW_POINTS:
        raise SignalVanished(
            f"only {count} tail samples above the floor, need {MIN_WINDOW_POINTS}")
    if keep is None:
        return ts, xs, mag
    return ts[keep], xs[keep], mag[keep]


def _mean(x):
    # means along the last axis: for a 1-d float64 array what ndarray.mean
    # computes, bit for bit, without its Python-level dispatch, and for the
    # rows of a 2-d one the same pairwise sum of each row
    return np.add.reduce(x, axis=-1) / x.shape[-1]


def _rows(x, starts, length):
    """The blocks x[s:s + length] for s in the range starts, as the rows of
    one (len(starts), length) view of x.

    A plain ndarray over x's buffer costs a fraction of what as_strided does.
    """
    x = np.ascontiguousarray(x, dtype=float)
    return np.ndarray((len(starts), length), float, x, starts.start * x.itemsize,
                      (starts.step * x.itemsize, x.itemsize))


class _Blocks(NamedTuple):
    """Everything on the grid side of the line fits on the blocks of a
    window's nodes: what does not depend on the values fitted."""
    starts: range
    length: int
    tm: np.ndarray            # each block's mean node
    dt: np.ndarray            # each block's nodes less its mean, one row a block
    den: np.ndarray           # each block's centred nodes dotted with themselves
    error: Optional[str]      # why no line can be fitted, or None


def _blocks(t, nsub):
    """_Blocks of the equal-stride blocks (_index_blocks) of the nodes t.

    The first block whose nodes' spread squares to zero or overflows sets
    error: no line can be fitted on it.
    """
    starts, length = _index_blocks(len(t), nsub)
    t_rows = _rows(t, starts, length)
    tm = _mean(t_rows)
    dt = t_rows - tm[:, None]
    # a stacked (1, n) @ (n, 1) product is a dot product per block, the same
    # BLAS call, and so the same bits, as np.dot on that block
    den = np.matmul(dt[:, None, :], dt[:, :, None])[:, 0, 0]
    error = None
    for j, d in enumerate(den.tolist()):
        if not 0.0 < d < math.inf:
            error = (f"the spread of the tail nodes {float(t_rows[j, 0])!r} .. "
                     f"{float(t_rows[j, -1])!r} squares to {d!r}; no decay rate "
                     f"can be fitted")
            break
    return _Blocks(starts, length, tm, dt, den, error)


def _slopes(blocks, y):
    """Least-squares slopes of y against the nodes on each of blocks, from
    sums centred on each block's means, and the means of y on the blocks.
    Raises NonDecaying when blocks holds a block with no usable spread."""
    if blocks.error is not None:
        raise NonDecaying(blocks.error)
    y_rows = _rows(y, blocks.starts, blocks.length)
    ym = _mean(y_rows)
    slopes = np.matmul(blocks.dt[:, None, :], (y_rows - ym[:, None])[:, :, None])[:, 0, 0]
    return slopes / blocks.den, ym


def _aitken_pass(seq):
    out = []
    for i in range(2, len(seq)):
        s0, s1, s2 = seq[i - 2], seq[i - 1], seq[i]
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
    """Iterated Aitken extrapolation of the list seq; its one entry when it
    holds one."""
    while len(seq) >= 3:
        seq = _aitken_pass(seq)
    return seq[-1]


def _index_blocks(n, nsub):
    """Equal-length, equal-stride blocks spanning 0..n-1, as (starts, length)
    with starts a range; the one block (range(1), n) when nsub is 1 or the
    blocks would be shorter than MIN_WINDOW_POINTS.

    Equal strides keep the grid offsets inside every block identical, which
    is what makes the per-block contamination exactly geometric on uniform
    grids (and therefore removable by Aitken).
    """
    if nsub > 1:
        length = n // 2
        step = (n - length) // (nsub - 1)
        if step >= 1 and length >= MIN_WINDOW_POINTS:
            return range(0, nsub * step, step), length
    return range(1), n


def _window(ts, values, support):
    """Bounds of the tail window of support, and the samples there above the
    floor with the log of their magnitudes, (ts, xs, log|xs|).  Raises
    ValueError on a bad support and SignalVanished as _kept does."""
    bounds, window = tail_slice(ts, *_validate_support(support))
    ts, xs, mag = _kept(ts[window], values[window])
    return bounds, ts, xs, np.log(mag)


def estimate_rate(ts, values, support, cfg: TailFitConfig = None) -> RateEstimate:
    """Slowest decay rate from a line fit to log|x| over the tail window.

    ts holds ascending grid nodes and values the finite values there.  Exact
    (to rounding) for a single exponential.  Raises SignalVanished when too
    few samples clear the floor and NonDecaying when the fitted slope is
    non-negative or the window's nodes are too close to fit one.
    """
    cfg = cfg or TailFitConfig()
    bounds, ts, _, logs = _window(ts, values, support)
    blocks = _blocks(ts, _FIT_ORDERS[cfg.fit_order])
    slopes, ym = _slopes(blocks, logs)
    rate = -_extrapolate(slopes.tolist())
    if not math.isfinite(rate) or rate <= 0.0:
        raise NonDecaying(f"fitted tail slope is non-negative (rate {rate})")
    rts = rate * ts
    if len(blocks.starts) == 1:
        # one block fits the whole window and gives the intercept with its slope
        icpt = ym.item() - slopes.item() * blocks.tm.item()
    else:
        icpt = float(_mean(logs + rts))
    # the squared deviations log|x| - (icpt - rate t), in place
    dev = np.subtract(icpt, rts, out=rts)
    np.subtract(logs, dev, out=dev)
    dev *= dev
    rms = math.sqrt(float(_mean(dev)))
    return RateEstimate(rate=rate, intercept=icpt, window=bounds, residual_rms=rms)


def _reweighted(ts, values, rate, support):
    """The kept samples of the tail window of support times exp(rate * t),
    taken as sign(x) exp(rate t + log|x|); an overflow leaves an inf."""
    _, ts, xs, logs = _window(ts, values, support)
    with np.errstate(over="ignore"):
        out = np.multiply(rate, ts)
        out += logs
        np.exp(out, out=out)
    # the kept samples are nonzero, so each carries its sign onto exp
    return np.copysign(out, xs, out=out)


def estimate_coefficient(ts, values, rate: float, support, cfg: TailFitConfig = None) -> float:
    """Leading coefficient: tail-window average of exp(rate*t) x(t).

    ts and values are taken as by estimate_rate.  With richardson variants
    the averages over shifted sub-windows are Aitken-extrapolated.  Raises
    Diverging when the reweighted tail grows by more than DIVERGE_FACTOR
    across the window (the rate was too big).
    """
    cfg = cfg or TailFitConfig()
    if rate <= 0.0:
        raise ValueError(f"rate must be positive, got {rate}")
    values, scale = _scaled_tail(_reweighted(ts, values, rate, support))
    starts, length = _index_blocks(len(values), _FIT_ORDERS[cfg.fit_order])
    means = _mean(_rows(values, starts, length)).tolist()
    return float(_extrapolate(means)) * scale


def _scaled_tail(values):
    """(values / scale, scale) for the reweighted samples values, scale the
    power of two that brings their largest magnitude below 2**960.  Raises
    Diverging when they overflowed or grow by more than DIVERGE_FACTOR
    across the window: the rate was too big.

    Near the top of the float range a sum of values overflows where their
    mean does not; dividing by a power of two is exact, so averages run on
    the scaled values and are scaled back."""
    # an overflow in the reweighting left an inf, refused here
    mag = np.abs(values)
    peak = float(np.maximum.reduce(mag))
    if not math.isfinite(peak):
        raise Diverging("reweighted tail overflowed; decay rate is overestimated")
    scale = 2.0 ** max(math.frexp(peak)[1] - 960, 0)
    if scale != 1.0:
        values, mag = values / scale, mag / scale

    quarter = max(len(values) // 4, 1)
    head = float(_mean(mag[:quarter]))
    tail = float(_mean(mag[-quarter:]))
    if head > 0.0 and tail / head > DIVERGE_FACTOR:
        raise Diverging(
            f"reweighted tail grows by {tail / head:.3g} across the window "
            f"(limit {DIVERGE_FACTOR}); decay rate is overestimated")
    return values, scale


def rate_sequence(source: SignalSource, support) -> RateSequence:
    """Raw sequence -log|x(t)|/t over the support, for plots and diagnostics.

    Entries where the value is zero or non-finite are skipped and reported
    in skipped_times rather than raising.
    """
    ts = evaluation_grid(source, _validate_support(support))
    xs = evaluate_many(source, ts)
    positive = ts > 0.0
    ts, xs = ts[positive], xs[positive]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = -np.log(np.abs(xs)) / ts
    good = np.isfinite(vals)
    points = np.column_stack([ts[good], vals[good]])
    return RateSequence(points=points, skipped_times=ts[~good])


def shrink_support(ts, values, rel_floors, noise=0.0):
    """Horizon end at each relative floor: the last node where |x| >= rel * peak.

    ts holds ascending grid nodes over the support, values the finite values
    there, and rel_floors relative floors of at most 1.  Past an end the
    values carry no usable precision relative to the signal's own scale
    (inside a decomposition, the leftovers of earlier subtractions dominate
    them).  One abs/max pass and one comparison serve every floor.  With a
    measured noise level above NOISE_FLOOR of the peak, one more end follows
    the floors: where |x| sinks into five times the noise (at most half the
    peak).  Noise alone clears that level now and then, and a lone such
    sample far out in the tail would set the end there, so the nodes at or
    above it are cut at their first gap, an index step of more than n // 20
    on a grid of n nodes and never one between adjacent nodes, and the end
    is the last node before the cut.  An end at or before the start of the
    support leaves no horizon; scan_horizons passes over it.  Raises
    SignalVanished when the values are zero everywhere.
    """
    # magnitudes from the last node back: a floor's end is the node of the
    # first of them at or above its level, found by one comparison against
    # every level at once and an argmax that stops at the first crossing
    reversed_mag = np.abs(values[::-1])
    n = len(reversed_mag)
    peak = float(np.maximum.reduce(reversed_mag)) if n else 0.0
    if peak == 0.0:
        raise SignalVanished("signal is identically zero on the support")
    levels = np.multiply(rel_floors, peak)
    crossings = (reversed_mag >= levels[:, None]).argmax(axis=1)
    ends = ts[n - 1 - crossings].tolist()
    if noise > NOISE_FLOOR * peak:
        # the nodes at or above the level, counted from the last node back:
        # the first gap from the front is the last one here, and the end is
        # the node just past it, or the hit nearest the end without a gap
        above = np.flatnonzero(reversed_mag >= min(0.5, 5.0 * noise / peak) * peak)
        gaps = np.flatnonzero(above[1:] - above[:-1] > max(n // 20, 1))
        ends.append(float(ts[n - 1 - above[gaps[-1] + 1 if len(gaps) else 0]]))
    return ends


def scan_horizons(fit, ends, t_lo):
    """Result of the best-scoring fit over the horizons ending at ends.

    fit(t_hi) returns (score, result), or None to decline that horizon; the
    lowest score wins and ties keep the first.  Ends at or before t_lo are
    passed over.  The ends come in ascending order from shrink_support, so a
    repeated end follows its first, and an end equal to the one before it is
    passed over too: fitting it again would only tie with its first fit, or
    raise its error again.  When no horizon fits, the last SignalVanished,
    NonDecaying or Diverging a fit raised is raised again, or SignalVanished
    if none was.
    """
    best = None
    last_error = None
    previous = None
    for t_hi in ends:
        if t_hi <= t_lo or t_hi == previous:
            continue
        previous = t_hi
        try:
            scored = fit(t_hi)
        except (SignalVanished, NonDecaying, Diverging) as exc:
            # without its traceback the kept error holds no frame, so it
            # forms no reference cycle with this one
            last_error = exc.with_traceback(None)
            continue
        if scored is not None and (best is None or scored[0] < best[0]):
            best = scored
    if best is None:
        if last_error is None:
            raise SignalVanished("no horizon gives a usable fit")
        try:
            raise last_error
        finally:
            # the raise links this frame to the error; drop the error's
            # link back so refcounting, not the cyclic GC, frees both
            del last_error
    return best[1]
