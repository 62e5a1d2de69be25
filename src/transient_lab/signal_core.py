"""Transient signal representations and the operations every other module uses.

A transient signal is a finite sum of decaying real exponentials

    x(t) = sum_n  coeff_n * exp(-rate_n * t),      t >= 0,  rate_n > 0,

with rates listed in strictly increasing order.  Three representations are
supported and unified behind SignalSource: an exact symbolic term list, a
finite grid of samples (piecewise-linear between nodes), and an arbitrary
black-box evaluator.  The slowest rate dominates the far tail, so the term
list enumeration mirrors the natural well-ordering of the rate set.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import OutOfSupport, QuadratureFailure
from .quadrature import QuadratureConfig, integrate_semi_infinite

# relative spread of sample steps up to which a grid counts as uniform, beside
# the rounding of its nodes (uniform_grid_step)
UNIFORM_REL_TOL = 1e-12
# uniform nodes that numeric methods read a source without nodes of its own on
GRID_POINTS = 4001


def uniform_grid_step(times) -> Optional[float]:
    """Mean step of the grid times when every step lies within
    UNIFORM_REL_TOL of it plus the rounding of the nodes themselves,
    4 eps max|t|, and that allowance is below the mean, so every step is
    positive: that is, when the grid is uniform and increasing; None
    otherwise.  A node at t rounds by up to eps |t| / 2, so a grid offset far
    from t = 0, or fine for its span, such as linspace(0, 40, 40001), has
    steps that deviate from their mean by more than UNIFORM_REL_TOL of it."""
    steps = np.diff(times)
    if len(steps):
        mean = float(steps.mean())
        rounding = np.finfo(float).eps * max(abs(float(times[0])), abs(float(times[-1])))
        tol = UNIFORM_REL_TOL * mean + 4.0 * rounding
        if tol < mean and np.all(np.abs(steps - mean) <= tol):
            return mean
    return None


def _rows(x, starts, length):
    """The blocks x[s:s + length] for s in the range starts, as the rows of
    one (len(starts), length) view of x, rows that overlap when the range's
    step is below length: the tail fits' sub-windows and the Hankel matrices
    of Prony's method and of the refit bound (_rss_bound).

    A plain ndarray over the buffer of x, copied first when it is not
    contiguous, costs a fraction of what as_strided or sliding_window_view
    does.
    """
    x = np.ascontiguousarray(x, dtype=float)
    return np.ndarray((len(starts), length), float, x, starts.start * x.itemsize,
                      (starts.step * x.itemsize, x.itemsize))


@dataclass(frozen=True)
class SymbolicTransient:
    """Exact finite list of (rate, coeff) terms, rates strictly increasing.

    Coefficients may be zero (such terms carry no signal); a signal is
    "canonical" only when every coefficient is nonzero, which is what the
    exact decomposition requires.
    """

    terms: tuple = ()
    # the terms' rates and coefficients as arrays, built once for __call__
    # and read-only; the properties hand out copies
    _rates: np.ndarray = field(init=False, repr=False, compare=False)
    _coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        normalized = tuple((float(r), float(c)) for r, c in self.terms)
        object.__setattr__(self, "terms", normalized)
        prev = 0.0
        for i, (rate, coeff) in enumerate(normalized):
            if not math.isfinite(rate) or rate <= 0.0:
                raise ValueError(f"term {i}: rate must be a finite positive real, got {rate}")
            if rate <= prev:
                raise ValueError(f"term {i}: rates must be strictly increasing, got {rate} after {prev}")
            if not math.isfinite(coeff):
                raise ValueError(f"term {i}: coefficient must be finite, got {coeff}")
            prev = rate
        # finite terms can still overflow the sum that bounds every value
        l1 = sum(abs(c) for _, c in normalized)
        if not math.isfinite(l1):
            raise ValueError(f"the sum of |coeff| over all terms overflows to {l1}")
        for name, column in (("_rates", [r for r, _ in normalized]),
                             ("_coeffs", [c for _, c in normalized])):
            arr = np.array(column, dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def rates(self) -> np.ndarray:
        return self._rates.copy()

    @property
    def coefficients(self) -> np.ndarray:
        return self._coeffs.copy()

    @property
    def is_canonical(self) -> bool:
        return all(c != 0.0 for _, c in self.terms)

    def canonicalize(self) -> "SymbolicTransient":
        """Drop zero-coefficient terms."""
        return SymbolicTransient(tuple((r, c) for r, c in self.terms if c != 0.0))

    def __call__(self, t):
        ts = np.asarray(t, dtype=float)
        if not self.terms:
            return np.zeros_like(ts) if ts.ndim else 0.0
        out = self._coeffs @ _decay_table(self._rates, ts.ravel())
        return out.reshape(ts.shape) if ts.ndim else float(out[0])


def _decay_table(rates, ts) -> np.ndarray:
    """exp(-rate t), one row per rate and one column per time.  (-rate) * t
    is -(rate * t) exactly, and may overflow to -inf, where exp(-inf) = 0 is
    the exact limit."""
    with np.errstate(over="ignore"):
        table = np.outer(-rates, ts)
    return np.exp(table, out=table)


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Finite observation of a transient on a strictly increasing time grid.

    uniform_step is the grid's step when it is uniform (uniform_grid_step),
    else None; it is derived from times, never passed in.
    """

    times: np.ndarray
    values: np.ndarray
    uniform_step: Optional[float] = field(init=False, default=None)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.ndim != 1:
            raise ValueError("times and values must be one-dimensional")
        if len(times) != len(values):
            raise ValueError(f"length mismatch: {len(times)} times vs {len(values)} values")
        if len(times) == 0:
            raise ValueError("a sampled signal needs at least one sample")
        for name, arr in (("times", times), ("values", values)):
            bad = ~np.isfinite(arr)
            if bad.any():
                raise ValueError(f"{name} must be finite, got {arr[bad][0]} "
                                 f"at sample {int(np.argmax(bad))}")
        if times[0] < 0.0:
            raise ValueError(f"times must start at t >= 0, got {times[0]}")
        if not np.all(np.diff(times) > 0.0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "uniform_step", uniform_grid_step(times))

    @property
    def support(self):
        return float(self.times[0]), float(self.times[-1])


@dataclass(frozen=True, eq=False)
class SignalSource:
    """One evaluatable signal: symbolic, sampled, or black-box.

    support is the range the source is defined on, (0, inf) unless given.
    grid, when present, lists the source's own nodes, strictly increasing;
    numeric methods read the source there (evaluation_grid).  A sampled
    source takes both from its samples, their time range and their times,
    and refuses an explicit support or grid.  Sources compare by identity.
    """

    symbolic: Optional[SymbolicTransient] = None
    sampled: Optional[SampledSignal] = None
    evaluator: Optional[Callable] = None
    support: Optional[tuple] = None
    grid: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        filled = sum(x is not None for x in (self.symbolic, self.sampled, self.evaluator))
        if filled != 1:
            raise ValueError("exactly one of symbolic, sampled, evaluator must be set")
        if self.sampled is not None:
            if self.support is not None or self.grid is not None:
                raise ValueError("a sampled source takes its support and grid from its samples")
            # the samples' times, which SampledSignal has checked already
            object.__setattr__(self, "support", self.sampled.support)
            object.__setattr__(self, "grid", self.sampled.times)
            return
        if self.support is None:
            object.__setattr__(self, "support", (0.0, math.inf))
        if self.grid is not None:
            grid = np.asarray(self.grid, dtype=float)
            if grid.ndim != 1:
                raise ValueError(f"grid must be one-dimensional, got shape {grid.shape}")
            if not np.all(grid[1:] > grid[:-1]):
                raise ValueError("grid nodes must be strictly increasing")
            bad = ~np.isfinite(grid)
            if bad.any():
                raise ValueError(f"grid nodes must be finite, got {grid[bad][0]} "
                                 f"at node {int(np.argmax(bad))}")
            object.__setattr__(self, "grid", grid)

    @classmethod
    def from_symbolic(cls, signal: SymbolicTransient) -> "SignalSource":
        return cls(symbolic=signal)

    @classmethod
    def from_sampled(cls, signal: SampledSignal) -> "SignalSource":
        return cls(sampled=signal)

    @classmethod
    def from_evaluator(cls, fn: Callable, support=(0.0, math.inf), grid=None) -> "SignalSource":
        return cls(evaluator=fn, support=(float(support[0]), float(support[1])), grid=grid)


def evaluate_many(source: SignalSource, ts) -> np.ndarray:
    """Vectorized evaluation at an array of times.

    A sampled source asked for exactly its own nodes returns a copy of its
    values: np.interp returns the value at each node it meets exactly, so
    those are its bits too."""
    ts = np.asarray(ts, dtype=float)
    if source.symbolic is not None:
        return np.asarray(source.symbolic(ts), dtype=float)
    if source.sampled is not None:
        sig = source.sampled
        if ts.shape == sig.times.shape and np.all(ts == sig.times):
            return sig.values.copy()
        lo, hi = sig.support
        span = max(hi - lo, 1.0)
        if np.any(ts < lo - 1e-12 * span) or np.any(ts > hi + 1e-12 * span):
            raise OutOfSupport(f"evaluation outside sampled grid [{lo}, {hi}]")
        return np.interp(ts, sig.times, sig.values)
    arr = np.asarray(source.evaluator(ts), dtype=float)
    if arr.shape != ts.shape:
        raise ValueError("evaluator must return one value per time")
    return arr


def evaluation_grid(source: SignalSource, support) -> np.ndarray:
    """The nodes numeric methods read source on: its own grid nodes inside
    support, a view of its grid, or GRID_POINTS uniform nodes spanning
    support when it has none.

    Either way the nodes are strictly increasing: a support too narrow for
    GRID_POINTS distinct uniform nodes raises ValueError.
    """
    t_lo, t_hi = support
    if source.grid is not None:
        # the nodes are ascending: those inside support are one slice of them
        return source.grid[source.grid.searchsorted(t_lo, "left"):
                           source.grid.searchsorted(t_hi, "right")]
    ts = np.linspace(t_lo, t_hi, GRID_POINTS)
    if not np.all(ts[1:] > ts[:-1]):
        raise ValueError(f"support {tuple(support)} is too narrow for {GRID_POINTS} "
                         f"distinct evaluation nodes")
    return ts


# a joint refit that leaves a whole-grid rms within this multiple of the
# measured noise ends a noisy decomposition; the true model reads 0.94-1.02
NOISE_FIT_RATIO = 1.5
# the rounding floor of a whole-grid rms, as a fraction of the signal's peak:
# a joint refit that reaches it ends a clean decomposition.  The acceptance
# suite's true models refit to at most 4e-17 of their peak; the margin covers
# terms that cancel to a peak far below their own sizes
ROUNDING_FLOOR = 1e-13
# the Hankel matrix of the refit's lower bound (_rss_bound): its columns L,
# which bound sizes 0 to L - 1, and the node stride between them, wide enough
# that the columns of a slow decay are far from parallel
HANKEL_COLUMNS = 8
HANKEL_STRIDE = 16


@dataclass(frozen=True, eq=False)
class InputRecord:
    """The facts of one numeric input in units of its peak, measured once (input_record)."""

    grid: np.ndarray
    values: np.ndarray                 # input / peak, read-only, as is grid
    peak: float                        # max |input|; 0.0 leaves values all zero
    noise_sigma: float                 # _noise_level of values
    rss_goal: Optional[float]          # a refit's goal on values
    min_terms: Optional[int]           # fewest terms _rss_bound lets a refit land with


def input_record(grid, values, step) -> InputRecord:
    """The record of values on grid, whose uniform step is step, or None:
    a read-only view of grid, which leaves the caller's writeable, and the
    values divided by their peak, new and read-only, which a residual may
    hand out as they are.  Samples times 2^k divide to the same values while
    none is subnormal.  rss_goal and min_terms are None on an all-zero
    input, whose zeros stay, and min_terms where _rss_bound reads nothing."""
    peak = float(np.abs(values).max())
    grid, values = grid.view(), values / (peak or 1.0)
    grid.flags.writeable = values.flags.writeable = False
    noise_sigma = _noise_level(values)
    rss_goal = min_terms = None
    if peak > 0.0:
        rss_goal = len(grid) * max(NOISE_FIT_RATIO * noise_sigma, ROUNDING_FLOOR) ** 2
        bound = None if step is None else _rss_bound(values)
        if bound is not None:
            # the bound never rises with the size
            min_terms = int(np.count_nonzero(bound > rss_goal))
    return InputRecord(grid, values, peak, noise_sigma, rss_goal, min_terms)


def _noise_level(values) -> float:
    """Robust noise scale from fourth differences of the trailing half.

    The trailing half is where the transient has decayed, so the smooth
    contribution O(x * (rate*step)^4) is negligible there while i.i.d.
    noise passes through fourth differences with variance 70."""
    tail = np.asarray(values)[len(values) // 2:]
    if len(tail) < 9:
        return 0.0
    fourth = np.diff(tail, n=4)
    mad = _median(np.abs(fourth - _median(fourth)))
    return mad / (0.6745 * math.sqrt(70.0))


def _median(values) -> float:
    """np.median of a non-empty 1-D array, bit for bit, from one
    np.partition: the middle value, or the mean (a + b) / 2 of the two
    middle values for an even length; NaN when any value is NaN, which the
    partition puts last."""
    half = len(values) // 2
    part = np.partition(values, (half - 1 + len(values) % 2, half, -1))
    if math.isnan(part[-1]):
        return math.nan
    if len(values) % 2:
        return float(part[half])
    return float((part[half - 1] + part[half]) / 2.0)


def _rss_bound(values):
    """Lower bounds on the sum of squares that any fit of k terms
    coeff * exp(-rate * grid) leaves on values, for k = 0 .. L - 1
    (L = HANKEL_COLUMNS), values being on a grid uniform by the rule
    prony_fit applies (uniform_grid_step); None when they are too few for the
    Hankel.

    On a uniform grid a k-term model samples to a sum of k geometric
    sequences, whose Hankel matrix has rank at most k: the fact Prony's method
    and the matrix pencil rest on (Hua & Sarkar 1990).  The Hankel
    H[i, j] = values[i + j * d] of L columns at node stride d = HANKEL_STRIDE
    holds each sample at most L times, so a fit's residual r has a Hankel of
    spectral norm at most sqrt(L) |r|, and by Weyl's inequality every k-term
    fit leaves |r|^2 >= lambda_{k+1} / L, lambda_{k+1} the (k+1)-th largest
    eigenvalue of the Gram H'H.  Each bound subtracts the rounding margin
    (4 M eps + 1e-12) trace(H'H) from that eigenvalue, M the rows of H: the
    one gemm that forms H'H errs by at most about M eps trace(H'H), and
    eigvalsh by a small multiple of eps times the Gram's norm, which 1e-12
    of its trace covers.  The bounds never rise with k.
    """
    rows = len(values) - (HANKEL_COLUMNS - 1) * HANKEL_STRIDE
    if rows < HANKEL_COLUMNS:
        return None
    # H' a row a column of H, copied out of the overlapping view for the gemm;
    # against a second copy, since H' times its own transpose goes to BLAS
    # syrk, which takes twice as long at this shape
    hankel_t = np.ascontiguousarray(
        _rows(values, range(0, HANKEL_COLUMNS * HANKEL_STRIDE, HANKEL_STRIDE), rows))
    gram = np.matmul(hankel_t, hankel_t.copy().T)
    margin = (4.0 * rows * np.finfo(float).eps + 1e-12) * gram.trace()
    eigenvalues = np.linalg.eigvalsh(gram)[::-1]
    return np.maximum(eigenvalues - margin, 0.0) / HANKEL_COLUMNS


def inner_product(f: SignalSource, g, q: QuadratureConfig = None):
    """Half-line inner product of f with g, or with each source in g.

    g is one SignalSource, and the result one float, or a non-empty sequence
    of sources on one support, and the result an array holding the product
    with each, bit for bit the float that source alone gives.  Sources on
    different supports raise ValueError.

    Integration runs over the intersection of f's support with g's, so
    sampled signals contribute exactly their observed range; an empty
    intersection gives one 0.0 per source.  A symbolic source paired with a
    symbolic f on the whole half line takes the closed form
    sum c_i d_j / (r_i + s_j), exactly rounded.  Every other source joins
    one quadrature pass, a lone source being its one-row case: f is read
    once at the nodes, and the symbolic sources read one table of
    exp(-rate t) over all their rates, which gives each the values its own
    evaluation gives.  When every source in the pass is symbolic, their
    values are built once per process per sources and nodes and read again
    by every later call (_values_at), so projecting many signals onto one
    basis at one window builds its element table once.

    Known defect of the quadrature: on the whole half line the product of
    two terms with rates summing below 1 is undershot.  The substitution
    z = exp(-t) turns exp(-s t) into z^(s-1), singular at z = 0, which the
    Gauss-Legendre rule does not resolve: the squared norm of an evaluator of
    10 exp(-0.1 t), 500, reads 444.9 at the default 128 nodes and 475.7 at
    1000.
    """
    single = isinstance(g, SignalSource)
    gs = [g] if single else list(g)
    supports = {x.support for x in gs}
    if len(supports) != 1:
        raise ValueError(f"g must hold sources on one support, got supports {sorted(supports)}")
    g_lo, g_hi = supports.pop()
    t_lo = max(f.support[0], g_lo)
    t_hi = min(f.support[1], g_hi)
    window = None if math.isinf(t_hi) and t_lo == 0.0 else (t_lo, t_hi)
    closed = window is None and f.symbolic is not None
    out = np.zeros(len(gs))
    rows = []
    for i, x in enumerate(gs):
        if closed and x.symbolic is not None:
            out[i] = _closed_form_inner(f.symbolic, x.symbolic)
        else:
            rows.append(i)
    if rows:
        pass_gs = [gs[i] for i in rows]

        def integrand(ts):
            return evaluate_many(f, ts) * _values_at(pass_gs, ts)

        try:
            out[rows] = integrate_semi_infinite(integrand, q, t_window=window)
        except OutOfSupport as exc:  # pragma: no cover - guarded by the window
            raise QuadratureFailure(str(exc)) from exc
    return float(out[0]) if single else out


def _values_at(sources, ts) -> np.ndarray:
    """One row per source: its values at ts.  The symbolic sources' rows
    come from one _decay_table over all their rates, bit for bit what each
    one's own call gives.  Sources that are all symbolic read one table,
    built once per process per sources and nodes (_symbolic_values); a
    sampled or evaluator source among them is evaluated on every call."""
    sources = tuple(sources)
    if all(x.symbolic is not None for x in sources):
        return _symbolic_values(sources, ts.tobytes())
    return _value_rows(sources, ts)


# the most tables _symbolic_values keeps: one per basis and quadrature window
# a process projects onto, which is one for the sweeps of compare, whose
# sample sets share one grid.  A table holds a row per source and a column
# per node: at most 135 x 1000 floats, 1.1 MB, for the largest basis at
# quadrature.MAX_NODES
_VALUE_TABLES = 16


@functools.lru_cache(maxsize=_VALUE_TABLES)
def _symbolic_values(sources, nodes: bytes) -> np.ndarray:
    """_value_rows of these symbolic sources at the float nodes packed in
    nodes, read-only: the key is the nodes' bytes, so equal nodes share a
    table and the bits of each row are those the nodes themselves give."""
    table = _value_rows(sources, np.frombuffer(nodes))
    table.flags.writeable = False
    return table


def _value_rows(sources, ts) -> np.ndarray:
    """_values_at, built anew."""
    rates = sorted({r for x in sources if x.symbolic is not None for r, _ in x.symbolic.terms})
    table = _decay_table(np.array(rates), ts)
    row = {r: i for i, r in enumerate(rates)}
    return np.array([
        x.symbolic._coeffs @ table[[row[r] for r, _ in x.symbolic.terms]]
        if x.symbolic is not None else evaluate_many(x, ts)
        for x in sources])


def _closed_form_inner(x: SymbolicTransient, y: SymbolicTransient) -> float:
    """Sum over term pairs of c_i d_j / (r_i + s_j), the integral of x y over
    the half line; raises QuadratureFailure when it leaves the float range,
    as the quadrature does."""
    parts = [a * b / (r + s) for r, a in x.terms for s, b in y.terms]
    try:
        total = math.fsum(parts)
    except (OverflowError, ValueError):    # an inf part, or a sum past the range
        total = math.inf
    if not math.isfinite(total):
        raise QuadratureFailure("integral overflows the float range")
    return total


def synthesize_samples(signal: SymbolicTransient, times, noise_sigma: float = 0.0,
                       seed: int = 0) -> SampledSignal:
    """Sample a symbolic signal on a grid, optionally adding seeded Gaussian noise."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("grid must be non-empty")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise ValueError(f"noise_sigma must be finite and non-negative, got {noise_sigma}")
    values = np.asarray(signal(times), dtype=float)
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, noise_sigma, size=times.shape)
    return SampledSignal(times=times, values=values)


# ---------------------------------------------------------------------------
# file formats: signal spec JSON and sample CSV
# ---------------------------------------------------------------------------

def load_signal_spec(path) -> SymbolicTransient:
    """Read {"terms": [{"rate": r, "coeff": c}, ...]} with ascending rates."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "terms" not in payload:
        raise ValueError(f"{path}: missing required field 'terms'")
    raw = payload["terms"]
    if not isinstance(raw, list):
        raise ValueError(f"{path}: field 'terms' must be a list")
    terms = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "rate" not in entry or "coeff" not in entry:
            raise ValueError(f"{path}: terms[{i}] must carry fields 'rate' and 'coeff'")
        try:
            rate = float(entry["rate"])
            coeff = float(entry["coeff"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: terms[{i}]: non-numeric rate or coeff ({exc})") from exc
        terms.append((rate, coeff))
    try:
        return SymbolicTransient(tuple(terms))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_samples_csv(path) -> SampledSignal:
    """Read the sample format: a header row "t,x", then one row per sample.

    Rows are comma-separated; columns past the second are ignored, blank
    lines are skipped, and fields may be quoted.  Each value is parsed as a
    Python float, and non-finite times or values are rejected, as is a file
    with no samples.  Errors name the file and, for a bad row, its row number.
    """
    columns = _read_columns(path)
    if columns is None:
        columns = _read_rows(path)
    times, values = columns
    try:
        return SampledSignal(times=times, values=values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _is_sample_header(row) -> bool:
    return row is not None and [h.strip() for h in row[:2]] == ["t", "x"]


def _read_rows(path):
    """The reference reader: each row through csv and float().  Inputs the
    fast reader hands back, and every error message, come from here."""
    times, values = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            if not _is_sample_header(next(reader, None)):
                raise ValueError(f"{path}: expected header 't,x'")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    times.append(float(row[0]))
                    values.append(float(row[1]))
                except (IndexError, ValueError) as exc:
                    raise ValueError(f"{path}:{lineno}: malformed sample row {row!r}") from exc
        except csv.Error as exc:   # e.g. a quoted field past csv's size limit
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    return np.array(times), np.array(values)


# csv joins a quoted field's lines into one row where numpy sees several, and
# float() refuses the ASCII separators \x1c-\x1f that numpy strips as spaces
_ROW_LOOP_ONLY = '"\x1c\x1d\x1e\x1f'


def _read_columns(path):
    """_read_rows' result from numpy's C reader, which parses each value as
    float() does; None when the file needs the row loop or holds an error."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), None)
            body = fh.read()
        if not _is_sample_header(header) or any(ch in body for ch in _ROW_LOOP_ONLY):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # numpy only warns on a file with no rows
            data = np.loadtxt(io.StringIO(body), delimiter=",", usecols=(0, 1),
                              comments=None, dtype=float, ndmin=2)
    except (ValueError, UserWarning, csv.Error):
        return None
    return np.ascontiguousarray(data.T)


def _write_columns(path, header: str, first: np.ndarray, second: np.ndarray) -> None:
    """Two float columns under header, each value as its shortest round-trip
    repr: the bytes csv.writer would write, built as one string."""
    rows = [f"{a!r},{b!r}\n" for a, b in zip(first.tolist(), second.tolist())]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n" + "".join(rows))


def save_samples_csv(signal: SampledSignal, path) -> None:
    _write_columns(path, "t,x", signal.times, signal.values)
