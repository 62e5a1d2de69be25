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
import io
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import OutOfSupport, QuadratureFailure
from .quadrature import QuadratureConfig, integrate_semi_infinite

# relative spread of sample steps up to which a grid counts as uniform
UNIFORM_REL_TOL = 1e-12
# uniform nodes that numeric methods read a source without nodes of its own on
GRID_POINTS = 4001


def uniform_grid_step(times) -> Optional[float]:
    """Mean step of the grid times when it is positive and every step lies
    within UNIFORM_REL_TOL of it, that is, when the grid is uniform and
    increasing; None otherwise."""
    steps = np.diff(times)
    if len(steps):
        mean = float(steps.mean())
        if mean > 0.0 and np.all(np.abs(steps - mean) <= UNIFORM_REL_TOL * mean):
            return mean
    return None


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
        # (-rate) * t is -(rate * t) exactly, and may overflow to -inf, where
        # exp(-inf) = 0 is the exact limit
        with np.errstate(over="ignore"):
            exponents = np.outer(-self._rates, ts.ravel())
        out = self._coeffs @ np.exp(exponents, out=exponents)
        return out.reshape(ts.shape) if ts.ndim else float(out[0])


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SignalSource:
    """One evaluatable signal: symbolic, sampled, or black-box.

    grid, when present, lists the source's own nodes (a sampled signal's
    sample times), strictly increasing; numeric methods read the source
    there (evaluation_grid).
    """

    symbolic: Optional[SymbolicTransient] = None
    sampled: Optional[SampledSignal] = None
    evaluator: Optional[Callable] = None
    support: tuple = (0.0, math.inf)
    grid: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        filled = sum(x is not None for x in (self.symbolic, self.sampled, self.evaluator))
        if filled != 1:
            raise ValueError("exactly one of symbolic, sampled, evaluator must be set")
        if self.grid is not None:
            grid = np.asarray(self.grid, dtype=float)
            if not np.all(grid[1:] > grid[:-1]):
                raise ValueError("grid nodes must be strictly increasing")
            object.__setattr__(self, "grid", grid)

    @classmethod
    def from_symbolic(cls, signal: SymbolicTransient) -> "SignalSource":
        return cls(symbolic=signal)

    @classmethod
    def from_sampled(cls, signal: SampledSignal) -> "SignalSource":
        return cls(sampled=signal, support=signal.support, grid=signal.times)

    @classmethod
    def from_evaluator(cls, fn: Callable, support=(0.0, math.inf), grid=None) -> "SignalSource":
        return cls(evaluator=fn, support=(float(support[0]), float(support[1])), grid=grid)


def evaluate_many(source: SignalSource, ts) -> np.ndarray:
    """Vectorized evaluation at an array of times."""
    ts = np.asarray(ts, dtype=float)
    if source.symbolic is not None:
        return np.asarray(source.symbolic(ts), dtype=float)
    if source.sampled is not None:
        sig = source.sampled
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
    support, or GRID_POINTS uniform nodes spanning support when it has none.

    Either way the nodes are strictly increasing: a support too narrow for
    GRID_POINTS distinct uniform nodes raises ValueError.
    """
    t_lo, t_hi = support
    if source.grid is not None:
        return source.grid[(source.grid >= t_lo) & (source.grid <= t_hi)]
    ts = np.linspace(t_lo, t_hi, GRID_POINTS)
    if not np.all(ts[1:] > ts[:-1]):
        raise ValueError(f"support {tuple(support)} is too narrow for {GRID_POINTS} "
                         f"distinct evaluation nodes")
    return ts


def inner_product(f: SignalSource, g: SignalSource, q: QuadratureConfig = None) -> float:
    """Quadrature approximation of the half-line inner product of f and g.

    Integration runs over the intersection of the two supports, so sampled
    signals contribute exactly their observed range.

    Known defect: on the whole half line the product of two terms with rates
    summing below 1 is undershot.  The substitution z = exp(-t) turns
    exp(-s t) into z^(s-1), singular at z = 0, which the Gauss-Legendre rule
    does not resolve: the squared norm of 10 exp(-0.1 t), 500, reads 444.9
    at the default 128 nodes and 475.7 at 1000.
    """
    t_lo = max(f.support[0], g.support[0])
    t_hi = min(f.support[1], g.support[1])
    window = None if math.isinf(t_hi) and t_lo == 0.0 else (t_lo, t_hi)

    def integrand(ts):
        return evaluate_many(f, ts) * evaluate_many(g, ts)

    try:
        return integrate_semi_infinite(integrand, q, t_window=window)
    except OutOfSupport as exc:  # pragma: no cover - guarded by the window
        raise QuadratureFailure(str(exc)) from exc


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
