"""Biorthogonal extraction functionals over a known rate set.

Two families, one mechanism.  Working against decaying exponentials with a
known ascending rate list, the n-th rate functional strips the n-1 terms
already extracted, reweights by exp(rate_n * t), and takes the value at
the far end of the window, so that applied to a bare exponential it returns
1 on the matching rate and 0 otherwise.  The monomial family does the same
for polynomials without constant term on (0, 1]: strip the lower monomials,
divide by z^n, take the limit toward 0, which reads off the n-th Taylor
coefficient exactly.  Substituting z = exp(-t) carries one family onto the
other, so both must produce identical values on corresponding inputs; the
correspondence check verifies exactly that.

The extraction order is forced: functional n references the values of
functionals 1..n-1, and FunctionalLedger holds that recursion state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Diverging, SignalVanished
from .signal_core import SignalSource, SymbolicTransient, evaluate_many, evaluation_grid
from .tail_limits import (MIN_WINDOW_POINTS, TailFitConfig, _reweighted, _validate_support,
                          estimate_coefficient, scan_horizons, shrink_support, tail_slice)

# a stripped residual this small everywhere, relative to the input's peak,
# is numerically zero: its content is the rounding left over from earlier
# subtractions
RESIDUAL_VANISH_TOL = 1e-9


@dataclass(frozen=True)
class PolynomialNoConstant:
    """Polynomial in the span of {z, z^2, ...}: coeffs[k] multiplies z^(k+1)."""

    coeffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ValueError("coefficients must be finite")

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        for k in range(len(self.coeffs) - 1, -1, -1):
            out = z * (out + self.coeffs[k])
        return out  # Horner on z * (c0 + z * (c1 + ...)), zero at z = 0

    def coefficient(self, power: int) -> float:
        """Coefficient of z^power (power >= 1)."""
        if power < 1:
            raise ValueError("powers start at 1; there is no constant term")
        if power > len(self.coeffs):
            return 0.0
        return self.coeffs[power - 1]

    def to_transient(self) -> SymbolicTransient:
        """The signal f(exp(-t)): integer rates 1..degree."""
        return SymbolicTransient(tuple((float(k + 1), c) for k, c in enumerate(self.coeffs)))


@dataclass
class FunctionalLedger:
    """Known rate list plus the functional values extracted so far, in order."""

    known_rates: tuple
    extracted: list = field(default_factory=list)

    def __post_init__(self):
        rates = tuple(float(r) for r in self.known_rates)
        if not all(math.isfinite(r) and r > 0.0 for r in rates):
            raise ValueError(f"known rates must be finite and positive, got {rates}")
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValueError("known rates must be strictly increasing")
        self.known_rates = rates

    def require_index(self, n: int):
        if not 1 <= n <= len(self.known_rates):
            raise ValueError(f"index {n} outside the known rate list (size {len(self.known_rates)})")
        if len(self.extracted) != n - 1:
            raise ValueError(
                f"functional {n} needs exactly {n - 1} prior extractions, "
                f"ledger holds {len(self.extracted)}")


def _strip_symbolic(signal: SymbolicTransient, rates, values) -> SymbolicTransient:
    terms = dict(signal.terms)
    for rate, value in zip(rates, values):
        terms[rate] = terms.get(rate, 0.0) - value
    return SymbolicTransient(tuple(sorted((r, c) for r, c in terms.items())))


def apply_rate_functional(n: int, source: SignalSource, ledger: FunctionalLedger,
                          cfg: TailFitConfig = None, support=None) -> float:
    """Value of the n-th extraction functional; appends it to the ledger.

    Symbolic inputs whose rates all appear in the ledger's known list are
    handled with exact term arithmetic.  Anything else is read once on its
    evaluation grid, goes through the numeric tail estimate, and needs an
    explicit finite support on which it evaluates to finite values.
    Raises Diverging when the stripped residual still holds a rate slower
    than rate_n, which means the promised extraction order was violated.
    """
    ledger.require_index(n)
    target = ledger.known_rates[n - 1]

    if source.symbolic is not None:
        sig = source.symbolic
        known = set(ledger.known_rates)
        if all(r in known for r, _ in sig.terms):
            residual = _strip_symbolic(sig, ledger.known_rates[: n - 1], ledger.extracted)
            value = 0.0
            for rate, coeff in residual.terms:
                if coeff == 0.0:
                    continue
                if rate < target:
                    raise Diverging(
                        f"residual keeps un-stripped rate {rate} below target {target}")
                if rate == target:
                    value = coeff
                break
            ledger.extracted.append(value)
            return value

    if support is None:
        raise ValueError("numeric evaluation needs an explicit (t_lo, t_hi) support")
    cfg = cfg or TailFitConfig(fit_order="richardson_1")

    support = _validate_support(support)
    ts = evaluation_grid(source, support)
    if len(ts) < MIN_WINDOW_POINTS:
        raise ValueError("support holds too few samples for the configured window")
    values = evaluate_many(source, ts)
    stripped = values.copy()
    # an overflow here leaves an inf for the finite check below to refuse
    with np.errstate(over="ignore", invalid="ignore"):
        for rate, value in zip(ledger.known_rates[: n - 1], ledger.extracted):
            stripped -= value * np.exp(-rate * ts)
    if not np.all(np.isfinite(stripped)):
        raise ValueError("the signal less the extracted terms is not finite on the "
                         "evaluation grid")

    # a residual below the vanish tolerance everywhere is the rounding left
    # over from the earlier subtractions, not signal
    scale = float(np.abs(values).max())
    if scale == 0.0 or float(np.abs(stripped).max()) <= RESIDUAL_VANISH_TOL * scale:
        ledger.extracted.append(0.0)
        return 0.0

    try:
        value = _scanned_coefficient(ts, stripped, target, support[0], cfg)
    except SignalVanished:
        value = 0.0
    ledger.extracted.append(float(value))
    return float(value)


def _scanned_coefficient(ts, values, rate, t_lo, cfg):
    """Coefficient estimate over several shrunk horizons of the residual
    with these values on the ascending nodes ts of a support from t_lo.

    The reweighted tail is constant where neither the faster terms (early)
    nor the leftovers of the stripped slower terms (late) intrude, so the
    window with the flattest reweighted values wins.
    """
    def fit(t_hi):
        value = estimate_coefficient(ts, values, rate, (t_lo, t_hi), cfg)
        _, window = tail_slice(ts, t_lo, t_hi)
        v = _reweighted(ts[window], values[window], rate)
        mag = np.abs(v)
        # the score is scale-free, and the sums of squares in np.std overflow
        # near the top of the float range, so large values are scored scaled
        # by a power of two, which is exact
        peak = float(mag.max())
        if peak > 2.0 ** 400:
            shift = -math.frexp(peak)[1]
            v, mag = np.ldexp(v, shift), np.ldexp(mag, shift)
        return float(np.std(v) / max(mag.mean(), 1e-300)), value

    ends = shrink_support(ts, values, (1e-6, 1e-8, 1e-10, 1e-12))
    return scan_horizons(fit, ends, t_lo)


def apply_monomial_functional(n: int, poly: PolynomialNoConstant,
                              ledger: FunctionalLedger = None) -> float:
    """n-th monomial functional: strip lower terms, divide by z^n, limit z -> 0.

    For polynomial inputs the stripping is exact coefficient arithmetic and
    the limit is simply the coefficient of z^n.  The value is appended when
    a ledger is supplied.
    """
    if n < 1:
        raise ValueError("functional index starts at 1")
    if ledger is not None:
        if len(ledger.extracted) != n - 1:
            raise ValueError(
                f"functional {n} needs exactly {n - 1} prior extractions, "
                f"ledger holds {len(ledger.extracted)}")
        lower = list(ledger.extracted)
    else:
        lower = [poly.coefficient(k) for k in range(1, n)]
    stripped = list(poly.coeffs)
    for k, value in enumerate(lower, start=1):
        if k <= len(stripped):
            stripped[k - 1] -= value
    value = stripped[n - 1] if n <= len(stripped) else 0.0
    if ledger is not None:
        ledger.extracted.append(float(value))
    return float(value)


def _functional_source(transient: SymbolicTransient, mode: str, horizon):
    """(source, support) a functional driver reads transient through: its exact
    terms in mode "symbolic", or in mode "numeric" the transient itself as a
    black-box evaluator on [0, horizon]."""
    if mode == "symbolic":
        return SignalSource.from_symbolic(transient), None
    if mode == "numeric":
        if horizon is None:
            raise ValueError("numeric mode needs a horizon")
        support = (0.0, float(horizon))
        return SignalSource.from_evaluator(transient, support=support), support
    raise ValueError(f"unknown mode {mode!r}")


def correspondence_check(poly: PolynomialNoConstant, horizon: float = None,
                         mode: str = "symbolic", cfg: TailFitConfig = None) -> float:
    """Max over n of |rate functional on f(exp(-t)) - monomial functional on f|.

    mode "symbolic" runs the exact term arithmetic; "numeric" samples the
    transient on [0, horizon] and uses the tail estimates.
    """
    if poly.degree == 0:
        return 0.0
    transient = poly.to_transient()
    known = tuple(float(k) for k in range(1, poly.degree + 1))
    source, support = _functional_source(transient, mode, horizon)

    rate_ledger = FunctionalLedger(known_rates=known)
    mono_ledger = FunctionalLedger(known_rates=known)
    worst = 0.0
    for n in range(1, poly.degree + 1):
        r_val = apply_rate_functional(n, source, rate_ledger, cfg=cfg, support=support)
        q_val = apply_monomial_functional(n, poly, mono_ledger)
        worst = max(worst, abs(r_val - q_val))
    return worst


def rate_functional_matrix(rates, mode: str = "symbolic", horizon: float = None,
                           cfg: TailFitConfig = None) -> np.ndarray:
    """Matrix [functional_n applied to exp(-rate_k t)]; identity when all is well."""
    rates = tuple(float(r) for r in rates)
    size = len(rates)
    matrix = np.zeros((size, size))
    for k, rate_k in enumerate(rates):
        ledger = FunctionalLedger(known_rates=rates)
        source, support = _functional_source(SymbolicTransient(((rate_k, 1.0),)), mode, horizon)
        for n in range(1, size + 1):
            matrix[n - 1, k] = apply_rate_functional(n, source, ledger, cfg=cfg, support=support)
    return matrix


def monomial_functional_matrix(size: int) -> np.ndarray:
    """Matrix [functional_n applied to z^k] for n, k = 1..size; exactly identity."""
    matrix = np.zeros((size, size))
    for k in range(1, size + 1):
        monomial = PolynomialNoConstant(tuple(1.0 if j == k else 0.0 for j in range(1, k + 1)))
        ledger = FunctionalLedger(known_rates=tuple(float(j) for j in range(1, size + 1)))
        for n in range(1, size + 1):
            matrix[n - 1, k - 1] = apply_monomial_functional(n, monomial, ledger)
    return matrix
