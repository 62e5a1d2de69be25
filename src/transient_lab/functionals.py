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

The extraction order is forced: functional n strips the values of
functionals 1..n-1, so rate_functionals computes all of them, in order, on
one source.  Read numerically they carry one residual: each extracted term
is stripped once, after the functional that read it.  On a polynomial the
monomial strip removes each lower coefficient exactly, so monomial
functional n is its coefficient of z^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SignalVanished
from .signal_core import SignalSource, SymbolicTransient, evaluate_many, evaluation_grid
from .tail_limits import (TailFitConfig, _reweighted, _scaled_tail, _validate_support,
                          estimate_coefficient, require_tail_nodes, scan_horizons,
                          shrink_support)

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


def rate_functionals(source: SignalSource, rates, cfg: TailFitConfig = None,
                     support=None) -> list:
    """Values of the extraction functionals 1..len(rates) on source, in order.

    rates is the known rate list: finite, positive and strictly increasing.
    Functional n strips the terms at rates 1..n-1 with the values of
    functionals 1..n-1, then reads the coefficient at rate n.  A symbolic
    source whose rates all lie in rates is read exactly: stripping a term
    with its own coefficient leaves exactly zero, so functional n is the
    coefficient at rate n, or 0.0 where there is none.  Any other source is
    read once on its evaluation grid over support, which must be given and
    finite, and every functional is a numeric tail estimate on those values.
    """
    rates = tuple(float(r) for r in rates)
    if not all(math.isfinite(r) and r > 0.0 for r in rates):
        raise ValueError(f"known rates must be finite and positive, got {rates}")
    if any(b <= a for a, b in zip(rates, rates[1:])):
        raise ValueError("known rates must be strictly increasing")

    sig = source.symbolic
    if sig is not None and all(r in rates for r, _ in sig.terms):
        coeffs = dict(sig.terms)
        # a coefficient of -0.0 reads as 0.0, as a term that is absent
        return [coeffs.get(rate, 0.0) or 0.0 for rate in rates]

    if support is None:
        raise ValueError("numeric evaluation needs an explicit (t_lo, t_hi) support")
    support = _validate_support(support)
    ts = evaluation_grid(source, support)
    require_tail_nodes(ts, support)
    values = evaluate_many(source, ts)
    cfg = cfg or TailFitConfig(fit_order="richardson_1")
    scale = float(np.abs(values).max())
    residual = values.copy()
    extracted = []
    for n, rate in enumerate(rates):
        if n:
            # strip the term the previous functional read off; an overflow
            # leaves an inf for the finite check below to refuse
            with np.errstate(over="ignore", invalid="ignore"):
                residual -= extracted[-1] * np.exp(-rates[n - 1] * ts)
        if not np.all(np.isfinite(residual)):
            raise ValueError("the signal less the extracted terms is not finite on the "
                             "evaluation grid")
        extracted.append(_scanned_coefficient(ts, residual, rate, support[0], cfg, scale))
    return extracted


def _scanned_coefficient(ts, values, rate, t_lo, cfg, scale):
    """The functional at rate on the residual with these values on the
    ascending nodes ts of a support from t_lo: its coefficient estimate over
    several shrunk horizons.

    A residual below the vanish tolerance of scale, the input's peak, is the
    rounding left over from the earlier subtractions and reads 0.0.  The
    reweighted tail is constant where neither the faster terms (early) nor
    the leftovers of the stripped slower terms (late) intrude, so the window
    with the flattest reweighted values wins.  Each window is reweighted once
    for its score; only the winner's coefficient is estimated.
    """
    if scale == 0.0 or float(np.abs(values).max()) <= RESIDUAL_VANISH_TOL * scale:
        return 0.0

    def fit(t_hi):
        # the samples the coefficient over this horizon averages; a horizon
        # whose coefficient estimate would raise Diverging is refused here
        v = _reweighted(ts, values, rate, (t_lo, t_hi))
        _scaled_tail(v)
        mag = np.abs(v)
        # the score is scale-free, and the sums of squares in np.std overflow
        # near the top of the float range, so large values are scored scaled
        # by a power of two, which is exact
        peak = float(mag.max())
        if peak > 2.0 ** 400:
            shift = -math.frexp(peak)[1]
            v, mag = np.ldexp(v, shift), np.ldexp(mag, shift)
        return float(np.std(v) / max(mag.mean(), 1e-300)), t_hi

    try:
        ends = shrink_support(ts, values, (1e-6, 1e-8, 1e-10, 1e-12))
        t_hi = scan_horizons(fit, ends, t_lo)
    except SignalVanished:
        return 0.0
    return float(estimate_coefficient(ts, values, rate, (t_lo, t_hi), cfg))


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

    r_vals = rate_functionals(source, known, cfg, support)
    worst = 0.0
    for n, r_val in enumerate(r_vals, start=1):
        worst = max(worst, abs(r_val - poly.coefficient(n)))
    return worst


def rate_functional_matrix(rates, mode: str = "symbolic", horizon: float = None,
                           cfg: TailFitConfig = None) -> np.ndarray:
    """Matrix [functional_n applied to exp(-rate_k t)]; identity when all is well."""
    rates = tuple(float(r) for r in rates)
    size = len(rates)
    matrix = np.zeros((size, size))
    for k, rate_k in enumerate(rates):
        source, support = _functional_source(SymbolicTransient(((rate_k, 1.0),)), mode, horizon)
        matrix[:, k] = rate_functionals(source, rates, cfg, support)
    return matrix


def monomial_functional_matrix(size: int) -> np.ndarray:
    """Matrix [functional_n applied to z^k] for n, k = 1..size; exactly identity."""
    matrix = np.zeros((size, size))
    for k in range(1, size + 1):
        monomial = PolynomialNoConstant(tuple(1.0 if j == k else 0.0 for j in range(1, k + 1)))
        matrix[:, k - 1] = [monomial.coefficient(n) for n in range(1, size + 1)]
    return matrix
