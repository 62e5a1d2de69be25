"""Gauss-Legendre quadrature on [0, 1] and on the half line.

Integrals over [0, inf) are computed through the substitution z = exp(-t),
which maps the half line onto (0, 1] and turns every decaying exponential
exp(-k t) into the monomial z^k.  Fixed-order Gauss-Legendre on [eps, 1]
is then exact (to rounding) for any integrand that is polynomial in z,
which covers all integer-rate inner products used by the orthogonal
exponential transform.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureFailure


@dataclass(frozen=True)
class QuadratureConfig:
    """Node count and lower cutoff for the half-line substitution rule.

    nodes: Gauss-Legendre order, exact for z-polynomials of degree
        2*nodes - 1.
    lower_cutoff: left endpoint of the z interval; exp(-t) never reaches 0,
        so the cutoff stands in for z = 0 at the smallest positive double.
    """

    nodes: int = 128
    lower_cutoff: float = 1e-300

    def __post_init__(self):
        if self.nodes < 2:
            raise ValueError(f"nodes must be >= 2, got {self.nodes}")
        if not 0.0 < self.lower_cutoff < 1.0:
            raise ValueError("lower_cutoff must lie in (0, 1)")


@lru_cache(maxsize=32)
def _leggauss(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gauss_legendre_nodes(order, a=0.0, b=1.0):
    """Nodes and weights for the interval [a, b]."""
    x, w = _leggauss(order)
    half = 0.5 * (b - a)
    return half * x + 0.5 * (b + a), half * w


def integrate_semi_infinite(fn, config=None, t_window=None):
    """Integrate fn(t) over [0, inf) via z = exp(-t).

    fn must accept a numpy array of times.  t_window, when given as
    (t_lo, t_hi), restricts the integration to that time range; this is how
    finitely supported (sampled) signals take part without extrapolation.
    """
    cfg = config or QuadratureConfig()
    z_lo, z_hi = cfg.lower_cutoff, 1.0
    if t_window is not None:
        t_lo, t_hi = t_window
        if t_hi <= t_lo:
            return 0.0
        z_lo = max(z_lo, float(np.exp(-t_hi)))
        z_hi = min(z_hi, float(np.exp(-min(t_lo, 700.0))))
    if z_hi <= z_lo:
        return 0.0
    z, w = gauss_legendre_nodes(cfg.nodes, z_lo, z_hi)
    t = -np.log(z)
    # values near the float limit overflow here; the checks below report it
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(fn(t), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise QuadratureFailure("integrand returned a non-finite value at a quadrature node")
        total = float(np.dot(w, vals / z))
    if not math.isfinite(total):
        raise QuadratureFailure("integral overflows the float range")
    return total
