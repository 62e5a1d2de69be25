"""Gauss-Legendre quadrature on [0, 1] and on the half line.

Integrals over [0, inf) are computed through the substitution z = exp(-t),
which maps the half line onto (0, 1] and turns every decaying exponential
exp(-k t) into the monomial z^k.  Fixed-order Gauss-Legendre on [eps, 1]
is then exact (to rounding) for any integrand that is polynomial in z,
which covers all integer-rate inner products used by the orthogonal
exponential transform.
"""

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureFailure

# left endpoint of the z interval: exp(-t) never reaches 0, so the cutoff
# stands in for z = 0
LOWER_CUTOFF = 1e-300
# most nodes a rule may have: leggauss eigen-decomposes an n x n matrix, which
# takes 0.12 s and 15 MB at 1000 nodes on one core of a 2-CPU Xeon host, and
# grows as n**3 in time and n**2 in memory
MAX_NODES = 1000


@dataclass(frozen=True)
class QuadratureConfig:
    """Node count of the half-line substitution rule.

    nodes: Gauss-Legendre order, exact for z-polynomials of degree
        2*nodes - 1; an integer from 2 to MAX_NODES.
    """

    nodes: int = 128

    def __post_init__(self):
        if not isinstance(self.nodes, numbers.Integral) or isinstance(self.nodes, bool):
            raise ValueError(f"nodes must be an integer, got {self.nodes!r}")
        if not 2 <= self.nodes <= MAX_NODES:
            raise ValueError(f"nodes must be from 2 to {MAX_NODES}, got {self.nodes}")


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

    fn must accept a numpy array of times.  It returns either one value per
    time, and the integral is one float, or one row of values per integrand,
    and the result is an array holding one integral per row; each row is
    summed on its own, so it keeps the bits it would have as a lone
    integrand.  All rows share one set of nodes and one call of fn.

    t_window, when given as (t_lo, t_hi), restricts the integration to that
    time range; this is how finitely supported (sampled) signals take part
    without extrapolation.  An empty range integrates to 0.0 without calling
    fn, whatever fn would return.
    """
    cfg = config or QuadratureConfig()
    z_lo, z_hi = LOWER_CUTOFF, 1.0
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
        totals = [float(np.dot(w, row)) for row in (vals / z).reshape(-1, len(w))]
    if not all(math.isfinite(total) for total in totals):
        raise QuadratureFailure("integral overflows the float range")
    return np.array(totals) if vals.ndim == 2 else totals[0]
