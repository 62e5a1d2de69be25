"""Jacobi polynomials on [0, 1] and the orthogonal exponential basis.

The degree-n polynomial with parameters (a, b) is defined through the
Rodrigues formula

    J_n(z) = [Gamma(b) z^(1-b) (1-z)^(b-a) / Gamma(b+n)]
             * d^n/dz^n [ z^(b+n-1) (1-z)^(a+n-b) ],

orthogonal on [0, 1] against the weight w(z) = z^(b-1) (1-z)^(a-b) for
a > 0, a + 1 > b.  Expanding the n-fold derivative with the Leibniz rule
gives exact monomial coefficients

    J_n(z) = [Gamma(b)/Gamma(b+n)] * sum_k  C(n, k) (-1)^(n-k)
             fall(b+n-1, k) fall(a+n-b, n-k) z^(n-k) (1-z)^k,

where fall(x, m) is the falling factorial; no numeric differentiation and
no cancellation-prone recursion is involved, and Gamma(b)/Gamma(b+n)
reduces to 1/rise(b, n), finite whenever b avoids non-positive integers.

Substituting z = exp(-t) with a = b = 2 turns the polynomials into an
orthonormal family of exponential sums

    E_n(t) = (-1)^(n-1) sqrt(2 n^3) exp(-t) J_{n-1}(exp(-t)),

onto which any signal with integer decay rates projects exactly.
oet_analyze computes the projections and folds them back onto the rates:
the folded coefficients are the synthesis, the signal's own (rate, coeff)
terms.  Rates outside the integers are out of this basis's reach, which is
exactly the limitation the sequential decomposition avoids.

Two identities are checked numerically rather than trusted:

    d/dz J_n^(a,b)   = -(n(n+a)/b) J_{n-1}^(a+2, b+1)
    z J_n^(a,b)      = ((b-1)/(2n+a)) (J_n^(a-1,b-1) - J_{n+1}^(a-1,b-1))

(the first is stated in parts of the literature with the upper parameter
raised by one instead of two, which fails for every n >= 2 under this
normalization; the form above is symbolically exact for it).  The same
source ambiguity affects the printed diagonal norm, where only the
factorial normalization

    h_n = Gamma(n+1) Gamma(b)^2 Gamma(n+a-b+1) / ((a+2n) Gamma(a+n) Gamma(b+n))

is consistent with the sqrt(2 n^3) scaling; the Gamma(n) variant stays
available behind a flag.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import comb, gamma

import numpy as np

from .errors import GammaPole, QuadratureFailure
from .quadrature import QuadratureConfig, gauss_legendre_nodes
from .signal_core import SignalSource, SymbolicTransient, inner_product


@dataclass(frozen=True)
class JacobiParams:
    a: float
    b: float

    @property
    def orthogonality_valid(self) -> bool:
        return self.a > 0.0 and self.a + 1.0 > self.b


def _falling(x, m):
    out = 1.0
    for i in range(m):
        out *= x - i
    return out


def _rising(x, m):
    out = 1.0
    for i in range(m):
        out *= x + i
    return out


def _check_b(b, n):
    if b <= 0.0 and float(b).is_integer():
        raise GammaPole(f"b = {b} is a non-positive integer")
    if (b + n) <= 0.0 and float(b + n).is_integer():
        raise GammaPole(f"b + n = {b + n} is a non-positive integer")


def jacobi_monomial_coeffs(params: JacobiParams, n: int) -> np.ndarray:
    """Monomial coefficients of J_n, lowest power first, length n + 1."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    a, b = params.a, params.b
    _check_b(b, n)
    prefactor = 1.0 / _rising(b, n)
    coeffs = np.zeros(n + 1)
    for k in range(n + 1):
        c = (comb(n, k) * (-1.0) ** (n - k)
             * _falling(b + n - 1, k) * _falling(a + n - b, n - k) * prefactor)
        if c == 0.0:
            continue
        # distribute c * z^(n-k) * (1-z)^k
        for j in range(k + 1):
            coeffs[n - k + j] += c * comb(k, j) * (-1.0) ** j
    return coeffs


def jacobi_eval(coeffs, z):
    """Evaluate a monomial coefficient row (lowest power first)."""
    return np.polynomial.polynomial.polyval(np.asarray(z, dtype=float), coeffs)


def check_derivative_recurrence(params: JacobiParams, n: int, sample_points) -> float:
    """Max |d/dz J_n^(a,b) + (n(n+a)/b) J_{n-1}^(a+2,b+1)| over the points."""
    if n < 1:
        raise ValueError("derivative recurrence needs n >= 1")
    if params.b == 0.0:
        raise GammaPole("b = 0 has no valid derivative recurrence factor")
    z = np.asarray(sample_points, dtype=float)
    lhs = jacobi_eval(np.polynomial.polynomial.polyder(jacobi_monomial_coeffs(params, n)), z)
    factor = n * (n + params.a) / params.b
    partner = JacobiParams(params.a + 2.0, params.b + 1.0)
    rhs = -factor * jacobi_eval(jacobi_monomial_coeffs(partner, n - 1), z)
    return float(np.abs(lhs - rhs).max())


def check_multiplication_recurrence(params: JacobiParams, n: int, sample_points) -> float:
    """Max |z J_n^(a,b) - ((b-1)/(2n+a)) (J_n^(a-1,b-1) - J_{n+1}^(a-1,b-1))|."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    if 2 * n + params.a == 0.0:
        raise ValueError("2n + a must be nonzero")
    z = np.asarray(sample_points, dtype=float)
    lhs = z * jacobi_eval(jacobi_monomial_coeffs(params, n), z)
    lower = JacobiParams(params.a - 1.0, params.b - 1.0)
    rhs = ((params.b - 1.0) / (2 * n + params.a)
           * (jacobi_eval(jacobi_monomial_coeffs(lower, n), z)
              - jacobi_eval(jacobi_monomial_coeffs(lower, n + 1), z)))
    return float(np.abs(lhs - rhs).max())


def orthogonality_integral(params: JacobiParams, m: int, n: int,
                           q: QuadratureConfig = None) -> float:
    """Weighted product integral of J_m and J_n over [0, 1]."""
    if not params.orthogonality_valid:
        raise ValueError(f"(a, b) = ({params.a}, {params.b}) violates a > 0, a + 1 > b")
    cfg = q or QuadratureConfig()
    z, w = gauss_legendre_nodes(cfg.nodes, 0.0, 1.0)
    cm = jacobi_monomial_coeffs(params, m)
    cn = jacobi_monomial_coeffs(params, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = z ** (params.b - 1.0) * (1.0 - z) ** (params.a - params.b)
    vals = jacobi_eval(cm, z) * jacobi_eval(cn, z) * weight
    if not np.all(np.isfinite(vals)):
        raise QuadratureFailure("orthogonality integrand non-finite at a node")
    return float(np.dot(w, vals))


def orthogonality_closed_form(params: JacobiParams, n: int,
                              factorial_normalization: bool = True) -> float:
    """Closed-form diagonal norm.  n >= 1 only; the n = 0 case hits the
    Gamma pole of the printed expression.

    factorial_normalization=True uses Gamma(n+1), the variant consistent
    with the sqrt(2 n^3) basis scaling (ratio against the Gamma(n) variant
    is exactly n).
    """
    if n < 1:
        raise GammaPole("closed-form norm is indexed from n = 1")
    a, b = params.a, params.b
    for arg in (b, n + a - b + 1.0, a + n, b + n):
        if arg <= 0.0 and float(arg).is_integer():
            raise GammaPole(f"gamma argument {arg} is a non-positive integer")
    lead = gamma(n + 1) if factorial_normalization else gamma(n)
    return (lead * gamma(b) ** 2 * gamma(n + a - b + 1.0)
            / ((a + 2.0 * n) * gamma(a + n) * gamma(b + n)))


# ---------------------------------------------------------------------------
# orthogonal exponential basis (a = b = 2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExponentialBasis:
    """Coefficient table of the orthonormal exponential family.

    coeff_table[n - 1][k - 1] multiplies exp(-k t) inside the n-th element,
    1 <= k <= n.  Element n is sqrt(2 n^3) exp(-t) J_{n-1}(exp(-t)) with the
    alternating sign folded in.  The table alone fixes the basis: max_index
    is its length, and elements holds one symbolic source per row, built
    with the basis, so every projection onto it reads the same sources.  A
    basis compares by identity.
    """

    coeff_table: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(
            SignalSource.from_symbolic(SymbolicTransient(tuple(enumerate(row, 1))))
            for row in self.coeff_table))

    @property
    def max_index(self) -> int:
        return len(self.coeff_table)

    def element(self, n: int) -> SymbolicTransient:
        if not 1 <= n <= self.max_index:
            raise ValueError(f"element index {n} outside 1..{self.max_index}")
        return self.elements[n - 1].symbolic


@functools.lru_cache(maxsize=None)
def _element_row(n: int) -> np.ndarray:
    """Coefficient row of element n, read-only; built once, and kept also
    when it has left the float range, so that a refused index is refused
    again without building a row."""
    row = (-1.0) ** (n - 1) * math.sqrt(2.0 * n ** 3) * jacobi_monomial_coeffs(
        JacobiParams(2.0, 2.0), n - 1)
    row.flags.writeable = False
    return row


@functools.lru_cache(maxsize=None, typed=True)
def build_exponential_basis(max_index: int) -> ExponentialBasis:
    """Table the first max_index orthonormal exponential elements.

    The coefficients grow geometrically and leave the float range at
    element 136; a max_index that reaches that far raises ValueError there,
    before any later (slower, larger) row is built.  A basis is built once
    per max_index, with its element sources, and returned again on every
    later call, its rows read-only; only 1..135 build.  Each row is built
    once, whatever max_index asks for it, so a refused max_index builds no
    row after the first call that reached element 136.
    """
    if max_index < 1:
        raise ValueError("max_index must be at least 1")
    rows = []
    for n in range(1, max_index + 1):
        rows.append(_element_row(n))
        if not np.all(np.isfinite(rows[-1])):
            raise ValueError(f"element {n} of the exponential basis overflows the float "
                             f"range; the basis holds at most {n - 1} elements")
    return ExponentialBasis(tuple(rows))


@dataclass(frozen=True, eq=False)
class OetCoefficients:
    """Projections onto the basis elements plus the folded per-rate coefficients."""
    projections: np.ndarray
    exponential_coeffs: np.ndarray


def fold_exponential_coeffs(projections, basis: ExponentialBasis) -> np.ndarray:
    """coeff of exp(-k t) implied by the projections: sum_n p_n * c[n][k]."""
    projections = np.asarray(projections, dtype=float)
    if len(projections) > basis.max_index:
        raise ValueError("more projections than basis elements")
    out = np.zeros(basis.max_index)
    for n, p in enumerate(projections, start=1):
        row = basis.coeff_table[n - 1]
        out[: n] += p * row
    return out


def oet_analyze(source: SignalSource, basis: ExponentialBasis,
                q: QuadratureConfig = None) -> OetCoefficients:
    """Project a signal onto the basis and fold back to per-rate coefficients.

    One inner_product call takes every projection: a signal that is not
    symbolic on the whole half line is read once, at one set of quadrature
    nodes, and each projection keeps the bits of its own product with the
    element."""
    projections = inner_product(source, basis.elements, q)
    with np.errstate(over="ignore", invalid="ignore"):
        folded = fold_exponential_coeffs(projections, basis)
    if not np.all(np.isfinite(folded)):
        raise QuadratureFailure("exponential coefficients overflow the float range")
    return OetCoefficients(projections=projections, exponential_coeffs=folded)

