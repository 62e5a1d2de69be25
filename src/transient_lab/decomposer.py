"""Sequential extraction of decay rates and coefficients.

The loop is the same in both modes: read off the slowest remaining rate,
read off its coefficient, subtract the identified term, repeat.  Exact mode
runs it on a symbolic term list where every step is literal arithmetic.
Numeric mode runs it on samples through the tail estimators, with three
policies the idealized loop does not need:

* horizon placement: each iteration fits over the tail window of several
  candidate horizons (the residual trimmed at successively deeper relative
  floors, and at its measured noise level) and keeps the fit whose
  log-magnitude residual is smallest.  tail_limits.shrink_support trims and
  tail_limits.scan_horizons picks, the same two steps the extraction
  functionals use.  A floor's end past the noise end is not fitted, since
  the tail beyond it is noise;
* stopping: residual below a relative floor, a term budget, or a rate that
  collides with one already extracted;
* cyclic re-estimation: after each extraction, every held term is
  re-estimated against the signal minus the other terms.  A sweep feeds
  each term the others' latest values, so the cross-contamination of the
  estimates shrinks multiplicatively, which is what keeps later (faster,
  smaller) terms recoverable in double precision.

Numeric mode evaluates the input once, on its evaluation grid (the input's
own nodes inside the support, or GRID_POINTS uniform nodes when it has
none; see signal_core.evaluation_grid).  Every residual is an array of
values on that grid, and the tail estimators take the grid and that array
as they are, so nothing is read or checked again.  Each held term
keeps its own column, coeff * exp(-rate * grid), computed once when the
term is estimated, so a residual costs one subtraction per held term.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import Diverging, NonDecaying, SignalVanished
from .signal_core import SignalSource, SymbolicTransient, evaluate_many, evaluation_grid
from .tail_limits import (TailFitConfig, TailRead, _validate_support, estimate_coefficient,
                          estimate_rate, require_tail_nodes, scan_horizons, shrink_support,
                          tail_slice)

TERMINATION_REASONS = ("residual_floor", "max_terms", "signal_vanished", "rate_collision")

# stop once the tail sup norm of the residual drops below this fraction of
# the original signal's tail sup norm over the same window: 1e-8 sits safely
# above the double-precision leftovers of swept subtractions while staying
# far below any honest term
RESIDUAL_FLOOR = 1e-8
# a new rate closer than this to a held one is a rate collision
RATE_MERGE_TOL = 1e-3
# candidate relative floors for the per-iteration horizon trim; the fit with
# the smallest log-magnitude residual wins
HORIZON_FLOORS = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
# extra re-estimation sweeps after extraction ends
REFINE_SWEEPS = 2


@dataclass(frozen=True)
class StoppingPolicy:
    """Term budget of a numeric decomposition.

    max_terms: the most terms extracted before the loop stops with reason
        "max_terms"; a positive integer.  The other stopping rules (the
        residual floor, a rate collision, a vanished signal) use the fixed
        constants above.
    """

    max_terms: int = 16

    def __post_init__(self):
        if not isinstance(self.max_terms, numbers.Integral) or isinstance(self.max_terms, bool):
            raise ValueError(f"max_terms must be an integer, got {self.max_terms!r}")
        if self.max_terms < 1:
            raise ValueError("max_terms must be positive")


@dataclass(frozen=True)
class TermDiagnostics:
    rate_residual_rms: float
    window: Optional[tuple]
    mode: str


@dataclass(frozen=True)
class DecompositionResult:
    terms: tuple                      # ((rate, coeff), ...) rates ascending
    diagnostics: tuple                # TermDiagnostics per term
    terminal_residual_norm: float
    termination_reason: str
    flagged: Optional[str] = None
    iteration_tail_norms: tuple = ()  # residual sup norm per iteration, fixed window

    def __post_init__(self):
        rates = [r for r, _ in self.terms]
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValueError("recovered rates must be strictly increasing")
        if self.terminal_residual_norm < 0.0:
            raise ValueError("terminal_residual_norm must be non-negative")
        if self.termination_reason not in TERMINATION_REASONS:
            raise ValueError(f"unknown termination reason {self.termination_reason!r}")


def decompose_exact(signal: SymbolicTransient) -> DecompositionResult:
    """Run the extraction loop on a symbolic signal with exact arithmetic.

    Requires a canonical signal (nonzero coefficients, which the type
    already keeps sorted).  Each pass reads off the slowest remaining term
    and subtracts it with its own coefficient, which leaves c - c == 0.0
    for every finite c and so removes exactly that term: the passes read
    the input's terms in order, and the terms come back verbatim.
    """
    if not signal.is_canonical:
        raise ValueError("decompose_exact needs a canonical signal; call canonicalize() first")
    terms = signal.terms
    diags = tuple(TermDiagnostics(rate_residual_rms=0.0, window=None, mode="exact")
                  for _ in terms)
    return DecompositionResult(
        terms=terms,
        diagnostics=diags,
        terminal_residual_norm=0.0,
        termination_reason="signal_vanished",
        iteration_tail_norms=tuple(abs(c) for _, c in terms),
    )


def _noise_level(values) -> float:
    """Robust noise scale from fourth differences of the trailing half.

    The trailing half is where the transient has decayed, so the smooth
    contribution O(x * (rate*step)^4) is negligible there while i.i.d.
    noise passes through fourth differences with variance 70."""
    tail = np.asarray(values)[len(values) // 2:]
    if len(tail) < 9:
        return 0.0
    fourth = np.diff(tail, n=4)
    mad = float(np.median(np.abs(fourth - np.median(fourth))))
    return mad / (0.6745 * math.sqrt(70.0))


class _Term(NamedTuple):
    """One held term and the rate fit that produced it."""
    rate: float
    coeff: float
    rms: float                # log-magnitude rms of the winning rate fit
    window: tuple             # that fit's (t_start, t_end)
    column: np.ndarray        # coeff * exp(-rate * grid), computed once


class _NumericState:
    """Grid-resident bookkeeping for one numeric decomposition.

    The input is evaluated once, on self.grid; every residual is the array
    base_values minus the held terms' columns on that grid, and nothing else.
    """

    def __init__(self, source, support, cfg):
        self.cfg = cfg
        self.t_lo, self.t_hi = _validate_support(support)
        self.grid = evaluation_grid(source, support)
        require_tail_nodes(self.grid, (self.t_lo, self.t_hi))
        self.base_values = evaluate_many(source, self.grid)
        if not np.all(np.isfinite(self.base_values)):
            raise ValueError("signal is not finite on the evaluation grid")
        self.noise_sigma = _noise_level(self.base_values)
        self.terms = []          # [_Term], rates ascending
        # the grid-side block statistics of each fit window, shared by the
        # tail reads of every residual (tail_limits.TailRead)
        self.block_memo = {}

    # -- residual bookkeeping -------------------------------------------

    def residual_values(self, skip=None):
        """Base values minus every held term except the one at index skip.

        Raises Diverging when that overflows: the held terms then oppose the
        input near the top of the float range instead of cancelling it.
        """
        out = self.base_values.copy()
        try:
            # numpy reads its overflow flag after each subtraction anyway;
            # raising on it spares a finite check's pass over the values
            with np.errstate(over="raise"):
                for i, term in enumerate(self.terms):
                    if i != skip:
                        out -= term.column
        except FloatingPointError:
            raise Diverging("the signal less the held terms overflows") from None
        return out

    def tail_window(self, values):
        """Slice of the grid in the tail window over the trimmed horizon of
        these values, or None when they are zero everywhere."""
        try:
            t_hi, = shrink_support(self.grid, values, (RESIDUAL_FLOOR,))
        except SignalVanished:
            return None
        return tail_slice(self.grid, self.t_lo, t_hi)[1]

    def floor_hit(self, values, window):
        """Whether these values sit below the residual floor over window, their
        tail_window, which the caller has already computed."""
        if window is None:
            return True
        sup_resid = float(np.abs(values[window]).max())
        sup_base = float(np.abs(self.base_values[window]).max())
        return sup_resid < RESIDUAL_FLOOR * sup_base

    # -- estimation ------------------------------------------------------

    def estimate_term(self, values):
        """Best _Term for the residual with these grid values.

        Fits the trailing window of each trimmed horizon and keeps the rate
        fit whose log-magnitude residual is smallest; the coefficient is then
        read off the winning window.  With a measured noise level, a floor's
        end past the noise end is not fitted: the tail there is noise, whose
        log-magnitude is no decay.  Every fit takes one TailRead of the
        values, so they are read once for the whole scan.
        """
        ends = shrink_support(self.grid, values, HORIZON_FLOORS, self.noise_sigma)
        if len(ends) > len(HORIZON_FLOORS):
            ends = [t_hi for t_hi in ends if t_hi <= ends[-1]]
        read = TailRead(self.grid, values, self.block_memo)

        def fit(t_hi):
            est = estimate_rate(self.grid, values, (self.t_lo, t_hi), self.cfg, read=read)
            # a log-magnitude spread beyond 0.5 means the window straddles a
            # noise floor or a sign flip, not an exponential
            if est.residual_rms > 0.5:
                return None
            return est.residual_rms, est

        best = scan_horizons(fit, ends, self.t_lo)
        coeff = estimate_coefficient(self.grid, values, best.rate, (self.t_lo, best.window[1]),
                                     self.cfg, read=read)
        return _Term(best.rate, coeff, best.residual_rms, best.window,
                     coeff * np.exp(-best.rate * self.grid))

    def collides(self, rate, skip=None):
        return any(abs(rate - term.rate) < RATE_MERGE_TOL
                   for i, term in enumerate(self.terms) if i != skip)

    def sweep(self):
        """Re-estimate every held term against the signal minus the others."""
        for j in range(len(self.terms)):
            try:
                term = self.estimate_term(self.residual_values(skip=j))
            except (SignalVanished, NonDecaying, Diverging):
                continue
            if not self.collides(term.rate, skip=j):
                self.terms[j] = term
        self.terms.sort(key=lambda held: held.rate)

    def prune(self):
        """Drop terms whose removal already satisfies the residual floor."""
        for j in range(len(self.terms) - 1, -1, -1):
            values = self.residual_values(skip=j)
            if self.floor_hit(values, self.tail_window(values)):
                del self.terms[j]


def decompose_numeric(source: SignalSource, support, cfg: TailFitConfig = None,
                      stop: StoppingPolicy = None) -> DecompositionResult:
    """Extract (rate, coeff) terms from samples or an evaluatable signal.

    Terms come back in ascending rate order, which is also discovery order:
    every iteration isolates the slowest rate remaining in the residual.
    """
    cfg = cfg or TailFitConfig(fit_order="richardson_2")
    stop = stop or StoppingPolicy()
    state = _NumericState(source, support, cfg)

    reason = "max_terms"
    flagged = None
    tail_norms = []
    # fixed reference window: successive residual sup norms are only
    # comparable over one window, and the first tail window is where the
    # dominant term was isolated
    window0 = state.tail_window(state.base_values)
    for _ in range(stop.max_terms):
        values = state.residual_values()
        window = state.tail_window(values)
        if window is None:
            reason = "signal_vanished"
            break
        tail_norms.append(float(np.abs(values[window0]).max()))
        if state.floor_hit(values, window):
            reason = "residual_floor"
            break
        try:
            term = state.estimate_term(values)
        except SignalVanished:
            reason = "signal_vanished"
            break
        except (NonDecaying, Diverging) as exc:
            if not state.terms:
                raise
            reason = "rate_collision"
            flagged = f"non_decaying_residual: {exc}"
            break
        if state.collides(term.rate):
            reason = "rate_collision"
            flagged = f"estimated rate {term.rate:.6g} within merge tolerance of an extracted rate"
            break
        state.terms.append(term)
        state.terms.sort(key=lambda held: held.rate)
        if len(state.terms) > 1:
            state.sweep()

    state.prune()
    for _ in range(REFINE_SWEEPS):
        if state.terms:
            state.sweep()

    final_values = state.residual_values()
    window = state.tail_window(final_values)
    terminal = float(np.abs(final_values[window]).max()) if window is not None else 0.0

    return DecompositionResult(
        terms=tuple((term.rate, term.coeff) for term in state.terms),
        diagnostics=tuple(TermDiagnostics(rate_residual_rms=term.rms, window=term.window,
                                          mode="numeric")
                          for term in state.terms),
        terminal_residual_norm=terminal,
        termination_reason=reason,
        flagged=flagged,
        iteration_tail_norms=tuple(tail_norms),
    )
