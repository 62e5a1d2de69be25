"""Sequential extraction of decay rates and coefficients.

The loop is the same in both modes: read off the slowest remaining rate,
read off its coefficient, subtract the identified term, repeat.  Exact mode
runs it on a symbolic term list where every step is literal arithmetic.
Numeric mode runs it on samples through the tail estimators, with three
policies the idealized loop does not need:

* horizon placement: each iteration fits over the tail window of a few
  candidate horizons (the residual trimmed at a shallow and a deep relative
  floor, HORIZON_FLOORS, and at its measured noise level) and keeps the fit
  whose log-magnitude residual is smallest.  The fit only seeds the joint
  refit, which carries the precision.  tail_limits.shrink_support trims and
  tail_limits.scan_horizons picks, the same two steps the extraction
  functionals use.  A floor's end past the noise end is not fitted, since
  the tail beyond it is noise;
* stopping: residual below a relative floor, a term budget, a rate that
  collides with one already extracted, or the fit itself: after each
  extraction every held term is refitted jointly over the whole grid
  (_joint_refit), and a refit that explains the samples to within
  NOISE_FIT_RATIO of their measured noise, or on clean input to the rounding
  floor (ROUNDING_FLOOR of the peak), ends the loop with its terms, reason
  "residual_floor".  The refit carries the precision the tail estimates
  cannot, so no sweep refines the terms after the loop.  Once two refits in
  a row end no lower than the best before them, the extraction's terms no
  longer seed a better joint fit, and the loop goes on without refitting;
* cyclic re-estimation, only to reseed a refit that missed its goal by at
  most REFIT_RETRY_RATIO: every held term is re-estimated against the
  signal minus the other terms, each fed the others' latest values, and the
  refit is tried once more from the swept terms.  A refit that misses by
  more, such as a size-2 refit of a three-term signal, leaves the terms as
  extracted and the loop goes on to the next extraction.

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
from .tail_limits import (NOISE_FLOOR, TailFitConfig, _validate_support,
                          estimate_coefficient, estimate_rate, require_tail_nodes,
                          scan_horizons, shrink_support, tail_slice)

# why the loop ended; "residual_floor": a joint refit of the held terms
# explains the samples to within their measured noise or, on clean input, to
# rounding (the terms' mode is then "refit"), or the residual's tail reached
# RESIDUAL_FLOOR of the signal's
TERMINATION_REASONS = ("residual_floor", "max_terms", "signal_vanished", "rate_collision")

# stop once the tail sup norm of the residual drops below this fraction of
# the original signal's tail sup norm over the same window: 1e-8 sits safely
# above the double-precision leftovers of swept subtractions while staying
# far below any honest term
RESIDUAL_FLOOR = 1e-8
# a new rate closer than this to a held one is a rate collision
RATE_MERGE_TOL = 1e-3
# candidate relative floors for the per-iteration horizon trim; the fit with
# the smallest log-magnitude residual wins.  The fit only seeds the joint
# refit, and two floors seed it as well as five did: with the 1e-6, 1e-8 and
# 1e-10 floors too, perfbench's seed-3 clean3 signals 0-1999 solve the same
# 1998 and no refitted rate moves by more than 2.6e-10 of itself.  1e-4 wins
# on noisy input (the noise end aside): without it the decomposer solves
# 1031 rather than 1210 of noisy_mc's first 1600 sample sets.  1e-12 wins on
# clean input: without it 1799 rather than 1998 of those clean3 signals solve
HORIZON_FLOORS = (1e-4, 1e-12)
# a joint refit that leaves a whole-grid rms within this multiple of the
# measured noise ends a noisy decomposition; the true model reads 0.94-1.02
NOISE_FIT_RATIO = 1.5
# the rounding floor of a whole-grid rms, as a fraction of the signal's peak:
# a joint refit that reaches it ends a clean decomposition.  The acceptance
# suite's true models refit to at most 4e-17 of their peak; the margin covers
# terms that cancel to a peak far below their own sizes
ROUNDING_FLOOR = 1e-13
# a missed refit whose sum of squares came within this multiple of its goal is
# tried once more after a sweep has moved its seed; only such a refit pays
# for a sweep
REFIT_RETRY_RATIO = 100.0
# Levenberg-Marquardt damping of the joint refit: its start, near Gauss-Newton
# but positive, since a rejected step grows it tenfold, and the cap past which
# the refit gives up; its step budget; and the relative drop of the sum of
# squares below which it has converged
LM_DAMPING = 1e-9
LM_MAX_DAMPING = 1e10
LM_MAX_STEPS = 20
LM_RSS_TOL = 1e-6


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
    noise_sigma: float = 0.0          # measured noise level of the input
    residual_rms: float = 0.0         # whole-grid rms of the final residual

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


def _rms(values) -> float:
    """Root mean square of values, taken in units of their peak, so that
    their squares stay inside the float range at any scale."""
    peak = float(np.abs(values).max())
    if peak == 0.0:
        return 0.0
    scaled = values / peak
    return peak * math.sqrt(float(np.dot(scaled, scaled)) / len(values))


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
        base = evaluate_many(source, self.grid)
        if not np.all(np.isfinite(base)):
            raise ValueError("signal is not finite on the evaluation grid")
        # residual_values may hand out the base values themselves: a read-only
        # view keeps them unchanged, and leaves the evaluator's array as it was
        self.base_values = base.view()
        self.base_values.flags.writeable = False
        self.noise_sigma = _noise_level(self.base_values)
        self.peak = float(np.abs(self.base_values).max())
        # whether the input has a measured noise level, by the test
        # shrink_support applies
        self.noisy = NOISE_FLOOR * self.peak < self.noise_sigma < math.inf
        # whether the next iteration refits the held terms (refit); the lowest
        # sum of squares a refit has left, the refits since that one, and
        # whether the last refit came within REFIT_RETRY_RATIO of its goal
        self.refitting = True
        self.refit_best = math.inf
        self.refit_misses = 0
        self.refit_close = False
        self.terms = []          # [_Term], rates ascending

    # -- residual bookkeeping -------------------------------------------

    def residual_values(self, skip=None):
        """Base values minus every held term except the one at index skip;
        the (read-only) base values themselves when no term is subtracted.

        Raises Diverging when that overflows: the held terms then oppose the
        input near the top of the float range instead of cancelling it.
        """
        columns = [term.column for i, term in enumerate(self.terms) if i != skip]
        if not columns:
            return self.base_values
        try:
            # numpy reads its overflow flag after each subtraction anyway;
            # raising on it spares a finite check's pass over the values
            with np.errstate(over="raise"):
                out = self.base_values - columns[0]
                for column in columns[1:]:
                    out -= column
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
        log-magnitude is no decay.
        """
        ends = shrink_support(self.grid, values, HORIZON_FLOORS, self.noise_sigma)
        if len(ends) > len(HORIZON_FLOORS):
            ends = [t_hi for t_hi in ends if t_hi <= ends[-1]]

        def fit(t_hi):
            est = estimate_rate(self.grid, values, (self.t_lo, t_hi), self.cfg)
            # a log-magnitude spread beyond 0.5 means the window straddles a
            # noise floor or a sign flip, not an exponential
            if est.residual_rms > 0.5:
                return None
            return est.residual_rms, est

        try:
            best = scan_horizons(fit, ends, self.t_lo)
        except SignalVanished:
            # with no term held and a horizon past the start, the signal did
            # not vanish when no horizon there holds enough nodes: it was
            # sampled too sparsely to fit
            t_end = max(ends)
            if not self.terms and t_end > self.t_lo:
                require_tail_nodes(self.grid[:self.grid.searchsorted(t_end, "right")],
                                   (self.t_lo, t_end),
                                   " at or before the noise end" if self.noisy else "")
            raise
        coeff = estimate_coefficient(self.grid, values, best.rate, (self.t_lo, best.window[1]),
                                     self.cfg)
        column = np.multiply(-best.rate, self.grid)
        np.exp(column, out=column)
        column *= coeff
        return _Term(best.rate, coeff, best.residual_rms, best.window, column)

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

    def refit(self):
        """The held terms refitted jointly, when that refit explains the
        samples to within their measured noise, or to ROUNDING_FLOOR of their
        peak; None otherwise.

        The refit's rates are finite and positive, its coefficients finite;
        accepted, its rates also ascend at least RATE_MERGE_TOL apart and
        leave a whole-grid rms of at most the larger of NOISE_FIT_RATIO times
        the noise level and ROUNDING_FLOOR of the peak.  Each refitted term
        keeps the rate fit that seeded it."""
        # in units of the peak the sums of squares stay inside the float range
        # at any signal scale
        rss_goal = len(self.grid) * max(NOISE_FIT_RATIO * self.noise_sigma / self.peak,
                                        ROUNDING_FLOOR) ** 2
        rates, coeffs, basis, rss = _joint_refit(self.grid, self.base_values / self.peak,
                                                 [term.rate for term in self.terms],
                                                 [term.coeff / self.peak for term in self.terms],
                                                 rss_goal)
        # two refits in a row that end no lower than the best one before them
        # show the extraction's terms no longer seed a better joint fit: the
        # rest of the decomposition is not refitted
        if rss < self.refit_best:
            self.refit_best, self.refit_misses = rss, 0
        else:
            self.refit_misses += 1
        self.refitting = self.refit_misses < 2
        self.refit_close = rss <= REFIT_RETRY_RATIO * rss_goal
        if not (np.all(np.diff(rates) >= RATE_MERGE_TOL) and rss <= rss_goal):
            return None
        coeffs = coeffs * self.peak
        return [term._replace(rate=float(rate), coeff=float(coeff), column=basis[i] * coeff)
                for i, (term, rate, coeff) in enumerate(zip(self.terms, rates, coeffs))]


def _joint_refit(grid, values, rates, coeffs, rss_goal):
    """Levenberg-Marquardt least squares of sum coeff * exp(-rate * grid)
    against values over the whole grid, on the full (rate, coeff) Jacobian J,
    from the given terms (Golub & Pereyra 1973 frame it as variable
    projection).  Each step solves the damped normal equations
    (G + lam I) step = J' residual by lstsq, G = J'J in units of each
    parameter's column norm (Marquardt's scaling); G has two rows a term, so a
    step costs a few passes over the grid.  A trial step that leaves a rate
    non-positive or any parameter or value non-finite counts as a rise of the
    sum of squares: the damping grows, and past LM_MAX_DAMPING the refit
    gives up.  So does a refit that would not bring the sum of squares down
    to rss_goal if every step left cut it by the last step's ratio, and one
    whose G is not finite (lstsq would have LAPACK print to stderr).  A sum
    of squares at the rounding floor, ROUNDING_FLOOR of values in units of
    their peak, ends the refit at once.

    Returns (rates, coeffs, basis, rss), basis holding exp(-rate * grid) a
    row and rss the sum of squares, as the last step that lowered the sum of
    squares left them: the step that lowers it by less than LM_RSS_TOL of
    itself, the last of LM_MAX_STEPS steps, or the last before the refit gave
    up (the given terms, with rss infinite when their sum of squares is not
    finite).
    """
    k = len(rates)
    rss_floor = len(grid) * ROUNDING_FLOOR ** 2
    params = np.array(rates + coeffs)
    # J' a row a parameter: d model / d rate = -coeff * grid * exp(-rate * grid)
    # in the first k rows; d model / d coeff = exp(-rate * grid), the current
    # terms' basis, in the last k
    jac = np.zeros((2 * k, len(grid)))
    basis, trial_basis = jac[k:], np.zeros((k, len(grid)))
    with np.errstate(all="ignore"):
        np.exp(np.outer(-params[:k], grid, out=basis), out=basis)
        resid = values - np.matmul(params[k:], basis)
        rss = float(np.dot(resid, resid))
        if not math.isfinite(rss):
            return params[:k], params[k:], basis, math.inf
        lam = LM_DAMPING
        for steps in range(LM_MAX_STEPS):
            if rss <= rss_floor:
                break
            np.multiply(basis, grid, out=jac[:k])
            jac[:k] *= -params[k:, None]
            # in units of each parameter's column norm, G has a unit diagonal
            # (Marquardt's scaling), so lstsq's cutoff reads every parameter
            # alike whatever the terms' sizes
            gram = np.matmul(jac, jac.T)
            scale = gram.diagonal() ** 0.5
            scale[scale == 0.0] = 1.0
            gram /= np.outer(scale, scale)
            grad = np.matmul(jac, resid) / scale
            if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(grad))):
                break
            while True:
                damped = gram.copy()
                damped.flat[::2 * k + 1] += lam
                trial = params + np.linalg.lstsq(damped, grad, rcond=None)[0] / scale
                if np.all(np.isfinite(trial)) and np.all(trial[:k] > 0.0):
                    np.exp(np.outer(-trial[:k], grid, out=trial_basis), out=trial_basis)
                    trial_resid = values - np.matmul(trial[k:], trial_basis)
                    trial_rss = float(np.dot(trial_resid, trial_resid))
                    if trial_rss <= rss:
                        break
                lam *= 10.0
                if lam > LM_MAX_DAMPING:
                    return params[:k], params[k:], basis, rss
            basis[...] = trial_basis
            drop = rss - trial_rss
            params, resid, rss = trial, trial_resid, trial_rss
            if drop <= LM_RSS_TOL * (rss + drop):
                break
            if rss * (rss / (rss + drop)) ** (LM_MAX_STEPS - 1 - steps) > rss_goal:
                break
            lam /= 10.0
    return params[:k], params[k:], basis, rss


def decompose_numeric(source: SignalSource, support, cfg: TailFitConfig = None,
                      stop: StoppingPolicy = None) -> DecompositionResult:
    """Extract (rate, coeff) terms from samples or an evaluatable signal.

    Terms come back with their rates ascending.  Every iteration fits the
    slowest rate its tail fits find in the residual, but on a decomposition
    that goes wrong, such as one that invents terms on noisy input, a later
    iteration can find a slower rate than an earlier one: the order of the
    terms is then not the order of their discovery.
    """
    cfg = cfg or TailFitConfig(fit_order="richardson_2")
    stop = stop or StoppingPolicy()
    state = _NumericState(source, support, cfg)

    reason = "max_terms"
    flagged = None
    refitted = False
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
        # the refit comes first; a sweep runs only to reseed a refit that
        # came close, which is then tried again from the swept terms; a far
        # miss goes straight on to the next extraction
        terms = state.refit() if state.refitting else None
        if terms is None and len(state.terms) > 1 and state.refitting and state.refit_close:
            state.sweep()
            terms = state.refit()
        if terms is not None:
            state.terms = terms
            reason = "residual_floor"
            refitted = True
            break

    final_values = state.residual_values()
    window = state.tail_window(final_values)
    terminal = float(np.abs(final_values[window]).max()) if window is not None else 0.0

    return DecompositionResult(
        terms=tuple((term.rate, term.coeff) for term in state.terms),
        diagnostics=tuple(TermDiagnostics(rate_residual_rms=term.rms, window=term.window,
                                          mode="refit" if refitted else "numeric")
                          for term in state.terms),
        terminal_residual_norm=terminal,
        termination_reason=reason,
        flagged=flagged,
        iteration_tail_norms=tuple(tail_norms),
        noise_sigma=state.noise_sigma,
        residual_rms=_rms(final_values),
    )
