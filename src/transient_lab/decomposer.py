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
* stopping: residual below a relative floor, MAX_TERMS terms, a rate that
  collides with one already extracted, or the fit itself: after each
  extraction every held term is refitted jointly over the whole grid
  (_joint_refit), and a refit that reaches the goal of the input's record
  (signal_core.InputRecord) ends the loop with its terms, reason
  "residual_floor".  The refit carries the precision the tail estimates
  cannot, so nothing refines the terms after the loop.  A refit of fewer
  terms than the record's min_terms cannot land, so it is skipped, and
  counts as no miss.  Once two refits in a row end no lower than the best
  before them, the loop goes on without refitting;
* giving up: a refit gives up once its pace of descent projects an end
  above LM_GIVE_UP_RATIO times its goal; one that misses leaves the terms
  as extracted, and the loop goes on to the next extraction.

Numeric mode evaluates the input once, on its evaluation grid (the input's
own nodes inside the support, or GRID_POINTS uniform nodes when it has
none; see signal_core.evaluation_grid), and works in units of its peak, on
the record's values, until it builds the result.  Samples read at all their
own nodes are copied, not interpolated, and neither their finiteness nor
their grid's uniformity is checked again: SampledSignal checked both.
Every residual is an array of values on that grid, and the tail estimators
take the grid and that array as they are, so nothing is read or checked
again.  Each iteration trims its residual once: one shrink_support pass at
RESIDUAL_FLOOR and HORIZON_FLOORS gives both the tail window the residual
floor is read over and the horizons the rate fits scan, and the first
iteration's window is the fixed window of iteration_tail_norms; the final
residual is trimmed at RESIDUAL_FLOOR alone, the one end its tail norm
reads.  Each held term keeps its own column, coeff * exp(-rate * grid),
computed once, the first time a residual needs it, so a residual costs one
subtraction per held term, and a term a landed refit replaces costs none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import Diverging, NonDecaying, SignalVanished
from .signal_core import (ROUNDING_FLOOR, SignalSource, SymbolicTransient, evaluate_many,
                          evaluation_grid, input_record, uniform_grid_step)
from .tail_limits import (NOISE_FLOOR, _validate_support, estimate_coefficient,
                          estimate_rate, require_tail_nodes, scan_horizons, shrink_support,
                          tail_slice)

# why the loop ended; "residual_floor": a joint refit of the held terms
# explains the samples to within their measured noise or, on clean input, to
# rounding (the terms' mode is then "refit"), or the residual's tail reached
# RESIDUAL_FLOOR of the signal's; "max_terms": MAX_TERMS terms are held
TERMINATION_REASONS = ("residual_floor", "max_terms", "signal_vanished", "rate_collision")

# stop once the tail sup norm of the residual drops below this fraction of
# the original signal's tail sup norm over the same window: 1e-8 sits safely
# above the double-precision leftovers of the subtractions while staying far
# below any honest term
RESIDUAL_FLOOR = 1e-8
# two rates collide when |r_i - r_j| (t_hi - t_lo) falls below this: 1e-3 on a
# record of span 40, and dimensionless, so the same in any unit of time
RATE_MERGE_TOL = 0.04
# the most terms one decomposition extracts, reason "max_terms": a safety
# bound, not a parameter of the method.  perfbench's seed-3 clean3 signals
# 0-1999 return at most 8 terms and its noisy_mc trials 0-399 (1600 sample
# sets) at most 5; of 227 other probe sets it binds on one, e^(-sqrt t) on
# 0..40 at step 0.01 plus N(0, 1e-4) noise from rng seed 8
MAX_TERMS = 16
# candidate relative floors for the per-iteration horizon trim; the fit with
# the smallest log-magnitude residual wins.  The fit only seeds the joint
# refit, and two floors seed it as well as five did: with the 1e-6, 1e-8 and
# 1e-10 floors too, perfbench's seed-3 clean3 signals 0-1999 solve the same
# 1998 and no refitted rate moves by more than 2.6e-10 of itself.  1e-4 wins
# on noisy input (the noise end aside): without it the decomposer solves
# 1031 rather than 1210 of noisy_mc's first 1600 sample sets.  1e-12 wins on
# clean input: without it 1799 rather than 1998 of those clean3 signals solve
HORIZON_FLOORS = (1e-4, 1e-12)
# Levenberg-Marquardt damping of the joint refit: its start, near Gauss-Newton
# but positive, since a rejected step grows it tenfold, and the cap past which
# the refit gives up; its step budget; and the relative drop of the sum of
# squares below which it has converged
LM_DAMPING = 1e-9
LM_MAX_DAMPING = 1e10
LM_MAX_STEPS = 20
LM_RSS_TOL = 1e-6
# the refit gives up once its pace, kept for every step left, would end it
# above this multiple of its goal.  Against the goal itself, seed-3 noisy_mc
# trial 28 at sigma 1e-4 gives up at size 2, 2.3e3 times above its goal, and
# returns 3 terms; with its whole budget that refit lands the true two
LM_GIVE_UP_RATIO = 100.0


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
    min_terms: Optional[int] = None   # fewest terms _rss_bound lets a refit land with

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


class _Term(NamedTuple):
    """One held term and the rate fit that produced it."""
    rate: float
    coeff: float
    rms: float                # log-magnitude rms of the winning rate fit
    window: tuple             # that fit's (t_start, t_end)
    column: Optional[np.ndarray]   # coeff * exp(-rate * grid); None until a residual needs it


# Aitken passes of every tail fit (tail_limits).  With perfbench's seed-3
# signals, clean3's 0-1999 solve 1701, 1998 and 1998 at 0, 1 and 2 passes,
# their term counts off by 574, 6 and 8 in all; noisy_mc's first 1600 sample
# sets solve 1242 and 1215 at 1 and 2, off by 31 and 58.  One pass reads
# better on both, but test_true_count_under_noise then reads 18 of 20 at
# sigma 1e-4 where it needs 19, so the decomposer stays at two
TAIL_FIT_PASSES = 2


class _NumericState:
    """Grid-resident bookkeeping for one numeric decomposition."""

    def __init__(self, source, support):
        self.t_lo, self.t_hi = _validate_support(support)
        grid = evaluation_grid(source, support)
        require_tail_nodes(grid, (self.t_lo, self.t_hi))
        values = evaluate_many(source, grid)
        # samples are finite (SampledSignal checks them), and so are their
        # values at their own nodes
        sampled = source.sampled
        if sampled is None and not np.all(np.isfinite(values)):
            raise ValueError("signal is not finite on the evaluation grid")
        # a grid of all the samples' times is uniform when they are
        if sampled is not None and len(grid) == len(sampled.times):
            step = sampled.uniform_step
        else:
            step = uniform_grid_step(grid)
        self.record = input_record(grid, values, step)
        # whether the input has a measured noise level, by the test
        # shrink_support applies
        self.noisy = NOISE_FLOOR < self.record.noise_sigma
        # whether the next iteration refits the held terms (refit); the lowest
        # sum of squares a refit has left, and the refits since that one
        self.refitting = True
        self.refit_best = math.inf
        self.refit_misses = 0
        self.terms = []          # [_Term], rates ascending

    # -- residual bookkeeping -------------------------------------------

    def residual_values(self):
        """The record's values minus every held term; those (read-only)
        values themselves when no term is held.

        Raises Diverging when that overflows: the held terms, in units of
        the input's peak, then reach the float range instead of cancelling.
        """
        if not self.terms:
            return self.record.values
        grid = self.record.grid
        for i, term in enumerate(self.terms):
            if term.column is None:
                column = np.multiply(-term.rate, grid)
                np.exp(column, out=column)
                column *= term.coeff
                self.terms[i] = term._replace(column=column)
        try:
            # numpy reads its overflow flag after each subtraction anyway;
            # raising on it spares a finite check's pass over the values
            with np.errstate(over="raise"):
                out = self.record.values - self.terms[0].column
                for term in self.terms[1:]:
                    out -= term.column
        except FloatingPointError:
            raise Diverging("the signal less the held terms overflows") from None
        return out

    def trim(self, values):
        """(window, ends) of these values from one shrink_support pass: the
        slice of the grid in the tail window over their horizon trimmed at
        RESIDUAL_FLOOR, and the horizon ends estimate_term scans, at
        HORIZON_FLOORS and then, with a measured noise level, the noise end.
        (None, None) when the values are zero everywhere."""
        try:
            t_hi, *ends = shrink_support(self.record.grid, values,
                                         (RESIDUAL_FLOOR,) + HORIZON_FLOORS,
                                         self.record.noise_sigma)
        except SignalVanished:
            return None, None
        return tail_slice(self.record.grid, self.t_lo, t_hi)[1], ends

    def tail_norm(self, values):
        """Sup norm of these values over the tail window of their horizon
        trimmed at RESIDUAL_FLOOR, the window trim gives; 0.0 when they are
        zero everywhere.  One shrink_support level, that floor's alone."""
        grid = self.record.grid
        try:
            t_hi, = shrink_support(grid, values, (RESIDUAL_FLOOR,))
        except SignalVanished:
            return 0.0
        return float(np.abs(values[tail_slice(grid, self.t_lo, t_hi)[1]]).max())

    def floor_hit(self, values, window):
        """Whether these values, the residual of the held terms, sit below the
        residual floor over window, their trimmed window, which the caller has
        already computed.  Never with no term held: the values are then the
        record's own, which no floor below them can hold."""
        if not self.terms:
            return False
        sup_resid = float(np.abs(values[window]).max())
        sup_base = float(np.abs(self.record.values[window]).max())
        return sup_resid < RESIDUAL_FLOOR * sup_base

    # -- estimation ------------------------------------------------------

    def estimate_term(self, values, ends):
        """Best _Term for the residual with these grid values, whose horizon
        ends trim gave.

        Fits the trailing window of each horizon and keeps the rate fit whose
        log-magnitude residual is smallest; the coefficient is then read off
        the winning window.  With a measured noise level, a floor's end past
        the noise end is not fitted: the tail there is noise, whose
        log-magnitude is no decay.
        """
        if len(ends) > len(HORIZON_FLOORS):
            ends = [t_hi for t_hi in ends if t_hi <= ends[-1]]
        grid = self.record.grid

        def fit(t_hi):
            est = estimate_rate(grid, values, (self.t_lo, t_hi), TAIL_FIT_PASSES)
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
                require_tail_nodes(grid[:grid.searchsorted(t_end, "right")],
                                   (self.t_lo, t_end),
                                   " at or before the noise end" if self.noisy else "")
            raise
        coeff = estimate_coefficient(grid, values, best.rate, (self.t_lo, best.window[1]),
                                     TAIL_FIT_PASSES)
        return _Term(best.rate, coeff, best.residual_rms, best.window, None)

    def collides(self, rate):
        span = self.t_hi - self.t_lo
        return any(abs(rate - term.rate) * span < RATE_MERGE_TOL for term in self.terms)

    def refit(self):
        """The held terms refitted jointly, when that refit reaches the
        record's rss_goal; None otherwise, all in units of the input's peak.
        Fewer terms than the record's min_terms return None without a refit,
        which could not land, and leave refit_best and refit_misses as they
        were: a skipped refit is no miss.  The refit, one _joint_refit run,
        has finite positive rates and finite coefficients; accepted, its
        rates also lie RATE_MERGE_TOL apart over the support's span, whatever
        their order.  The terms come back with their rates ascending, each
        keeping the rate fit that seeded it."""
        record = self.record
        if len(self.terms) < (record.min_terms or 0):
            return None
        rates, coeffs, basis, rss = _joint_refit(record.grid, record.values,
                                                 [term.rate for term in self.terms],
                                                 [term.coeff for term in self.terms],
                                                 record.rss_goal)
        # two refits in a row that end no lower than the best one before them
        # show the extraction's terms no longer seed a better joint fit: the
        # rest of the decomposition is not refitted
        if rss < self.refit_best:
            self.refit_best, self.refit_misses = rss, 0
        else:
            self.refit_misses += 1
        self.refitting = self.refit_misses < 2
        order = rates.argsort()
        if not (np.all(np.diff(rates[order]) * (self.t_hi - self.t_lo) >= RATE_MERGE_TOL)
                and rss <= record.rss_goal):
            return None
        return [self.terms[i]._replace(rate=float(rates[i]), coeff=float(coeffs[i]),
                                       column=basis[i] * coeffs[i])
                for i in order]


def _joint_refit(grid, values, rates, coeffs, rss_goal):
    """Levenberg-Marquardt least squares of sum coeff * exp(-rate * grid)
    against values over the whole grid, on the full (rate, coeff) Jacobian J,
    from the given terms (Golub & Pereyra 1973 frame it as variable
    projection).  Each step solves the damped normal equations
    (G + lam I) step = J' residual by LU, G = J'J in units of each
    parameter's column norm (Marquardt's scaling); G has two rows a term, so a
    step costs a few passes over the grid.  A trial step that leaves a rate
    non-positive or any parameter or value non-finite counts as a rise of the
    sum of squares, and so does a damped system that is singular: the damping
    grows, and past LM_MAX_DAMPING the refit gives up, as it does at once
    when the damping is not positive and so cannot grow.  So does a refit that
    would not bring the sum of squares down to LM_GIVE_UP_RATIO times
    rss_goal if every step left cut it by the last step's ratio, and one
    whose G is not finite.  values are the record's, in units of the input's
    peak, as are coeffs and rss_goal; a sum of squares at the rounding
    floor, ROUNDING_FLOOR of that peak, ends the refit at once.

    Returns (rates, coeffs, basis, rss), basis holding exp(-rate * grid) a
    row and rss the sum of squares, as the last step that lowered the sum of
    squares left them: the step that lowers it by less than LM_RSS_TOL of
    itself, the last of LM_MAX_STEPS steps, or the last before the refit gave
    up (the given terms, with rss infinite when their sum of squares is not
    finite).
    """
    k = len(rates)
    rss_floor = len(grid) * ROUNDING_FLOOR ** 2
    params = np.concatenate((rates, coeffs))
    # J' a row a parameter: d model / d rate = -coeff * grid * exp(-rate * grid)
    # in the first k rows; d model / d coeff = exp(-rate * grid), the current
    # terms' basis, in the last k.  Each step copies J into the spare for the
    # gemm that forms G, then writes each trial's basis into the spare's last
    # k rows, and an accepted trial swaps the two; every element is written
    # before it is read, so neither is zeroed.  One allocation holds both: as
    # two, they cost perfbench's clean3 about 14 more page faults a signal
    # (glibc malloc), as one no more than before
    jac, spare = np.empty((2, 2 * k, len(grid)))
    basis = jac[k:]
    with np.errstate(all="ignore"):
        np.exp(np.multiply(-params[:k, None], grid, out=basis), out=basis)
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
            # J times its own transpose would go to BLAS syrk, which takes
            # twice as long as gemm at these shapes
            np.copyto(spare, jac)
            gram = np.matmul(jac, spare.T)
            # in units of each parameter's column norm, G has a unit diagonal
            # (Marquardt's scaling), so the damping weighs every parameter
            # alike whatever the terms' sizes
            scale = gram.diagonal() ** 0.5
            scale[scale == 0.0] = 1.0
            gram /= scale[:, None] * scale
            grad = np.matmul(jac, resid) / scale
            if not (np.isfinite(gram).all() and np.isfinite(grad).all()):
                break
            while True:
                damped = gram.copy()
                damped.flat[::2 * k + 1] += lam
                # a damping below half an ulp of G's unit diagonal leaves it
                # as it was, so a G singular in floating point gives a
                # singular system: that trial is rejected, as a rise is, and
                # the damping grows until it damps
                try:
                    trial = params + np.linalg.solve(damped, grad) / scale
                    valid = np.isfinite(trial).all() and (trial[:k] > 0.0).all()
                except np.linalg.LinAlgError:
                    valid = False
                if valid:
                    trial_basis = spare[k:]
                    np.exp(np.multiply(-trial[:k, None], grid, out=trial_basis), out=trial_basis)
                    trial_resid = values - np.matmul(trial[k:], trial_basis)
                    trial_rss = float(np.dot(trial_resid, trial_resid))
                    if trial_rss <= rss:
                        break
                lam *= 10.0
                # a damping of 0, below 0 or NaN never grows past the cap
                if not 0.0 < lam <= LM_MAX_DAMPING:
                    return params[:k], params[k:], basis, rss
            jac, spare, basis = spare, jac, trial_basis
            drop = rss - trial_rss
            params, resid, rss = trial, trial_resid, trial_rss
            if drop <= LM_RSS_TOL * (rss + drop):
                break
            if (rss * (rss / (rss + drop)) ** (LM_MAX_STEPS - 1 - steps)
                    > LM_GIVE_UP_RATIO * rss_goal):
                break
            lam /= 10.0
    return params[:k], params[k:], basis, rss


def decompose_numeric(source: SignalSource, support) -> DecompositionResult:
    """Extract (rate, coeff) terms from samples or an evaluatable signal.

    Terms come back with their rates ascending.  Every iteration fits the
    slowest rate its tail fits find in the residual, but on a decomposition
    that goes wrong, such as one that invents terms on noisy input, a later
    iteration can find a slower rate than an earlier one: the order of the
    terms is then not the order of their discovery.
    """
    state = _NumericState(source, support)

    reason = "max_terms"
    flagged = None
    refitted = False
    tail_norms = []
    window0 = None
    for _ in range(MAX_TERMS):
        values = state.residual_values()
        window, ends = state.trim(values)
        if window is None:
            reason = "signal_vanished"
            break
        if window0 is None:
            # fixed reference window: successive residual sup norms are only
            # comparable over one window, and the first tail window is where
            # the dominant term was isolated
            window0 = window
        tail_norms.append(float(np.abs(values[window0]).max()))
        if state.floor_hit(values, window):
            reason = "residual_floor"
            break
        try:
            term = state.estimate_term(values, ends)
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
        # a refit that lands ends the loop
        terms = state.refit() if state.refitting else None
        if terms is not None:
            state.terms = terms
            reason = "residual_floor"
            refitted = True
            break

    final_values = state.residual_values()
    terminal = state.tail_norm(final_values)
    # a residual past about 1e154 of the peak squares to inf, refused below
    with np.errstate(over="ignore"):
        rms = math.sqrt(float(np.dot(final_values, final_values)) / len(final_values))

    # back from units of the input's peak, once, to the input's own scale
    peak = state.record.peak
    coeffs = [term.coeff * peak for term in state.terms]
    tail_norms = tuple(norm * peak for norm in tail_norms)
    terminal, noise_sigma, rms = terminal * peak, state.record.noise_sigma * peak, rms * peak
    if not np.isfinite([terminal, noise_sigma, rms, *tail_norms, *coeffs]).all():
        raise Diverging("the decomposition overflows at the scale of the input")
    return DecompositionResult(
        terms=tuple((term.rate, coeff) for term, coeff in zip(state.terms, coeffs)),
        diagnostics=tuple(TermDiagnostics(rate_residual_rms=term.rms, window=term.window,
                                          mode="refit" if refitted else "numeric")
                          for term in state.terms),
        terminal_residual_norm=terminal,
        termination_reason=reason,
        flagged=flagged,
        iteration_tail_norms=tail_norms,
        noise_sigma=noise_sigma,
        residual_rms=rms,
        min_terms=state.record.min_terms,
    )
