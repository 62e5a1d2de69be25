import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transient_lab import (Diverging, NonDecaying, RateEstimate, SignalSource, SignalVanished,
                           SymbolicTransient, TooFewSamples, TransientLabError, estimate_coefficient,
                           estimate_rate, evaluate_many, rate_sequence, shrink_support,
                           synthesize_samples)
from transient_lab import tail_limits
from transient_lab.signal_core import evaluation_grid
from transient_lab.tail_limits import scan_horizons

from conftest import random_transient


def source_of(terms):
    return SignalSource.from_symbolic(SymbolicTransient(terms))


def read(source, support):
    """The grid nodes and values a caller hands the estimators for source."""
    ts = evaluation_grid(source, support)
    return ts, evaluate_many(source, ts)


class TestPassesValidation:
    @pytest.mark.parametrize("passes", [-1, 3, 1.5, "cubic", None])
    def test_refuses_passes_other_than_0_1_or_2(self, passes):
        support = (0.0, 20.0)
        ts, xs = read(source_of(((1.0, 1.0),)), support)
        with pytest.raises(ValueError, match="passes must be 0, 1 or 2"):
            estimate_rate(ts, xs, support, passes)
        with pytest.raises(ValueError, match="passes must be 0, 1 or 2"):
            estimate_coefficient(ts, xs, 1.0, support, passes)


def test_require_tail_nodes_at_the_window_minimum():
    # the tail window of (0, 2m) is [m, 2m], which holds m + 1 integer nodes
    tail_limits.require_tail_nodes(np.arange(0.0, 15.0), (0.0, 14.0))
    with pytest.raises(TooFewSamples, match="too few samples: at most 7 in a tail window, need 8"):
        tail_limits.require_tail_nodes(np.arange(0.0, 13.0), (0.0, 12.0))
    with pytest.raises(TooFewSamples, match="at most 7 in a tail window past t = 0, need 8"):
        tail_limits.require_tail_nodes(np.arange(0.0, 13.0), (0.0, 12.0), " past t = 0")
    # main reports it as a refused input (exit 3); a sweep records it as
    # the error of the one sample set that met it
    assert issubclass(TooFewSamples, ValueError)
    assert issubclass(TooFewSamples, TransientLabError)


def test_require_tail_nodes_counts_the_window_of_every_horizon_end():
    # one node at t = 100 leaves the whole support's window [50, 100] one
    # node, but the horizon ending at t = 10 has 501 in its window [5, 10]
    ts = np.append(np.linspace(0.0, 10.0, 1001), 100.0)
    tail_limits.require_tail_nodes(ts, (0.0, 100.0))
    with pytest.raises(ValueError, match="at most 7 in a tail window"):
        tail_limits.require_tail_nodes(np.append(np.arange(13.0), 100.0), (0.0, 100.0))


class TestEstimateRate:
    def test_single_exponential_exact(self):
        est = estimate_rate(*read(source_of(((3.0, 1.0),)), (0.0, 20.0)), (0.0, 20.0))
        assert est.rate == pytest.approx(3.0, abs=1e-9)
        assert est.residual_rms < 1e-12

    def test_two_term_within_contamination_bound(self):
        # slowest rate 1, gap 1: contamination (3/2) e^{-t} at the window start
        support = (0.0, 40.0)
        est = estimate_rate(*read(source_of(((1.0, 2.0), (2.0, 3.0))), support), support)
        assert est.rate == pytest.approx(1.0, abs=1e-6)
        a = est.window[0]
        bound = 12.0 * (3.0 / 2.0) * math.exp(-1.0 * a) / a
        assert abs(est.rate - 1.0) <= bound

    def test_sparse_window_vanishes(self):
        # the window (9.5, 19) holds one node; nothing is invented between nodes
        sig = synthesize_samples(SymbolicTransient(((0.5, 1.0),)), np.array([0.0, 10.0, 20.0]))
        with pytest.raises(SignalVanished, match="only 1 tail samples"):
            estimate_rate(*read(SignalSource.from_sampled(sig), (0.0, 19.0)), (0.0, 19.0))

    def test_zero_signal_vanished(self):
        sig = synthesize_samples(SymbolicTransient(), np.linspace(0, 10, 101))
        with pytest.raises(SignalVanished):
            estimate_rate(sig.times, sig.values, (0.0, 10.0))

    def test_growing_signal_non_decaying(self):
        src = SignalSource.from_evaluator(lambda ts: np.exp(0.1 * np.asarray(ts)))
        with pytest.raises(NonDecaying):
            estimate_rate(*read(src, (0.0, 10.0)), (0.0, 10.0))

    def test_intercept_estimates_log_coefficient(self):
        est = estimate_rate(*read(source_of(((0.7, 5.0),)), (0.0, 30.0)), (0.0, 30.0))
        assert est.intercept == pytest.approx(math.log(5.0), abs=1e-9)

    def test_bad_support_rejected(self):
        ts, xs = read(source_of(((1.0, 1.0),)), (0.0, 10.0))
        for support in ((5.0, 5.0), (6.0, 5.0), (-1.0, 5.0), (0.0, math.inf)):
            with pytest.raises(ValueError):
                estimate_rate(ts, xs, support)

    def test_exactness_on_log_spaced_grid(self):
        for lam in np.geomspace(0.1, 8.0, 12):
            for alpha in (-3.0, 0.05, 2.0):
                support = (0.0, 25.0 / lam)
                est = estimate_rate(*read(source_of(((lam, alpha),)), support), support)
                assert abs(est.rate - lam) < 1e-9 * max(1.0, lam)

    def test_nodes_too_close_to_fit_a_slope(self):
        # the nodes' spread about their mean squares to zero in double precision
        ts = np.arange(200) * 1e-200
        with pytest.raises(NonDecaying, match="squares to 0.0"):
            estimate_rate(ts, np.exp(-ts), (0.0, float(ts[-1])))

    def test_frozen_noisy_two_term_values(self):
        # recorded before the estimators took arrays, when they read a
        # sampled source by slicing its samples; the array path reads the
        # same nodes, so every bit must match
        samples = synthesize_samples(SymbolicTransient(((1.0, 2.0), (2.0, 3.0))),
                                     np.arange(4001) * 0.01, noise_sigma=1e-5, seed=7)
        support = (0.0, 9.3377)
        frozen = {
            0: (RateEstimate(rate=1.0015834817620441, intercept=0.7075575720970031,
                                       window=(4.66885, 9.3377),
                                       residual_rms=0.01778946099004574),
                          2.029351236472775),
            2: (RateEstimate(rate=1.0021614288432177,
                                          intercept=0.7116032016652186,
                                          window=(4.66885, 9.3377),
                                          residual_rms=0.017806514970794447),
                             2.032994221650308),
        }
        for passes, (want_rate, want_coeff) in frozen.items():
            est = estimate_rate(samples.times, samples.values, support, passes)
            assert est == want_rate
            assert estimate_coefficient(samples.times, samples.values, est.rate, support,
                                        passes) == want_coeff


class TestEstimateCoefficient:
    def test_constant_sequence(self):
        support = (0.0, 20.0)
        value = estimate_coefficient(*read(source_of(((2.0, 5.0),)), support), 2.0, support)
        assert value == pytest.approx(5.0, abs=1e-10)

    def test_two_term_within_bound(self):
        support = (0.0, 40.0)
        value = estimate_coefficient(*read(source_of(((1.0, 2.0), (2.0, 3.0))), support), 1.0,
                                     support)
        assert value == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("passes", [0, 2])
    def test_coefficient_near_the_float_limit(self, passes):
        # the window's values sum past 1.8e308 although their mean does not
        support = (0.0, 2.0)
        value = estimate_coefficient(*read(source_of(((1.0, 1e308),)), support), 1.0, support,
                                     passes)
        assert value == pytest.approx(1e308, rel=1e-12)

    def test_overestimated_rate_diverges(self):
        support = (0.0, 20.0)
        with pytest.raises(Diverging):
            estimate_coefficient(*read(source_of(((1.0, 1.0),)), support), 2.0, support)

    def test_negative_coefficient_sign(self):
        support = (0.0, 20.0)
        value = estimate_coefficient(*read(source_of(((1.5, -4.0),)), support), 1.5, support)
        assert value == pytest.approx(-4.0, abs=1e-10)

    def test_exactness_on_log_spaced_grid(self):
        for lam in np.geomspace(0.1, 8.0, 12):
            for alpha in (-3.0, 0.05, 2.0):
                support = (0.0, 25.0 / lam)
                value = estimate_coefficient(*read(source_of(((lam, alpha),)), support), lam,
                                             support)
                assert abs(value - alpha) < 1e-9 * max(1.0, abs(alpha))

    def test_fast_term_perturbation_bound(self, rng):
        # adding a much faster term moves the estimate by at most its window max
        for _ in range(10):
            lam = rng.uniform(0.5, 1.5)
            alpha = rng.uniform(0.5, 3.0)
            extra_rate = lam + rng.uniform(1.0, 3.0)
            extra_coeff = rng.uniform(-2.0, 2.0)
            support = (0.0, 30.0)
            base = estimate_coefficient(*read(source_of(((lam, alpha),)), support), lam,
                                        support)
            mixed_terms = tuple(sorted([(lam, alpha), (extra_rate, extra_coeff)]))
            mixed = estimate_coefficient(*read(source_of(mixed_terms), support), lam,
                                         support)
            window_start = support[1] - 0.5 * support[1]
            bound = abs(extra_coeff) * math.exp(-(extra_rate - lam) * window_start)
            assert abs(mixed - base) <= bound * (1 + 1e-9) + 1e-12


class TestRichardsonVariants:
    def test_improves_on_slope_fit(self):
        support = (0.0, 24.0)
        ts, xs = read(source_of(((1.0, 2.0), (1.6, 3.0))), support)
        plain = estimate_rate(ts, xs, support, 0)
        acc1 = estimate_rate(ts, xs, support, 1)
        assert abs(acc1.rate - 1.0) < abs(plain.rate - 1.0)

    def test_exact_for_single_term(self):
        support = (0.0, 15.0)
        ts, xs = read(source_of(((2.5, 1.5),)), support)
        for passes in (1, 2):
            est = estimate_rate(ts, xs, support, passes)
            assert est.rate == pytest.approx(2.5, abs=1e-9)


class TestHorizonDoubling:
    def test_error_never_grows(self, rng):
        for _ in range(10):
            sig = random_transient(rng, 2, rate_lo=0.8, rate_start_hi=1.2,
                                   gap_lo=0.5, gap_hi=1.0, coeff_lo=0.5, coeff_hi=3.0)
            lam = sig.terms[0][0]
            prev = None
            for horizon in (10.0, 20.0, 40.0):
                support = (0.0, horizon)
                est = estimate_rate(*read(SignalSource.from_symbolic(sig), support), support)
                err = abs(est.rate - lam)
                if prev is not None:
                    assert err <= prev * (1 + 1e-9) + 1e-14
                prev = err


class TestRateSequence:
    def test_unit_exponential_is_constant_one(self):
        seq = rate_sequence(source_of(((1.0, 1.0),)), (0.0, 10.0))
        assert np.abs(seq.points[:, 1] - 1.0).max() < 1e-13
        assert seq.skipped_times.size == 0

    def test_scaled_exponential_closed_form(self):
        # x = 2 e^{-t}: value = 1 - ln(2)/t, zero at t = ln 2
        grid = np.array([math.log(2.0), 1.0, 5.0, 10.0])
        src = SignalSource.from_evaluator(
            lambda ts: 2.0 * np.exp(-np.asarray(ts, dtype=float)), support=(0.0, 12.0),
            grid=grid)
        seq = rate_sequence(src, (0.0, 12.0))
        expected = 1.0 - math.log(2.0) / grid
        assert np.allclose(seq.points[:, 1], expected, atol=1e-12)
        assert abs(seq.points[0, 1]) < 1e-12

    def test_two_term_frozen_value(self):
        # independent closed form, evaluated directly from the terms
        oracle = -(1.0 / 10.0) * math.log(2.0 * math.exp(-10.0) + 3.0 * math.exp(-20.0))
        assert oracle == pytest.approx(0.9306784721864103, abs=1e-12)
        grid = np.array([5.0, 10.0])
        src = SignalSource.from_evaluator(
            SymbolicTransient(((1.0, 2.0), (2.0, 3.0))), support=(0.0, 11.0), grid=grid)
        seq = rate_sequence(src, (0.0, 11.0))
        at_ten = seq.points[seq.points[:, 0] == 10.0, 1]
        assert at_ten[0] == pytest.approx(oracle, abs=1e-12)

    def test_skips_sign_changes(self):
        sig = synthesize_samples(SymbolicTransient(((1.0, 1.0), (2.0, -2.0))),
                                 np.linspace(0.0, 10.0, 400))
        seq = rate_sequence(SignalSource.from_sampled(sig), (0.0, 10.0))
        assert np.all(np.isfinite(seq.points[:, 1]))

    def test_approaches_slowest_rate_from_one_side(self):
        seq = rate_sequence(source_of(((1.0, 2.0), (2.0, 3.0))), (5.0, 30.0))
        values = seq.points[:, 1]
        diffs = np.diff(values)
        assert np.all(diffs > 0) or np.all(diffs < 0)      # one-sided approach
        assert abs(values[-1] - 1.0) < abs(values[0] - 1.0)
        assert abs(values[-1] - 1.0) < 0.05


class TestBiasOrdering:
    def test_two_term_error_below_derived_bound(self, rng):
        for _ in range(15):
            lam = rng.uniform(0.5, 1.5)
            gap = rng.uniform(0.5, 2.0)
            a1 = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
            a2 = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
            sig = SymbolicTransient(((lam, a1), (lam + gap, a2)))
            support = (0.0, 24.0)
            est = estimate_rate(*read(SignalSource.from_symbolic(sig), support), support)
            t_start = est.window[0]
            constant = 12.0 * abs(a2) / abs(a1)
            bound = constant * math.exp(-gap * t_start) / t_start
            assert abs(est.rate - lam) <= bound + 1e-12


class TestShrinkSupport:
    def test_trims_to_relative_floor(self):
        (hi,) = shrink_support(*read(source_of(((1.0, 1.0),)), (0.0, 100.0)), (1e-8,))
        assert hi == pytest.approx(-math.log(1e-8), rel=1e-2)

    # 1.0 keeps only the peak, the support's first node: an end that leaves
    # no horizon
    FLOORS = (1e-4, 1e-8, 1e-12, 0.5, 1.0)

    @pytest.mark.parametrize("variant", ["sampled", "evaluator", "symbolic"])
    def test_one_end_per_floor_as_one_mask_per_floor(self, variant):
        sig = SymbolicTransient(((0.7, 1.5), (1.9, -0.8)))
        support = (0.5, 30.0)
        source = {
            "sampled": lambda: SignalSource.from_sampled(
                synthesize_samples(sig, np.arange(0.0, 40.0 + 1e-9, 0.01))),
            "evaluator": lambda: SignalSource.from_evaluator(sig, support=(0.0, 40.0)),
            "symbolic": lambda: SignalSource.from_symbolic(sig),
        }[variant]()
        ts, xs = read(source, support)
        mag = np.abs(xs)
        peak = mag.max()
        want = [float(ts[mag >= rel * peak][-1]) for rel in self.FLOORS]
        ends = shrink_support(ts, xs, self.FLOORS)
        assert ends == want
        assert ends[-1] == support[0]

    def test_noise_adds_one_end_where_the_signal_meets_it(self):
        ts = np.linspace(0.0, 30.0, 3001)
        xs = np.exp(-ts)
        (end,) = shrink_support(ts, xs, (), noise=1e-5)
        assert end == float(ts[xs >= 5e-5][-1])
        assert shrink_support(ts, xs, (1e-8,), noise=1e-10) == shrink_support(ts, xs, (1e-8,))

    def test_lone_spike_past_the_noise_crossing_leaves_the_noise_end(self):
        # one sample clearing five times the noise far out in the tail is
        # noise, not signal; the relative floors still end at their last node
        ts = np.linspace(0.0, 30.0, 3001)
        xs = np.exp(-ts)
        spiked = xs.copy()
        spiked[2500] = 1e-4
        floors = (1e-2, 1e-8)
        clean_ends = shrink_support(ts, xs, floors, noise=1e-5)
        spiked_ends = shrink_support(ts, spiked, floors, noise=1e-5)
        assert spiked_ends[-1] == clean_ends[-1] == float(ts[xs >= 5e-5][-1])
        assert spiked_ends[:-1] == [float(ts[spiked >= rel][-1]) for rel in floors]
        assert spiked_ends[1] == 25.0

    def test_noise_end_on_a_grid_under_twenty_nodes(self):
        # adjacent nodes are no gap: the noise end of these 17 rows at the
        # decomposer's noise level is where the signal meets it, not t_lo
        ts = np.arange(710.0, 727.0)
        xs = 2.0 * np.exp(-(ts - 710.0)) + 3.0 * np.exp(-2.0 * (ts - 710.0))
        (end,) = shrink_support(ts, xs, (), noise=2.22e-6)
        assert end == 722.0

    def test_zero_signal_raises(self):
        sig = synthesize_samples(SymbolicTransient(), np.linspace(0, 5, 50))
        with pytest.raises(SignalVanished):
            shrink_support(sig.times, sig.values, (1e-8,))


class TestScanHorizons:
    @staticmethod
    def scripted(outcomes, calls):
        """A fit that plays back outcomes[t_hi]: raise an error, or return it."""
        def fit(t_hi):
            calls.append(t_hi)
            outcome = outcomes[t_hi]
            if isinstance(outcome, Exception):
                raise outcome
            return outcome
        return fit

    def test_lowest_score_wins_and_ties_keep_the_first(self):
        calls = []
        fit = self.scripted({1.0: (0.3, "a"), 2.0: (0.1, "b"), 3.0: (0.1, "c"),
                             4.0: (0.2, "d")}, calls)
        assert scan_horizons(fit, [1.0, 2.0, 3.0, 4.0], 0.0) == "b"
        assert calls == [1.0, 2.0, 3.0, 4.0]

    def test_declined_and_empty_horizons_passed_over(self):
        calls = []
        fit = self.scripted({2.0: None, 3.0: (0.5, "c"), 4.0: (0.9, "d")}, calls)
        # ends at or before t_lo = 1 give no horizon and never reach the fit
        assert scan_horizons(fit, [0.5, 1.0, 2.0, 3.0, 4.0], 1.0) == "c"
        assert calls == [2.0, 3.0, 4.0]

    def test_last_error_raised_again_when_nothing_fits(self):
        first, last = NonDecaying("first"), Diverging("last")
        fit = self.scripted({1.0: first, 2.0: None, 3.0: last, 4.0: None}, [])
        with pytest.raises(Diverging) as caught:
            scan_horizons(fit, [1.0, 2.0, 3.0, 4.0], 0.0)
        assert caught.value is last

    def test_any_fit_beats_the_errors(self):
        fit = self.scripted({1.0: SignalVanished("x"), 2.0: (7.0, "b")}, [])
        assert scan_horizons(fit, [1.0, 2.0], 0.0) == "b"

    @pytest.mark.parametrize("ends", [[2.0, 3.0], [0.0, 1.0], []])
    def test_signal_vanished_when_no_horizon_raised(self, ends):
        fit = self.scripted({2.0: None, 3.0: None}, [])
        with pytest.raises(SignalVanished):
            scan_horizons(fit, ends, 1.0)

    def test_adjacent_repeated_end_is_fitted_once(self):
        # shrink_support gives the ends in ascending order, so a repeat follows
        # its first and is passed over; a later repeat is fitted again, to the
        # same result
        calls = []
        fit = self.scripted({1.0: (0.3, "a"), 2.0: (0.4, "b")}, calls)
        assert scan_horizons(fit, [1.0, 1.0, 2.0, 2.0], 0.0) == "a"
        assert calls == [1.0, 2.0]
        calls.clear()
        assert scan_horizons(fit, [1.0, 2.0, 1.0, 1.0], 0.0) == "a"
        assert calls == [1.0, 2.0, 1.0]

    def test_repeated_end_raises_its_first_error_again(self):
        # the repeat of a failed end makes its error the latest once more:
        # passed over next to its first, whose error is still the latest, and
        # fitted again after another end
        first, second = NonDecaying("at 1"), SignalVanished("at 2")
        calls = []
        fit = self.scripted({1.0: first, 2.0: second}, calls)
        with pytest.raises(NonDecaying) as caught:
            scan_horizons(fit, [2.0, 1.0, 1.0], 0.0)
        assert caught.value is first
        assert calls == [2.0, 1.0]
        calls.clear()
        with pytest.raises(NonDecaying) as caught:
            scan_horizons(fit, [1.0, 2.0, 1.0], 0.0)
        assert caught.value is first
        assert calls == [1.0, 2.0, 1.0]

    def test_repeated_end_keeps_the_first_of_a_tie(self):
        calls = []
        fit = self.scripted({1.0: (0.2, "a"), 2.0: (0.1, "b"), 3.0: (0.1, "c")}, calls)
        assert scan_horizons(fit, [1.0, 2.0, 2.0, 3.0, 3.0], 0.0) == "b"
        assert calls == [1.0, 2.0, 3.0]
        calls.clear()
        assert scan_horizons(fit, [1.0, 2.0, 3.0, 2.0, 3.0], 0.0) == "b"
        assert calls == [1.0, 2.0, 3.0, 2.0, 3.0]

    def test_raised_error_leaves_no_reference_cycles(self):
        # the kept errors must not link the scan's frame to the error it raises
        import gc

        def fit(t_hi):
            raise (NonDecaying if t_hi == 1.0 else Diverging)(f"at {t_hi}")

        gc.collect()
        gc.disable()
        try:
            with pytest.raises(NonDecaying):
                scan_horizons(fit, [1.0, 2.0, 1.0], 0.0)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_other_errors_propagate_at_once(self):
        calls = []
        fit = self.scripted({1.0: ValueError("bad"), 2.0: (0.0, "b")}, calls)
        with pytest.raises(ValueError):
            scan_horizons(fit, [1.0, 2.0], 0.0)
        assert calls == [1.0]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 1001, 2000])
def test_fast_mean_is_ndarray_mean(n, rng):
    from transient_lab.tail_limits import _mean
    for x in (rng.normal(size=n), np.exp(-rng.uniform(0.0, 30.0, size=n)),
              np.log(rng.uniform(1e-12, 1.0, size=2 * n))[::2]):
        assert _mean(x) == x.mean()


# ---------------------------------------------------------------------------
# the estimators as they were when each sub-block was fitted on its own; the
# batched kernels must reproduce them bit for bit
# ---------------------------------------------------------------------------

def _reference_kept(ts, xs):
    mag = np.abs(xs)
    peak = mag.max() if len(mag) else 0.0
    if peak == 0.0:
        raise SignalVanished("signal is identically zero on the tail window")
    keep = mag > tail_limits.ABS_FLOOR * peak
    if keep.sum() < tail_limits.MIN_WINDOW_POINTS:
        raise SignalVanished(f"only {int(keep.sum())} tail samples above the floor, "
                             f"need {tail_limits.MIN_WINDOW_POINTS}")
    return ts[keep], xs[keep]


def _reference_mean(x):
    return np.add.reduce(x) / len(x)


def _reference_line_fit(t, y):
    tm, ym = _reference_mean(t), _reference_mean(y)
    dt = t - tm
    denom = float(np.dot(dt, dt))
    if not 0.0 < denom < math.inf:
        raise NonDecaying(f"the spread of the tail nodes {float(t[0])!r} .. {float(t[-1])!r} "
                          f"squares to {denom!r}; no decay rate can be fitted")
    slope = float(np.dot(dt, y - ym)) / denom
    return slope, ym - slope * tm


def _reference_blocks(n, nsub):
    if nsub == 1:
        return None
    length = n // 2
    step = (n - length) // (nsub - 1)
    if step < 1 or length < tail_limits.MIN_WINDOW_POINTS:
        return None
    return [(j * step, j * step + length) for j in range(nsub)]


def reference_rate(ts, values, support, passes):
    t_lo, t_hi = support
    bounds, window = tail_limits.tail_slice(ts, t_lo, t_hi)
    ts, xs = _reference_kept(ts[window], values[window])
    logs = np.log(np.abs(xs))
    blocks = _reference_blocks(len(ts), 2 * passes + 1)
    if blocks is None:
        slope, icpt = _reference_line_fit(ts, logs)
        rate = -slope
    else:
        slopes = [_reference_line_fit(ts[a:b], logs[a:b])[0] for a, b in blocks]
        rate = -tail_limits._extrapolate(slopes)
        icpt = float(_reference_mean(logs + rate * ts))
    if not math.isfinite(rate) or rate <= 0.0:
        raise NonDecaying(f"fitted tail slope is non-negative (rate {rate})")
    rms = float(np.sqrt(_reference_mean((logs - (icpt - rate * ts)) ** 2)))
    return RateEstimate(rate=float(rate), intercept=float(icpt), window=bounds, residual_rms=rms)


def reference_coefficient(ts, values, rate, support, passes):
    t_lo, t_hi = support
    _, window = tail_limits.tail_slice(ts, t_lo, t_hi)
    ts, xs = _reference_kept(ts[window], values[window])
    # exp(rate*t) * x(t) computed in log space to dodge overflow
    values = np.zeros_like(xs)
    nz = xs != 0.0
    values[nz] = np.sign(xs[nz]) * np.exp(rate * ts[nz] + np.log(np.abs(xs[nz])))
    if not np.all(np.isfinite(values)):
        raise Diverging("reweighted tail overflowed; decay rate is overestimated")
    scale = 2.0 ** max(math.frexp(float(np.abs(values).max()))[1] - 960, 0)
    values = values / scale
    quarter = max(len(values) // 4, 1)
    head = float(_reference_mean(np.abs(values[:quarter])))
    tail = float(_reference_mean(np.abs(values[-quarter:])))
    if head > 0.0 and tail / head > tail_limits.DIVERGE_FACTOR:
        raise Diverging(f"reweighted tail grows by {tail / head:.3g} across the window "
                        f"(limit {tail_limits.DIVERGE_FACTOR}); decay rate is overestimated")
    blocks = _reference_blocks(len(values), 2 * passes + 1)
    if blocks is None:
        return float(_reference_mean(values)) * scale
    means = [float(_reference_mean(values[a:b])) for a, b in blocks]
    return float(tail_limits._extrapolate(means)) * scale


def reference_ends(ts, values, rel_floors, noise):
    # one mask and one fancy index per floor
    mag = np.abs(values)
    peak = mag.max()
    ends = [float(ts[mag >= rel * peak][-1]) for rel in rel_floors]
    if noise > 1e-9 * peak:
        above = np.flatnonzero(mag >= min(0.5, 5.0 * noise / peak) * peak)
        gaps = np.flatnonzero(np.diff(above) > max(len(ts) // 20, 1))
        ends.append(float(ts[above[gaps[0]] if len(gaps) else above[-1]]))
    return ends


def outcome(f, *args):
    """What f(*args) returned, or the type and message of what it raised."""
    try:
        return f(*args)
    except (SignalVanished, NonDecaying, Diverging) as exc:
        return type(exc), str(exc)


@st.composite
def tail_windows(draw):
    """Grid nodes on [T, 2T], so the support (0, 2T) puts all of them in the
    fit window, with two decaying terms, noise, zeroed samples, and nodes
    that are uniform or geometric, contiguous or a strided view; with the
    window, the slowest rate and the noise level."""
    n = draw(st.integers(8, 4001))
    horizon = draw(st.floats(0.5, 60.0))
    if draw(st.booleans()):
        ts = np.linspace(horizon, 2.0 * horizon, n)
    else:
        ts = np.geomspace(horizon, 2.0 * horizon, n)
    if draw(st.booleans()):
        wide = np.empty(2 * n)
        wide[::2] = ts
        ts = wide[::2]                  # the same nodes, not contiguous
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rate = draw(st.floats(0.05, 3.0))
    xs = draw(st.floats(0.1, 5.0)) * np.exp(-rate * ts)
    xs += draw(st.floats(-5.0, 5.0)) * np.exp(-(rate + draw(st.floats(0.1, 3.0))) * ts)
    sigma = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-4, 1e-2]))
    xs += sigma * np.abs(xs).max() * rng.normal(size=n)
    holes = draw(st.integers(0, 3))
    xs[rng.integers(0, n, size=holes)] = 0.0
    return ts, xs, (0.0, 2.0 * horizon), rate, sigma * np.abs(xs).max()


class TestKernelParity:
    @given(window=tail_windows())
    @settings(max_examples=80)
    def test_estimators_equal_the_per_block_loop(self, window):
        ts, xs, support, rate, noise = window
        for passes in (0, 1, 2):
            got = outcome(estimate_rate, ts, xs, support, passes)
            assert got == outcome(reference_rate, ts, xs, support, passes)
            assert (outcome(estimate_coefficient, ts, xs, rate, support, passes)
                    == outcome(reference_coefficient, ts, xs, rate, support, passes))
        floors = (1e-4, 1e-8, 1e-12, 0.5, 1.0)
        if np.any(xs):
            assert (shrink_support(ts, xs, floors, noise)
                    == reference_ends(ts, xs, floors, noise))
        # several supports fitted on the values, then a second residual on the
        # same grid, one more zero in it
        t_end = support[1]
        supports = [support, (0.0, 0.8 * t_end), (0.5 * t_end, t_end),
                    (0.25 * t_end, 0.95 * t_end), support]
        faster = xs * np.exp(-0.5 * (ts - ts[0]))
        faster[len(faster) // 3] = 0.0
        for values in (xs, faster):
            self.check_supports(ts, values, rate, supports)

    @staticmethod
    def check_supports(ts, values, rate, supports):
        """Every fit of values over each of supports, at 0, 1 and 2 passes, equals
        the per-block loop's."""
        for passes in (0, 1, 2):
            for support in supports:
                assert (outcome(estimate_rate, ts, values, support, passes)
                        == outcome(reference_rate, ts, values, support, passes))
                assert (outcome(estimate_coefficient, ts, values, rate, support, passes)
                        == outcome(reference_coefficient, ts, values, rate, support, passes))

    @pytest.mark.parametrize("passes", [0, 1, 2])
    def test_zero_spread_message_unchanged(self, passes):
        ts = np.arange(200) * 1e-200
        support = (0.0, float(ts[-1]))
        got = outcome(estimate_rate, ts, np.exp(-ts), support, passes)
        assert got == outcome(reference_rate, ts, np.exp(-ts), support, passes)
        assert got[0] is NonDecaying and "squares to 0.0" in got[1]

    def test_kept_window_is_a_view_when_nothing_is_dropped(self):
        ts = np.linspace(0.0, 10.0, 101)
        xs = np.exp(-ts)
        kept_ts, kept_xs, mag = tail_limits._kept(ts[50:], xs[50:])
        assert np.shares_memory(kept_ts, ts) and np.shares_memory(kept_xs, xs)
        assert np.array_equal(mag, np.abs(xs[50:]))
        xs[70] = 0.0
        kept_ts, kept_xs, mag = tail_limits._kept(ts[50:], xs[50:])
        assert len(kept_ts) == 50 and not np.shares_memory(kept_xs, xs)
