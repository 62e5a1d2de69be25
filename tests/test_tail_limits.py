import math

import numpy as np
import pytest

from transient_lab import (Diverging, NonDecaying, SignalSource, SignalVanished,
                           SymbolicTransient, TailFitConfig, estimate_coefficient,
                           estimate_rate, evaluate_many, rate_sequence, shrink_support,
                           synthesize_samples)
from transient_lab.signal_core import evaluation_grid
from transient_lab.tail_limits import horizon_ends, scan_horizons

from conftest import random_transient


def source_of(terms):
    return SignalSource.from_symbolic(SymbolicTransient(terms))


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            TailFitConfig(fit_order="cubic")


class TestEstimateRate:
    def test_single_exponential_exact(self):
        est = estimate_rate(source_of(((3.0, 1.0),)), (0.0, 20.0))
        assert est.rate == pytest.approx(3.0, abs=1e-9)
        assert est.residual_rms < 1e-12

    def test_two_term_within_contamination_bound(self):
        # slowest rate 1, gap 1: contamination (3/2) e^{-t} at the window start
        est = estimate_rate(source_of(((1.0, 2.0), (2.0, 3.0))), (0.0, 40.0),
                            TailFitConfig(fit_order="slope_fit"))
        assert est.rate == pytest.approx(1.0, abs=1e-6)
        a = est.window[0]
        bound = 12.0 * (3.0 / 2.0) * math.exp(-1.0 * a) / a
        assert abs(est.rate - 1.0) <= bound

    def test_sparse_window_vanishes(self):
        # the window (9.5, 19) holds one node; nothing is invented between nodes
        sig = synthesize_samples(SymbolicTransient(((0.5, 1.0),)), np.array([0.0, 10.0, 20.0]))
        with pytest.raises(SignalVanished, match="only 1 tail samples"):
            estimate_rate(SignalSource.from_sampled(sig), (0.0, 19.0))

    def test_zero_signal_vanished(self):
        sig = synthesize_samples(SymbolicTransient(), np.linspace(0, 10, 101))
        with pytest.raises(SignalVanished):
            estimate_rate(SignalSource.from_sampled(sig), (0.0, 10.0))

    def test_growing_signal_non_decaying(self):
        src = SignalSource.from_evaluator(lambda ts: np.exp(0.1 * np.asarray(ts)))
        with pytest.raises(NonDecaying):
            estimate_rate(src, (0.0, 10.0))

    def test_intercept_estimates_log_coefficient(self):
        est = estimate_rate(source_of(((0.7, 5.0),)), (0.0, 30.0))
        assert est.intercept == pytest.approx(math.log(5.0), abs=1e-9)

    def test_bad_support_rejected(self):
        with pytest.raises(ValueError):
            estimate_rate(source_of(((1.0, 1.0),)), (5.0, 5.0))

    def test_exactness_on_log_spaced_grid(self):
        for lam in np.geomspace(0.1, 8.0, 12):
            for alpha in (-3.0, 0.05, 2.0):
                support = (0.0, 25.0 / lam)
                est = estimate_rate(source_of(((lam, alpha),)), support)
                assert abs(est.rate - lam) < 1e-9 * max(1.0, lam)


class TestEstimateCoefficient:
    def test_constant_sequence(self):
        value = estimate_coefficient(source_of(((2.0, 5.0),)), 2.0, (0.0, 20.0))
        assert value == pytest.approx(5.0, abs=1e-10)

    def test_two_term_within_bound(self):
        value = estimate_coefficient(source_of(((1.0, 2.0), (2.0, 3.0))), 1.0, (0.0, 40.0),
                                     TailFitConfig(fit_order="slope_fit"))
        assert value == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("fit_order", ["slope_fit", "richardson_2"])
    def test_coefficient_near_the_float_limit(self, fit_order):
        # the window's values sum past 1.8e308 although their mean does not
        value = estimate_coefficient(source_of(((1.0, 1e308),)), 1.0, (0.0, 2.0),
                                     TailFitConfig(fit_order=fit_order))
        assert value == pytest.approx(1e308, rel=1e-12)

    def test_overestimated_rate_diverges(self):
        with pytest.raises(Diverging):
            estimate_coefficient(source_of(((1.0, 1.0),)), 2.0, (0.0, 20.0))

    def test_negative_coefficient_sign(self):
        value = estimate_coefficient(source_of(((1.5, -4.0),)), 1.5, (0.0, 20.0))
        assert value == pytest.approx(-4.0, abs=1e-10)

    def test_exactness_on_log_spaced_grid(self):
        for lam in np.geomspace(0.1, 8.0, 12):
            for alpha in (-3.0, 0.05, 2.0):
                support = (0.0, 25.0 / lam)
                value = estimate_coefficient(source_of(((lam, alpha),)), lam, support)
                assert abs(value - alpha) < 1e-9 * max(1.0, abs(alpha))

    def test_fast_term_perturbation_bound(self, rng):
        # adding a much faster term moves the estimate by at most its window max
        cfg = TailFitConfig(fit_order="slope_fit")
        for _ in range(10):
            lam = rng.uniform(0.5, 1.5)
            alpha = rng.uniform(0.5, 3.0)
            extra_rate = lam + rng.uniform(1.0, 3.0)
            extra_coeff = rng.uniform(-2.0, 2.0)
            support = (0.0, 30.0)
            base = estimate_coefficient(source_of(((lam, alpha),)), lam, support, cfg)
            mixed_terms = tuple(sorted([(lam, alpha), (extra_rate, extra_coeff)]))
            mixed = estimate_coefficient(source_of(mixed_terms), lam, support, cfg)
            window_start = support[1] - 0.5 * support[1]
            bound = abs(extra_coeff) * math.exp(-(extra_rate - lam) * window_start)
            assert abs(mixed - base) <= bound * (1 + 1e-9) + 1e-12


class TestRichardsonVariants:
    def test_improves_on_slope_fit(self):
        src = source_of(((1.0, 2.0), (1.6, 3.0)))
        support = (0.0, 24.0)
        plain = abs(estimate_rate(src, support, TailFitConfig(fit_order="slope_fit")).rate - 1.0)
        acc1 = abs(estimate_rate(src, support, TailFitConfig(fit_order="richardson_1")).rate - 1.0)
        assert acc1 < plain

    def test_exact_for_single_term(self):
        for order in ("richardson_1", "richardson_2"):
            est = estimate_rate(source_of(((2.5, 1.5),)), (0.0, 15.0),
                                TailFitConfig(fit_order=order))
            assert est.rate == pytest.approx(2.5, abs=1e-9)


class TestHorizonDoubling:
    def test_error_never_grows(self, rng):
        cfg = TailFitConfig(fit_order="slope_fit")
        for _ in range(10):
            sig = random_transient(rng, 2, rate_lo=0.8, rate_start_hi=1.2,
                                   gap_lo=0.5, gap_hi=1.0, coeff_lo=0.5, coeff_hi=3.0)
            lam = sig.terms[0][0]
            prev = None
            for horizon in (10.0, 20.0, 40.0):
                err = abs(estimate_rate(SignalSource.from_symbolic(sig),
                                        (0.0, horizon), cfg).rate - lam)
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
        cfg = TailFitConfig(fit_order="slope_fit")
        for _ in range(15):
            lam = rng.uniform(0.5, 1.5)
            gap = rng.uniform(0.5, 2.0)
            a1 = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
            a2 = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
            sig = SymbolicTransient(((lam, a1), (lam + gap, a2)))
            support = (0.0, 24.0)
            est = estimate_rate(SignalSource.from_symbolic(sig), support, cfg)
            t_start = est.window[0]
            constant = 12.0 * abs(a2) / abs(a1)
            bound = constant * math.exp(-gap * t_start) / t_start
            assert abs(est.rate - lam) <= bound + 1e-12


class TestShrinkSupport:
    def test_trims_to_relative_floor(self):
        (hi,) = shrink_support(source_of(((1.0, 1.0),)), (0.0, 100.0), (1e-8,))
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
        ts = evaluation_grid(source, support)
        mag = np.abs(evaluate_many(source, ts))
        peak = mag.max()
        want = [float(ts[mag >= rel * peak][-1]) for rel in self.FLOORS]
        ends = shrink_support(source, support, self.FLOORS)
        assert ends == want
        assert ends[-1] == support[0]

    def test_noise_adds_one_end_where_the_signal_meets_it(self):
        ts = np.linspace(0.0, 30.0, 3001)
        xs = np.exp(-ts)
        (end,) = horizon_ends(ts, xs, (), noise=1e-5)
        assert end == float(ts[xs >= 5e-5][-1])
        assert horizon_ends(ts, xs, (1e-8,), noise=1e-10) == horizon_ends(ts, xs, (1e-8,))

    def test_lone_spike_past_the_noise_crossing_leaves_the_noise_end(self):
        # one sample clearing five times the noise far out in the tail is
        # noise, not signal; the relative floors still end at their last node
        ts = np.linspace(0.0, 30.0, 3001)
        xs = np.exp(-ts)
        spiked = xs.copy()
        spiked[2500] = 1e-4
        floors = (1e-2, 1e-8)
        clean_ends = horizon_ends(ts, xs, floors, noise=1e-5)
        spiked_ends = horizon_ends(ts, spiked, floors, noise=1e-5)
        assert spiked_ends[-1] == clean_ends[-1] == float(ts[xs >= 5e-5][-1])
        assert spiked_ends[:-1] == [float(ts[spiked >= rel][-1]) for rel in floors]
        assert spiked_ends[1] == 25.0

    def test_zero_signal_raises(self):
        sig = synthesize_samples(SymbolicTransient(), np.linspace(0, 5, 50))
        with pytest.raises(SignalVanished):
            shrink_support(SignalSource.from_sampled(sig), (0.0, 5.0), (1e-8,))


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

    def test_each_distinct_end_is_fitted_once(self):
        calls = []
        fit = self.scripted({1.0: (0.3, "a"), 2.0: (0.4, "b")}, calls)
        assert scan_horizons(fit, [1.0, 2.0, 1.0, 1.0], 0.0) == "a"
        assert calls == [1.0, 2.0]

    def test_repeated_end_raises_its_first_error_again(self):
        # the repeat of a failed end makes its error the latest once more,
        # exactly as fitting it again would
        first, second = NonDecaying("at 1"), SignalVanished("at 2")
        calls = []
        fit = self.scripted({1.0: first, 2.0: second}, calls)
        with pytest.raises(NonDecaying) as caught:
            scan_horizons(fit, [1.0, 2.0, 1.0], 0.0)
        assert caught.value is first
        assert calls == [1.0, 2.0]

    def test_repeated_end_keeps_the_first_of_a_tie(self):
        calls = []
        fit = self.scripted({1.0: (0.2, "a"), 2.0: (0.1, "b"), 3.0: (0.1, "c")}, calls)
        assert scan_horizons(fit, [1.0, 2.0, 3.0, 2.0, 3.0], 0.0) == "b"
        assert calls == [1.0, 2.0, 3.0]

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


class TestSampledWindow:
    # a sampled source is read on its own nodes by slicing; the same samples
    # served by an evaluator on the same grid take the interpolating path.
    # The supports put the window bounds on nodes and between them.
    @pytest.mark.parametrize("support", [(0.0, 20.0), (0.013, 17.3377), (1.0, 9.99)])
    @pytest.mark.parametrize("fit_order", ["slope_fit", "richardson_2"])
    def test_slice_matches_interpolated_reads(self, support, fit_order):
        sig = SymbolicTransient(((0.7, 1.5), (1.9, -0.8)))
        times = np.arange(0.0, 20.0 + 1e-9, 0.01)
        samples = synthesize_samples(sig, times, noise_sigma=1e-9, seed=4)
        sampled = SignalSource.from_sampled(samples)
        served = SignalSource.from_evaluator(
            lambda ts: np.interp(ts, samples.times, samples.values),
            support=samples.support, grid=times)
        cfg = TailFitConfig(fit_order=fit_order)
        got, want = estimate_rate(sampled, support, cfg), estimate_rate(served, support, cfg)
        assert got == want
        assert (estimate_coefficient(sampled, got.rate, support, cfg)
                == estimate_coefficient(served, want.rate, support, cfg))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 1001, 2000])
def test_fast_mean_is_ndarray_mean(n, rng):
    from transient_lab.tail_limits import _mean
    for x in (rng.normal(size=n), np.exp(-rng.uniform(0.0, 30.0, size=n)),
              np.log(rng.uniform(1e-12, 1.0, size=2 * n))[::2]):
        assert _mean(x) == x.mean()
