import json
import math
from pathlib import Path

import numpy as np
import pytest

from transient_lab import (DecompositionResult, Diverging, NonDecaying, QuadratureConfig,
                           SampledSignal, SignalSource, StoppingPolicy, SymbolicTransient,
                           TailFitConfig, TermDiagnostics, TransientLabError,
                           decompose_exact, decompose_numeric, load_signal_spec,
                           shrink_support, synthesize_samples)

from conftest import random_transient
from test_acceptance import SEED, three_term_family

DATA = Path(__file__).resolve().parent.parent / "data"


class TestDecomposeExact:
    def test_two_term_identity(self):
        sig = SymbolicTransient(((1.0, 2.0), (2.0, 3.0)))
        result = decompose_exact(sig)
        assert result.terms == ((1.0, 2.0), (2.0, 3.0))
        assert result.terminal_residual_norm == 0.0

    def test_empty_signal(self):
        result = decompose_exact(SymbolicTransient())
        assert result.terms == ()
        assert result.termination_reason == "signal_vanished"

    def test_random_terms_come_back_verbatim(self, rng):
        for _ in range(10):
            sig = random_transient(rng, 5)
            result = decompose_exact(sig)
            assert result.terms == sig.terms   # generating parameters are the oracle

    def test_non_canonical_rejected(self):
        with pytest.raises(ValueError, match="canonical"):
            decompose_exact(SymbolicTransient(((1.0, 0.0), (2.0, 1.0))))

    def test_exact_diagnostics_flag_mode(self):
        result = decompose_exact(SymbolicTransient(((1.0, 1.0),)))
        assert all(d.mode == "exact" for d in result.diagnostics)


class TestDecompositionResult:
    def test_result_validates_rate_order(self):
        with pytest.raises(ValueError, match="increasing"):
            DecompositionResult(
                terms=((2.0, 1.0), (1.0, 1.0)),
                diagnostics=(TermDiagnostics(0.0, None, "exact"),) * 2,
                terminal_residual_norm=0.0,
                termination_reason="max_terms")


class TestDecomposeNumeric:
    def test_two_term_samples(self):
        sig = SymbolicTransient(((1.0, 2.0), (2.0, 3.0)))
        samples = synthesize_samples(sig, np.arange(0.0, 40.0 + 1e-9, 0.01))
        result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
        assert len(result.terms) == 2
        for (got_r, got_c), (want_r, want_c) in zip(result.terms, sig.terms):
            assert got_r == pytest.approx(want_r, abs=1e-3)
            assert got_c == pytest.approx(want_c, abs=1e-3)

    def test_single_term_then_floor(self):
        sig = SymbolicTransient(((1.0, 1.0),))
        samples = synthesize_samples(sig, np.arange(0.0, 40.0 + 1e-9, 0.01))
        result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
        assert len(result.terms) == 1
        assert result.termination_reason in ("residual_floor", "signal_vanished")
        assert result.terms[0][0] == pytest.approx(1.0, abs=1e-6)

    def test_residual_tail_below_its_floor_ends_the_loop(self):
        # rates 0.007 apart merge into one term; no refit reaches rounding,
        # and the loop ends once the residual's tail sinks below
        # RESIDUAL_FLOOR of the signal's (without that stop it runs on to
        # a dozen terms)
        rates = (0.1738631586605054, 3.52467814503262, 3.5318379478231834, 4.448779913376774)
        coeffs = (-1.5692382165806391, 0.7642235779180151, 2.0332953475528814,
                  1.326169818907923)
        samples = synthesize_samples(SymbolicTransient(tuple(zip(rates, coeffs))),
                                     np.linspace(0.0, 40.0, 4001))
        result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
        assert result.termination_reason == "residual_floor"
        assert [d.mode for d in result.diagnostics] == ["numeric"] * 3
        got_rates = [rate for rate, _ in result.terms]
        assert got_rates == pytest.approx([rates[0], 3.5298, 4.4468], abs=1e-4)
        assert result.terms[1][1] == pytest.approx(2.796, abs=1e-3)
        assert result.residual_rms == pytest.approx(9.34e-5, rel=0.01)

    def test_close_rates_fail_as_predicted(self):
        # gap 0.05 on a horizon of 20: the contamination at the window start,
        # exp(-0.05 * 10) = 0.61, sits far above any usable fit tolerance,
        # so resolving the pair is out of reach for the tail estimates
        assert math.exp(-0.05 * 10.0) > 0.5
        sig = SymbolicTransient(((1.0, 2.0), (1.05, 3.0)))
        samples = synthesize_samples(sig, np.arange(0.0, 20.0 + 1e-9, 0.005))
        try:
            result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
        except TransientLabError:
            return  # estimation refused outright: acceptable
        resolved = (len(result.terms) >= 2
                    and abs(result.terms[0][0] - 1.0) < 1e-3
                    and abs(result.terms[1][0] - 1.05) < 1e-3
                    and abs(result.terms[0][1] - 2.0) < 1e-2
                    and abs(result.terms[1][1] - 3.0) < 1e-2)
        assert not resolved

    def test_zero_signal_vanishes(self):
        samples = synthesize_samples(SymbolicTransient(), np.linspace(0.0, 10.0, 200))
        result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
        assert result.terms == ()
        assert result.termination_reason == "signal_vanished"

    def test_residual_tail_norms_strictly_decrease(self, rng):
        # strict decrease per subtraction, down to the rounding scale of the
        # window evaluation itself (1e-12 of the initial tail norm), below
        # which successive residuals are subtraction noise
        for _ in range(5):
            sig = random_transient(rng, 3, rate_lo=0.3, rate_start_hi=0.6)
            horizon = 40.0 / sig.terms[0][0]
            samples = synthesize_samples(sig, np.linspace(0.0, horizon, 4000))
            result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
            norms = result.iteration_tail_norms
            assert len(norms) >= 3
            rounding = 1e-12 * norms[0]
            for before, after in zip(norms, norms[1:]):
                assert after < before or after < rounding

    def test_rates_strictly_increase(self, rng):
        sig = random_transient(rng, 4, rate_lo=0.3, rate_start_hi=0.5, gap_lo=0.6)
        horizon = 40.0 / sig.terms[0][0]
        samples = synthesize_samples(sig, np.linspace(0.0, horizon, 6000))
        result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
        rates = [r for r, _ in result.terms]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_numeric_consistency_first_three_terms(self, rng):
        # noiseless dense sampling, gaps >= 0.5, horizon 40 / slowest rate
        for _ in range(8):
            sig = random_transient(rng, 3, rate_lo=0.25, rate_start_hi=0.7)
            horizon = 40.0 / sig.terms[0][0]
            samples = synthesize_samples(sig, np.linspace(0.0, horizon, 4000))
            result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
            assert len(result.terms) == 3
            for (got_r, got_c), (want_r, want_c) in zip(result.terms, sig.terms):
                assert abs(got_r - want_r) <= 1e-3 * max(1.0, abs(want_r))
                assert abs(got_c - want_c) <= 1e-3 * abs(want_c)

    def test_evaluator_source_without_grid(self):
        sig = SymbolicTransient(((0.8, 1.5), (1.6, -2.0)))
        src = SignalSource.from_evaluator(sig, support=(0.0, 50.0))
        result = decompose_numeric(src, (0.0, 50.0))
        assert len(result.terms) == 2
        assert result.terms[0][0] == pytest.approx(0.8, abs=1e-6)
        assert result.terms[1][1] == pytest.approx(-2.0, abs=1e-6)

    def test_max_terms_cap(self):
        sig = SymbolicTransient(((0.5, 2.0), (1.1, 1.0), (1.8, -1.5)))
        samples = synthesize_samples(sig, np.linspace(0.0, 80.0, 4000))
        stop = StoppingPolicy(max_terms=2)
        result = decompose_numeric(SignalSource.from_sampled(samples), samples.support,
                                   stop=stop)
        assert len(result.terms) <= 2
        assert result.termination_reason == "max_terms"

    def test_custom_tail_config_is_honored(self):
        sig = SymbolicTransient(((1.0, 2.0), (2.0, 3.0)))
        samples = synthesize_samples(sig, np.arange(0.0, 40.0 + 1e-9, 0.01))
        cfg = TailFitConfig(fit_order="slope_fit")
        result = decompose_numeric(SignalSource.from_sampled(samples), samples.support, cfg)
        assert result.terms[0][0] == pytest.approx(1.0, abs=1e-3)

    def test_overflowing_residual_raises_diverging(self):
        # 1e308 e^-t that flips sign at t = 20: the term read off before the
        # flip, subtracted after it, overflows the residual; pytest turns a
        # numpy overflow warning into an error, so only Diverging may come out
        ts = np.linspace(0.0, 40.0, 4001)
        samples = SampledSignal(ts, np.where(ts < 20.0, 1e308, -1e308) * np.exp(-ts))
        with pytest.raises(Diverging, match="overflows"):
            decompose_numeric(SignalSource.from_sampled(samples), samples.support)

    def test_stopping_policy_validation(self):
        with pytest.raises(ValueError):
            StoppingPolicy(max_terms=0)

    @pytest.mark.parametrize("kind, name", [(StoppingPolicy, "max_terms"),
                                            (QuadratureConfig, "nodes")])
    def test_integer_fields_take_integers_only(self, kind, name):
        assert getattr(kind(**{name: np.int64(4)}), name) == 4
        for value in (2.5, 4.0, True, "4"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                kind(**{name: value})


class TestNoisyData:
    def test_first_term_recovered_under_noise(self):
        # noise blocks the relative residual floor, so accuracy is
        # noise-limited; the dominant term comes out at the few-percent level
        # however the loop ends
        sig = SymbolicTransient(((1.0, 2.0), (2.0, 3.0)))
        grid = np.arange(0.0, 40.0 + 1e-9, 0.01)
        recovered = 0
        for seed in range(5):
            samples = synthesize_samples(sig, grid, noise_sigma=1e-3, seed=seed)
            try:
                result = decompose_numeric(SignalSource.from_sampled(samples),
                                           samples.support)
            except TransientLabError:
                continue
            if result.terms and abs(result.terms[0][0] - 1.0) < 0.05:
                recovered += 1
        assert recovered >= 4

    def test_lone_outlier_does_not_end_the_noise_horizon(self):
        # this set's only sample past t = 6.3 above five times the noise sits at
        # t = 26.98; ending the noise horizon there left no decaying window
        sig = SymbolicTransient(((1.0, 2.0), (2.0, 3.0)))
        samples = synthesize_samples(sig, np.linspace(0.0, 40.0, 4001),
                                     noise_sigma=1e-3, seed=23856)
        result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
        assert result.terms[0][0] == pytest.approx(1.0, abs=0.05)


def two_term_samples(sigma, sigma_index, trial=0):
    """data/two_term.json on compare's default grid, with the noise of compare's
    seed rule seed + 7919 * sigma_index + trial at --seed 0."""
    return synthesize_samples(load_signal_spec(DATA / "two_term.json"),
                              np.linspace(0.0, 40.0, 4001), noise_sigma=sigma,
                              seed=7919 * sigma_index + trial)


class TestNoiseHorizon:
    """With a measured noise level, no horizon past the noise end is fitted."""

    @staticmethod
    def scans(monkeypatch, samples):
        """(ends, fitted) per horizon scan of one decomposition: the ends
        shrink_support gave the scan, and the end of each rate fit it ran."""
        import transient_lab.decomposer as decomposer

        scans = []
        real_shrink, real_rate = decomposer.shrink_support, decomposer.estimate_rate

        def shrink(ts, values, rel_floors, noise=0.0):
            ends = real_shrink(ts, values, rel_floors, noise)
            if rel_floors == decomposer.HORIZON_FLOORS:
                scans.append((ends, []))
            return ends

        def rate(ts, values, support, cfg=None, **kwargs):
            scans[-1][1].append(support[1])
            return real_rate(ts, values, support, cfg, **kwargs)

        monkeypatch.setattr(decomposer, "shrink_support", shrink)
        monkeypatch.setattr(decomposer, "estimate_rate", rate)
        decompose_numeric(SignalSource.from_sampled(samples), samples.support)
        return scans

    @staticmethod
    def distinct(ends):
        """The ends scan_horizons fits, in order, on a support from t = 0."""
        return [t for i, t in enumerate(ends) if t > 0.0 and t not in ends[:i]]

    def test_noisy_fits_end_at_or_before_the_noise_end(self, monkeypatch):
        from transient_lab.decomposer import HORIZON_FLOORS

        scans = self.scans(monkeypatch, two_term_samples(1e-4, 2))
        assert scans and all(len(ends) == len(HORIZON_FLOORS) + 1 for ends, _ in scans)
        # every scan has floor ends in the noise: the filter has work to do
        assert all(max(ends[:-1]) > ends[-1] for ends, _ in scans)
        for ends, fitted in scans:
            assert all(t_hi <= ends[-1] for t_hi in fitted)
            assert fitted == self.distinct([t for t in ends if t <= ends[-1]])

    def test_clean_fits_are_the_floor_ends(self, monkeypatch):
        from transient_lab.decomposer import HORIZON_FLOORS

        scans = self.scans(monkeypatch, two_term_samples(0.0, 0))
        assert scans
        for ends, fitted in scans:
            assert len(ends) == len(HORIZON_FLOORS)     # no noise end on clean input
            assert fitted == self.distinct(ends)

    def test_noise_end_at_the_support_start_vanishes(self):
        # a spike at t = 0 in noise: the noise end is the first node, and the
        # floor ends all lie in the noise, where a fit of log|noise| once
        # raised NonDecaying out of the first iteration (this seed)
        from transient_lab.decomposer import HORIZON_FLOORS, _noise_level

        samples = synthesize_samples(SymbolicTransient(((2000.0, 1.0),)),
                                     np.linspace(0.0, 40.0, 4001), noise_sigma=1e-3, seed=2)
        ends = shrink_support(samples.times, samples.values, HORIZON_FLOORS,
                              _noise_level(samples.values))
        assert ends[-1] <= samples.support[0]
        result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
        assert result.terms == ()
        assert result.termination_reason == "signal_vanished"

    # summed |term count - 2| over trials 0..9 at each sigma, as the parent
    # of this filter gave it; the filter must not invent more terms
    PARENT_COUNT_ERRORS = {1e-6: 75, 1e-4: 50, 1e-3: 53}

    @pytest.mark.parametrize("sigma_index, sigma", [(1, 1e-6), (2, 1e-4), (3, 1e-3)])
    def test_term_count_error_no_worse(self, sigma_index, sigma):
        errors = 0
        for trial in range(10):
            samples = two_term_samples(sigma, sigma_index, trial)
            result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
            errors += abs(len(result.terms) - 2)
        assert errors <= self.PARENT_COUNT_ERRORS[sigma]


class TestHorizonFloors:
    """Each horizon floor seeds a decomposition that the others cannot: with
    it dropped, one seeded input no longer returns its true rates."""

    @staticmethod
    def clean_three_term():
        # the twelfth draw of the pinned family: without the deep floor the
        # tail fits misread its faster terms, and four terms come back
        rng = np.random.default_rng(SEED + 13)
        for _ in range(12):
            signal, _, grid = three_term_family(rng)
        return signal, synthesize_samples(signal, grid)

    @staticmethod
    def noisy_two_term():
        # sigma=1e-6, trial 3: without the shallow floor only the noise end
        # is fitted (the deep floor's end lies past it), and one term comes
        # back
        return load_signal_spec(DATA / "two_term.json"), two_term_samples(1e-6, 1, trial=3)

    @pytest.mark.parametrize("inputs, floor", [(clean_three_term, 1e-12),
                                               (noisy_two_term, 1e-4)],
                             ids=["clean_needs_1e-12", "noisy_needs_1e-4"])
    def test_each_floor_earns_its_place(self, monkeypatch, inputs, floor):
        import transient_lab.decomposer as decomposer

        signal, samples = inputs()
        true_rates = pytest.approx([rate for rate, _ in signal.terms], rel=0.0, abs=1e-3)

        def rates():
            result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
            return [rate for rate, _ in result.terms]

        assert floor in decomposer.HORIZON_FLOORS
        assert rates() == true_rates
        monkeypatch.setattr(decomposer, "HORIZON_FLOORS",
                            tuple(f for f in decomposer.HORIZON_FLOORS if f != floor))
        assert rates() != true_rates


class TestNoiseStop:
    """A joint refit of the held terms ends the loop as soon as they explain
    the samples to within their measured noise or, on clean input, to
    rounding."""

    @pytest.mark.parametrize("sigma_index, sigma", [(1, 1e-6), (2, 1e-4), (3, 1e-3)])
    def test_true_count_under_noise(self, sigma_index, sigma):
        true_rates = [rate for rate, _ in load_signal_spec(DATA / "two_term.json").terms]
        hits, worst = 0, 0.0
        for trial in range(20):
            samples = two_term_samples(sigma, sigma_index, trial)
            result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
            if len(result.terms) == 2:
                hits += 1
                worst = max(worst, *(abs(rate - true) for (rate, _), true
                                     in zip(result.terms, true_rates)))
        assert hits >= 19
        assert worst <= 10.0 * sigma

    def test_clean_input_ends_at_the_rounding_floor(self, refit_sizes):
        # clean input refits too: its goal is the rounding floor, and the
        # refit lands every rate far inside what the tail estimates reach
        from transient_lab.decomposer import ROUNDING_FLOOR

        rng = np.random.default_rng(SEED + 13)
        inputs = []
        for _ in TestPinnedTerms.THREE_TERM:
            signal, _, grid = three_term_family(rng)
            inputs.append((signal, grid))
        inputs.append((load_signal_spec(DATA / "two_term.json"), np.linspace(0.0, 40.0, 4001)))
        for signal, grid in inputs:
            samples = synthesize_samples(signal, grid)
            result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
            assert result.termination_reason == "residual_floor"
            assert {d.mode for d in result.diagnostics} == {"refit"}
            assert result.residual_rms <= ROUNDING_FLOOR * np.abs(samples.values).max()
            assert [r for r, _ in result.terms] == pytest.approx(
                [r for r, _ in signal.terms], rel=0.0, abs=1e-9)
        # one refit an extraction: each three-term input lands at size 3, the
        # two-term one at size 2
        assert refit_sizes == [1, 2, 3, 1, 2, 3, 1, 2]

    @pytest.mark.parametrize("values", [
        lambda t: 2.0 * np.exp(-t) + 3.0 * np.exp(-1.1 * t),   # rates too close to extract
        lambda t: 1.0 / (1.0 + t) ** 2,                        # a power law
        lambda t: t * np.exp(-t) + np.exp(-2.0 * t),           # a repeated pole
    ], ids=["close_pair", "power_law", "repeated_pole"])
    def test_clean_input_that_never_fits_stops_refitting(self, refit_sizes, values):
        # no extraction seeds a joint fit to rounding here; two refits in a
        # row that end no lower than the best stop the refits, long before
        # the term budget of 16 runs out
        grid = np.arange(0.0, 40.0 + 1e-9, 0.01)
        samples = SampledSignal(grid, values(grid))
        result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
        assert {d.mode for d in result.diagnostics} == {"numeric"}
        assert 0 < len(refit_sizes) <= 8
        assert refit_sizes == list(range(1, len(refit_sizes) + 1))

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_stop_reads_alike_at_any_scale(self, scale):
        # the squared noise of these samples times 1e-200 underflows to zero;
        # the refit compares sums of squares in units of the peak, so it
        # reads the scaled samples as it reads the originals
        samples = two_term_samples(1e-4, 2)
        scaled = SampledSignal(samples.times, samples.values * scale)
        want = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
        got = decompose_numeric(SignalSource.from_sampled(scaled), scaled.support)
        assert got.termination_reason == want.termination_reason == "residual_floor"
        assert [r for r, _ in got.terms] == pytest.approx([r for r, _ in want.terms], rel=1e-6)
        assert [c / scale for _, c in got.terms] == pytest.approx([c for _, c in want.terms],
                                                                  rel=1e-6)

    def test_refits_end_once_they_stop_improving(self, refit_sizes):
        # rates 1 and 1.1 under noise: the extraction's terms seed no joint
        # fit within the noise.  At seed 7 the size-3 and size-4 refits both
        # end higher than the size-2 one, so no later iteration pays for a
        # refit; at seed 3 the fourth extraction finds a residual that does
        # not decay before a second refit has ended higher
        for seed, sizes, count in [(3, [1, 2, 3], 3), (7, [1, 2, 3, 4], 10)]:
            samples = synthesize_samples(SymbolicTransient(((1.0, 2.0), (1.1, 3.0))),
                                         np.linspace(0.0, 40.0, 4001), noise_sigma=1e-6,
                                         seed=seed)
            result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
            assert refit_sizes == sizes
            assert len(result.terms) == count
            assert {d.mode for d in result.diagnostics} == {"numeric"}
            refit_sizes.clear()

    def test_stopped_run_reports_its_fit(self, refit_sizes):
        samples = two_term_samples(1e-4, 2)
        result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
        # one refit after each iteration: one term does not explain the
        # samples, two do
        assert refit_sizes == [1, 2]
        assert result.termination_reason == "residual_floor"
        assert [d.mode for d in result.diagnostics] == ["refit", "refit"]
        assert result.noise_sigma == pytest.approx(1e-4, rel=0.1)
        assert result.residual_rms / result.noise_sigma <= 1.5


class TestReseedSweep:
    """The cyclic sweep runs only to reseed a refit that came within
    REFIT_RETRY_RATIO of its goal; a far miss goes on to the next
    extraction, so clean input fits one horizon scan per term."""

    @staticmethod
    def counted(monkeypatch):
        """Per decomposition: the held-term count at each sweep, and the
        estimate_term and estimate_rate calls."""
        import transient_lab.decomposer as decomposer

        seen = {"sweeps": [], "estimate_term": 0, "estimate_rate": 0}
        real_sweep = decomposer._NumericState.sweep
        real_term = decomposer._NumericState.estimate_term
        real_rate = decomposer.estimate_rate

        def sweep(self):
            seen["sweeps"].append(len(self.terms))
            return real_sweep(self)

        def estimate_term(self, values):
            seen["estimate_term"] += 1
            return real_term(self, values)

        def estimate_rate(*args, **kwargs):
            seen["estimate_rate"] += 1
            return real_rate(*args, **kwargs)

        monkeypatch.setattr(decomposer._NumericState, "sweep", sweep)
        monkeypatch.setattr(decomposer._NumericState, "estimate_term", estimate_term)
        monkeypatch.setattr(decomposer, "estimate_rate", estimate_rate)
        return seen

    @staticmethod
    def clean_inputs():
        """The pinned clean three-term inputs and clean two_term.json."""
        rng = np.random.default_rng(SEED + 13)
        for _ in TestPinnedTerms.THREE_TERM:
            signal, _, grid = three_term_family(rng)
            yield synthesize_samples(signal, grid)
        yield two_term_samples(0.0, 0)

    def test_clean_input_never_sweeps(self, monkeypatch):
        # a three-term signal never fits at size 2, but that refit misses by
        # far more than the retry ratio: no sweep, one horizon scan per term
        seen = self.counted(monkeypatch)
        for samples in self.clean_inputs():
            seen["estimate_term"] = 0
            result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
            assert {d.mode for d in result.diagnostics} == {"refit"}
            assert seen["estimate_term"] == len(result.terms)
        assert seen["sweeps"] == []

    def test_clean_input_fits_within_its_work_budget(self, monkeypatch):
        # each term costs at most one rate fit per horizon floor; a sweep on
        # the common path would re-fit every held term and overrun this
        from transient_lab.decomposer import HORIZON_FLOORS

        seen = self.counted(monkeypatch)
        for samples in self.clean_inputs():
            seen["estimate_rate"] = 0
            result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
            assert 0 < seen["estimate_rate"] <= len(HORIZON_FLOORS) * len(result.terms)

    def test_cli_decompose_fits_within_its_work_budget(self, monkeypatch, tmp_path):
        # the same budget on the command-line path: clean two_term.json
        # samples written by synth and read back by decompose
        from transient_lab.cli import main
        from transient_lab.decomposer import HORIZON_FLOORS

        csv_path, out_path = tmp_path / "samples.csv", tmp_path / "result.json"
        assert main(["synth", "--input", str(DATA / "two_term.json"), "--output",
                     str(csv_path), "--horizon", "40", "--step", "0.01"]) == 0
        seen = self.counted(monkeypatch)
        assert main(["decompose", "--input", str(csv_path), "--output", str(out_path)]) == 0
        terms = json.loads(out_path.read_text())["terms"]
        assert len(terms) == 2
        assert 0 < seen["estimate_rate"] <= len(HORIZON_FLOORS) * len(terms)

    def test_near_miss_is_swept_and_retried(self, monkeypatch, refit_sizes):
        # sigma=1e-4, trial 16: the size-2 refit from the extracted terms
        # misses within the retry ratio; the sweep reseeds it, and the retry
        # returns the true two terms
        seen = self.counted(monkeypatch)
        samples = two_term_samples(1e-4, 2, trial=16)
        result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
        assert seen["sweeps"] == [2]
        assert refit_sizes == [1, 2, 2]
        assert result.termination_reason == "residual_floor"
        assert [r for r, _ in result.terms] == pytest.approx([1.0, 2.0], abs=1e-3)


class TestGridResidency:
    def test_numeric_path_builds_no_closures(self):
        # residuals live as values on one grid, for sampled and evaluator
        # inputs alike
        sig = SymbolicTransient(((1.0, 2.0), (2.0, 3.0)))
        samples = synthesize_samples(sig, np.arange(0.0, 40.0 + 1e-9, 0.01))
        sampled = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
        evaluated = decompose_numeric(SignalSource.from_evaluator(sig, support=(0.0, 40.0)),
                                      (0.0, 40.0))
        assert len(sampled.terms) == 2
        assert len(evaluated.terms) == 2

    def test_noisy_run_leaves_no_reference_cycles(self):
        # a rejected horizon's error must not keep the estimator frames (and
        # their residual arrays) alive until the cyclic GC happens to run
        import gc

        sig = SymbolicTransient(((1.0, 2.0), (2.0, 3.0)))
        samples = synthesize_samples(sig, np.arange(0.0, 40.0 + 1e-9, 0.01),
                                     noise_sigma=1e-4, seed=1)
        source = SignalSource.from_sampled(samples)
        gc.collect()
        gc.disable()
        try:
            decompose_numeric(source, samples.support)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_held_columns_give_the_residuals(self, monkeypatch):
        # each held term keeps coeff * exp(-rate * grid) from when it was
        # estimated; subtracting those columns in list order is bitwise the
        # residual recomputed from the terms' rates and coefficients
        import transient_lab.decomposer as decomposer

        states = []

        class Recording(decomposer._NumericState):
            def __init__(self, *args):
                super().__init__(*args)
                states.append(self)

        monkeypatch.setattr(decomposer, "_NumericState", Recording)
        sig = SymbolicTransient(((1.0, 2.0), (2.0, 3.0)))
        samples = synthesize_samples(sig, np.arange(0.0, 40.0 + 1e-9, 0.01),
                                     noise_sigma=1e-4, seed=1)
        decompose_numeric(SignalSource.from_sampled(samples), samples.support)
        state, = states
        assert len(state.terms) >= 2
        for skip in [None, *range(len(state.terms))]:
            want = state.base_values.copy()
            for i, term in enumerate(state.terms):
                if i != skip:
                    want -= term.coeff * np.exp(-term.rate * state.grid)
            assert np.array_equal(state.residual_values(skip=skip), want)

    def test_non_finite_evaluator_rejected(self):
        def fn(ts):
            out = np.exp(-np.asarray(ts, dtype=float))
            out[len(out) // 2] = np.nan
            return out

        with pytest.raises(ValueError, match="finite"):
            decompose_numeric(SignalSource.from_evaluator(fn, support=(0.0, 30.0)),
                              (0.0, 30.0))

    def test_residuals_are_not_wrapped_as_sampled_signals(self, monkeypatch):
        # the estimators take the grid and each residual array as they are;
        # no residual is rebuilt, and so re-checked, as a SampledSignal
        samples = synthesize_samples(SymbolicTransient(((1.0, 2.0), (2.0, 3.0))),
                                     np.arange(0.0, 40.0 + 1e-9, 0.01),
                                     noise_sigma=1e-4, seed=1)
        source = SignalSource.from_sampled(samples)
        built = []
        real = SampledSignal.__post_init__

        def counting(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(SampledSignal, "__post_init__", counting)
        result = decompose_numeric(source, samples.support)
        assert len(result.terms) >= 2
        assert built == []

    @pytest.mark.parametrize("horizon, error, match", [
        # 4001 uniform nodes on (0, 1e-320) repeat: refused where the grid is made
        (1e-320, ValueError, r"support \(0\.0, 1e-320\) is too narrow"),
        # distinct nodes whose spread squares to zero: no slope to fit
        (1e-300, NonDecaying, "squares to 0.0"),
    ])
    def test_support_too_narrow_to_fit(self, horizon, error, match):
        src = SignalSource.from_evaluator(lambda ts: np.exp(-np.asarray(ts)),
                                          support=(0.0, horizon))
        with pytest.raises(error, match=match):
            decompose_numeric(src, (0.0, horizon))

    def test_tail_window_of_too_few_samples_refused(self):
        # nine samples of a plainly present signal on t = 710..718: no
        # horizon's tail window holds more than 5 of them (the whole support's,
        # 714..718), which no fit can read; that is too few samples, not a
        # vanished signal
        ts = np.arange(710.0, 719.0)
        samples = SampledSignal(ts, 2.0 * np.exp(710.0 - ts) + 3.0 * np.exp(2.0 * (710.0 - ts)))
        with pytest.raises(ValueError, match="too few samples: at most 5 in a tail window, need 8"):
            decompose_numeric(SignalSource.from_sampled(samples), samples.support)

    def test_horizons_before_the_noise_end_of_too_few_samples_refused(self):
        # 17 samples on t = 710..726: the whole support's tail window holds 9,
        # but its horizon lies past the noise end (t = 722), and the tail
        # windows of the horizons at or before it hold at most 7
        ts = np.arange(710.0, 727.0)
        samples = SampledSignal(ts, 2.0 * np.exp(710.0 - ts) + 3.0 * np.exp(2.0 * (710.0 - ts)))
        with pytest.raises(ValueError, match="too few samples: at most 7 in a tail window "
                                             "at or before the noise end, need 8"):
            decompose_numeric(SignalSource.from_sampled(samples), samples.support)

    def test_dense_early_samples_before_a_sparse_tail_decompose(self):
        # one late sample at t = 100 leaves the whole support's tail window a
        # single node; the fitted horizons end near t = 8, where nodes are dense
        ts = np.append(np.linspace(0.0, 10.0, 1001), 100.0)
        samples = SampledSignal(ts, 2.0 * np.exp(-ts) + 3.0 * np.exp(-2.0 * ts))
        result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
        assert [r for r, _ in result.terms] == pytest.approx([1.0, 2.0], rel=1e-9)
        assert [c for _, c in result.terms] == pytest.approx([2.0, 3.0], rel=1e-9)


class TestPinnedTerms:
    """decompose_numeric's terms, bit for bit, as the estimators gave them
    when the sub-block fits ran one block at a time, seeded from the two
    horizon floors; a change to the tail kernels or to the floors that moves
    any bit of a result shows here."""

    THREE_TERM = [
        [("0x1.33fd28bbb7880p-2", "0x1.cf1c3405a759fp+0"),
         ("0x1.598fbe3590412p+0", "0x1.9dc50fe76a933p+1"),
         ("0x1.239453f32b184p+1", "0x1.3bf43f2d0aa25p+2")],
        [("0x1.09fd0b9f8f5aap-1", "-0x1.7c1b981c9a43cp+0"),
         ("0x1.575d7708a93dap+0", "0x1.efc13c8d22e50p+0"),
         ("0x1.224c29257de9bp+1", "0x1.12179f0c98fe6p+0")],
    ]
    # data/two_term.json on compare's default grid; the noise seed follows
    # compare's rule seed + 7919 * sigma_index + trial for --seed 0, trial 0
    # and the sweep (0, 1e-6, 1e-4, 1e-3); the joint refit ends both at two
    # terms
    NOISY = {
        (1e-4, 2): [("0x1.000065bac58c8p+0", "0x1.000001cb22b6ap+1"),
                    ("0x1.fffdb18e8ff74p+0", "0x1.7fff296676494p+1")],
        (1e-3, 3): [("0x1.009cfb6904c2ap+0", "0x1.01e50f3b74384p+1"),
                    ("0x1.007b01aec69b2p+1", "0x1.7e28ab2b78277p+1")],
    }
    # the same inputs through the extraction loop alone, no refit accepted:
    # the terms it invents past the true two
    LOOP_ONLY = {
        (1e-4, 2): [("0x1.006cc4ffe212ap+0", "0x1.027366ed6f3e4p+1"),
                    ("0x1.053f6dfccba32p+1", "0x1.9782799f46c13p+1"),
                    ("0x1.73df442a4c8bep+1", "-0x1.fe57671fc002ep-3")],
        (1e-3, 3): [("0x1.03edd9da0f2a8p+0", "0x1.155fb15e46fa3p+1"),
                    ("0x1.17af4b9c09e2cp+1", "0x1.a214e7e277a9cp+1"),
                    ("0x1.2acf1f3e00461p+2", "-0x1.196629146550fp+0"),
                    ("0x1.06a8cc9f79120p+3", "0x1.696bfaad9ac1dp+0"),
                    ("0x1.c3788102bb768p+3", "-0x1.3489cf0e3a9e6p+0"),
                    ("0x1.04ea0d44f59e1p+5", "0x1.284f7b61e2546p+0")],
    }

    @staticmethod
    def hex_terms(samples):
        result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
        return [(rate.hex(), coeff.hex()) for rate, coeff in result.terms]

    def test_three_term_family(self):
        rng = np.random.default_rng(SEED + 13)
        for want in self.THREE_TERM:
            signal, _, grid = three_term_family(rng)
            assert self.hex_terms(synthesize_samples(signal, grid)) == want

    @pytest.mark.parametrize("sigma, sigma_index", [(1e-4, 2), (1e-3, 3)])
    def test_noisy_two_term(self, sigma, sigma_index):
        truth = load_signal_spec(DATA / "two_term.json")
        samples = synthesize_samples(truth, np.linspace(0.0, 40.0, 4001), noise_sigma=sigma,
                                     seed=7919 * sigma_index)
        assert self.hex_terms(samples) == self.NOISY[sigma, sigma_index]

    @pytest.mark.parametrize("sigma, sigma_index", [(1e-4, 2), (1e-3, 3)])
    def test_rejected_refit_leaves_the_loop_as_it_was(self, monkeypatch, sigma, sigma_index):
        # every refit comes back with its rates within RATE_MERGE_TOL of each
        # other, which the stop refuses: the loop goes on from its own terms,
        # bit for bit, swept only to reseed a refit that came within
        # REFIT_RETRY_RATIO of its goal
        import transient_lab.decomposer as decomposer

        real = decomposer._joint_refit

        def collided(*args):
            rates, *rest = real(*args)
            return (rates[0] + 0.5 * decomposer.RATE_MERGE_TOL * np.arange(len(rates)), *rest)

        monkeypatch.setattr(decomposer, "_joint_refit", collided)
        samples = two_term_samples(sigma, sigma_index)
        assert self.hex_terms(samples) == self.LOOP_ONLY[sigma, sigma_index]


class TestGridBlockStore:
    """No grid-side block statistics outlive a decomposition: what ran before
    moves no bit of the next one's terms."""

    @staticmethod
    def hex_terms(samples):
        result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
        return [(rate.hex(), coeff.hex()) for rate, coeff in result.terms]

    def test_terms_do_not_depend_on_what_ran_before(self):
        # B after A on the same grid, after C on another grid, and after
        # itself: none of them moves a bit of B
        truth = load_signal_spec(DATA / "two_term.json")
        grid = np.linspace(0.0, 40.0, 4001)
        runs = {
            "A": synthesize_samples(truth, grid, noise_sigma=1e-4, seed=5),
            "B": synthesize_samples(truth, grid, noise_sigma=1e-4, seed=6),
            "C": synthesize_samples(truth, np.linspace(0.0, 30.0, 4001), noise_sigma=1e-4,
                                    seed=6),
        }
        want = self.hex_terms(runs["B"])
        assert len(want) >= 2
        for before in ("A", "C", "B"):
            self.hex_terms(runs[before])
            assert self.hex_terms(runs["B"]) == want, before
