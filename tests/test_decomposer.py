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
        # noise blocks the residual floor, so accuracy is noise-limited and
        # extraction ends by estimator refusal or collision; the dominant
        # term still comes out at the few-percent level
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
    when the sub-block fits ran one block at a time; a change to the tail
    kernels that moves any bit of a result shows here."""

    THREE_TERM = [
        [("0x1.33fd28bbb2732p-2", "0x1.cf1c3405958b2p+0"),
         ("0x1.598fbe351dfa0p+0", "0x1.9dc50fe49e1b6p+1"),
         ("0x1.239453eff3274p+1", "0x1.3bf43f1eebbd1p+2")],
        [("0x1.09fd0b9f8f0f6p-1", "-0x1.7c1b981c98c4dp+0"),
         ("0x1.575d7708abc95p+0", "0x1.efc13c8d21626p+0"),
         ("0x1.224c29253a191p+1", "0x1.12179f0b4f06ep+0")],
    ]
    # data/two_term.json on compare's default grid; the noise seed follows
    # compare's rule seed + 7919 * sigma_index + trial for --seed 0, trial 0
    # and the sweep (0, 1e-6, 1e-4, 1e-3)
    NOISY = {
        (1e-4, 2): [("0x1.003c30718e4f3p+0", "0x1.0112eddc63f1cp+1"),
                    ("0x1.04fa50691adaep+1", "0x1.a33351a4cc258p+1"),
                    ("0x1.b30a026272c6dp+1", "-0x1.11ecca65da2fap+0")],
        (1e-3, 3): [("0x1.02fcb7785ada5p+0", "0x1.0f957871760e6p+1"),
                    ("0x1.28ba4cab2a209p+1", "0x1.5334d5c08abcdp+2"),
                    ("0x1.bb5a46ff20c8fp+1", "-0x1.b7d0501a155e8p+2"),
                    ("0x1.50b5d21382784p+2", "0x1.bc5fb5ccaf6fcp+3"),
                    ("0x1.2778fb4f1b3a8p+3", "-0x1.6a17bf91d4d89p+6"),
                    ("0x1.9109d3863bf33p+3", "0x1.12168f4002029p+8"),
                    ("0x1.3667ecdf2da3fp+4", "-0x1.a26b87bd495eep+9"),
                    ("0x1.e47209d27ea02p+4", "0x1.684087e0c4efdp+11")],
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
